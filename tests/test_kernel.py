"""The trusted kernel on its own: what it may import, and whether a forged
certificate gets past it.

The forgery fuzzer starts from valid certificates of generated deductions
and applies one mutation: retarget a step index, swap the arrow of a
step, change a citation, drop a step, permute the claims, or restate a
claim over the unchanged proofs.  A mutated proof's claim becomes whatever
that proof would derive if replay checked nothing, so the kernel's own
checks (citation range, transitivity middle terms, endpoints, the claim
check) are all that stand between the mutant and acceptance.  Every mutant
the kernel accepts is judged on random finite models, a route with no
normal forms in it: its claims must hold in every sampled model of its
hypotheses.

Lemma tables get mutations of their own: a lemma cites itself or a later
lemma, a hypothesis citation leaves the hypothesis list, a statement is
swapped for another lemma's, or the table stops before the goal.  The kernel
must reject every one of them.
"""

from __future__ import annotations

import ast
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (arrows_agree, binary_signature, certify, random_model,
                      replace, unary_signature)
from gen import gen_deduction, gen_equation, gen_term
from termcat import arrows, deduction, kernel, models, subst
from termcat.arrows import (Comp, Leaf, Proj, TupleArrow, arrows_equal,
                            flat_product, input_product, normalize,
                            one_stage_arrow, term_arrow, term_normal)
from termcat.cli import run
from termcat.deduction import (equation_constraint, lemma_table,
                               product_factorizations)
from termcat.dsl import build_proof, parse_spec
from termcat.errors import EndpointMismatch
from termcat.kernel import (CiteHyp, ComposeLeft, ComposeRight, EqConstraint,
                            Factorization, Lemma, Refl, Sym, Trans, TupleCong,
                            constraints_equal, verify_factorization,
                            verify_lemmas, verify_levelled)
from termcat.signature import Variable, validate_signature
from termcat.terms import App, var_set

# --- import boundaries -------------------------------------------------------


def _imports(module) -> list[tuple[str, tuple[str, ...]]]:
    """(module, imported names) for every import statement of a module's
    source; a `termcat` module is named without its package."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((a.name, ()) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = tuple(a.name for a in node.names)
            if node.level == 0:
                found.append((node.module, names))
            elif node.module is None:  # from . import x
                found.extend((name, ()) for name in names)
            else:
                found.append((node.module, names))
    return [(name.removeprefix("termcat."), names) for name, names in found]


def _outside_stdlib(imports, allowed: set[str]) -> list[str]:
    return [name for name, _ in imports
            if name.split(".")[0] not in sys.stdlib_module_names
            and name not in allowed]


def test_kernel_imports_only_arrows_errors_and_the_stdlib():
    # an application is interned, so the kernel's compiler keys its memo by
    # node and needs no type test to tell a variable from an application
    imports = _imports(kernel)
    assert {"arrows", "errors"} <= {name for name, _ in imports}
    assert _outside_stdlib(imports, {"arrows", "errors"}) == []
    # the kernel compiles statements with its own compiler, not the
    # producer's: none of the compilers `arrows` defines
    compilers = {"equation_arrows", "term_arrow", "context_arrow",
                 "occurrence_arrow", "regroup_arrow", "apply_arrow",
                 "term_normal", "input_product", "one_stage_arrow"}
    assert compilers <= vars(arrows).keys()
    assert not {n for name, names in imports if name == "arrows"
                for n in names} & compilers


def test_the_term_compiler_takes_expressions_not_terms():
    # `term_arrow(e, vs)` is the one entry to the three-stage compiler;
    # a `Term` is what user input is checked into, not its calling form
    assert not {n for name, names in _imports(arrows) if name == "terms"
                for n in names} & {"Term", "make_term"}


def test_models_imports_nothing_that_normalizes():
    normalizing = {"normalize", "_norm", "arrows_equal", "term_normal",
                   "embed", "NormalArrow", "NormalBody", "Path", "GenApp",
                   "NTuple", "deduction", "kernel", "subst"}
    imports = _imports(models)
    assert "terms" in {name for name, _ in imports}
    assert _outside_stdlib(
        imports, {"arrows", "errors", "signature", "terms"}) == []
    assert not {n for name, names in imports
                for n in (name, *names)} & normalizing


# --- the kernel's compiler ---------------------------------------------------

TWO_SORTS = validate_signature(["s", "t"], [
    ("m", ["s", "t"], "s"), ("f", ["s"], "t"), ("c", [], "s"),
    ("d", [], "t")])


def test_the_kernel_compiles_as_the_term_compiler():
    tally = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def agree(seed):
        rng = random.Random(seed)
        t = gen_term(rng, TWO_SORTS, depth=rng.randint(0, 4), extra_vars=3)
        memo: dict = {}
        a = kernel._compile(t.expr, t.vars, memo)
        assert (a.src, a.dst) == (input_product(t.vars), Leaf(t.sort))
        assert arrows_equal(a, term_arrow(t.expr, t.vars))
        assert normalize(a) == term_normal(t.expr, t.vars)
        # a memo hit is the arrow a fresh memo builds, for every
        # subexpression
        stack = [t.expr]
        while stack:
            e = stack.pop()
            assert kernel._compile(e, t.vars, memo) is \
                kernel._compile(e, t.vars, {})
            stack.extend(getattr(e, "args", ()))
        tally["unused variables"] += len(var_set(t.expr)) < len(t.vars)
        tally["two sorts"] += len({v.sort for v in t.vars}) == 2

    agree()
    assert tally["unused variables"] >= 50 and tally["two sorts"] >= 50, tally


def test_the_producers_one_stage_arrow_is_the_kernels():
    # hash-consing makes the producer's one-stage arrow the very node the
    # kernel compiles, and it is formally equal to the three-stage arrow
    tally = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def same(seed):
        rng = random.Random(seed)
        t = gen_term(rng, TWO_SORTS, depth=rng.randint(0, 4), extra_vars=3)
        a = one_stage_arrow(t.expr, t.vars)
        assert a is kernel._compile(t.expr, t.vars, {})
        assert arrows_equal(a, term_arrow(t.expr, t.vars))
        tally["application"] += isinstance(t.expr, App)
        tally["unused variables"] += len(var_set(t.expr)) < len(t.vars)

    same()
    assert tally["application"] >= 100 and tally["unused variables"] >= 50, \
        tally


def _swapped(real):
    # the compiler `real`, broken: it compiles m(a, b) as m(b, a)
    def swapped(e, vs):
        if isinstance(e, App) and len(e.args) == 2:
            e = App(e.op, e.args[::-1])
        return real(e, vs)
    return swapped


def _doubled(real):
    # the compiler `real`, broken so that breaking it twice is breaking
    # it once: it compiles m(a, b) as m(a, a).  The broken `term_arrow`
    # calls the broken stages, where two swaps would cancel
    def doubled(e, *context):
        if isinstance(e, App) and len(e.args) == 2 \
                and e.args[0].sort == e.args[1].sort:
            e = App(e.op, e.args[:1] * 2)
        return real(e, *context)
    return doubled


def _corpus_commands():
    """Every check-proof (both routes), check-eq, subst and compile the
    corpus offers, text and --json."""
    for path in sorted(CORPUS.glob("*.msl")):
        sf = parse_spec(path.read_text(encoding="utf-8"))
        argvs = [["check-proof"], ["check-proof", "--levelled"]]
        argvs += [["check-eq", "--equation", q] for q in sf.equations]
        argvs += [["compile", "--term", t] for t in sf.terms]
        argvs += [["subst", "--term", t, "--var", str(x), "--with", u]
                  for t, term in sf.terms.items() for x in term.vars
                  for u, repl in sf.terms.items() if repl.sort == x.sort]
        for argv in argvs:
            yield argv + [str(path)]
            yield argv + ["--json", str(path)]


def test_the_kernel_does_not_trust_the_producers_compiler(monkeypatch,
                                                          capsys, tmp_path):
    # break the producer's one-stage compiler wherever it reads it, which
    # breaks the levelled certificate's hypotheses and claim alike.  The
    # refl step's arrow is then not its statement's, and only a kernel
    # that compiles statements itself sees it: on the lemma table, and on
    # the levelled certificate
    f = tmp_path / "swap.msl"
    f.write_text("sort s\nop m : s s -> s\nop e : -> s\n"
                 "eq q [x:s] : x = x\n"
                 "proof p from q {\n"
                 "  a = hyp q ;\n"
                 "  r = refl [x:s] m(x, e) ;\n"
                 "}\n", encoding="utf-8")
    with monkeypatch.context() as patch:
        broken = _swapped(arrows.one_stage_arrow)
        for module in (arrows, deduction, subst):
            patch.setattr(module, "one_stage_arrow", broken)
        assert run(["check-proof", str(f)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "proof p: FAILED VERIFICATION",
            "  conclusion: m(x1:s, e) = m(x1:s, e)  [x1:s]",
            "  hypotheses: 1, lemmas: 2, kernel steps: 2",
            "  7:3: step 'r': lemma 1: derived constraint differs from the "
            "statement"]
        assert run(["check-proof", "--levelled", str(f)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "proof p: FAILED VERIFICATION",
            "  conclusion: m(x1:s, e) = m(x1:s, e)  [x1:s]",
            "  hypotheses: 1, claims: 1, workspace: 0",
            "  claim 0: derived constraint differs from the claim"]
    # break the paper's three-stage compiler and its stages: no check
    # reads them, so only what compile prints changes on the corpus
    commands = list(_corpus_commands())
    before = [(run(argv), capsys.readouterr()) for argv in commands]
    for name in ("term_arrow", "occurrence_arrow", "regroup_arrow",
                 "apply_arrow"):
        monkeypatch.setattr(arrows, name, _doubled(getattr(arrows, name)))
    after = [(run(argv), capsys.readouterr()) for argv in commands]
    changed = {argv[0] for argv, x, y in zip(commands, before, after)
               if x != y}
    assert changed == {"compile"}
    assert Counter(argv[0] for argv in commands) == {
        "check-proof": 12, "check-eq": 14, "subst": 22, "compile": 10}


def test_the_levelled_check_replays_from_its_own_statements():
    # the kernel compiles the hypotheses and the goal itself: the
    # certificate of comm_twice replays from its own hypotheses to its own
    # claim, and is refused for another goal, from another hypothesis and
    # when it claims nothing
    sf = parse_spec((CORPUS / "monoid.msl").read_text(encoding="utf-8"))
    steps, hyps = build_proof(sf, sf.proofs["comm_twice"])
    cert = certify(sf.signature, steps, hyps)
    goal = steps[-1].equation
    result = verify_levelled(hyps, cert, goal)
    assert result.ok and result.trace == ("claim 0: established",)
    assert verify_factorization(cert).ok
    other = verify_levelled(hyps, cert, sf.equations["lunit"])
    assert not other.ok and other.trace == (
        "claim 0: derived constraint differs from the claim",)
    other = verify_levelled([sf.equations["lunit"]], cert, goal)
    assert not other.ok
    assert other.trace[-1] == "claim 0: kernel proof failed to replay"
    empty = verify_levelled(hyps, Factorization((), (), (), ()), goal)
    assert not empty.ok and empty.trace == ("empty certificate proves "
                                            "nothing",)


def test_the_kernel_compiles_a_deep_tower_without_recursion():
    # the kernel compiles a 20,000-deep tower, and normalizes what it
    # compiled, at the default recursion limit
    sig = validate_signature(["s"], [("i", ["s"], "s")])
    x = Variable(sig.sorts[0], 1)
    e = x
    for _ in range(20000):
        e = App(sig.operations[0], (e,))
    top = a = kernel._compile(e, (x,), {})
    assert (a.src, a.dst) == (flat_product((x.sort,)), Leaf(x.sort))
    depth = 0
    while isinstance(a, Comp):
        a, depth = a.before.parts[0], depth + 1
    assert depth == 20000 and a == Proj(flat_product((x.sort,)), 1)
    assert normalize(top) == term_normal(e, (x,))


# --- step references ---------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("proof, line", [
    ((CiteHyp(0), Sym(-1)), "step 1: reference -1 is not an earlier step"),
    ((CiteHyp(0), Sym(1)), "step 1: reference 1 is not an earlier step"),
    ((CiteHyp(0), Trans(0, -2)),
     "step 1: reference -2 is not an earlier step"),
    ((CiteHyp(0), TupleCong(None, (0, 5))),
     "step 1: reference 5 is not an earlier step"),
], ids=["negative", "forward", "trans-negative", "tuple-forward"])
def test_step_references_must_name_earlier_steps(proof, line):
    # Python would read derived[-1] as the last step; the kernel reads it
    # as no step at all
    sf = parse_spec((CORPUS / "monoid.msl").read_text(encoding="utf-8"))
    lunit = equation_constraint(sf.equations["lunit"])
    flipped = EqConstraint(lunit.right, lunit.left)
    result = verify_factorization(
        Factorization((lunit,), (flipped,), (), (proof,)))
    assert not result.ok
    assert result.trace == (line, "claim 0: kernel proof failed to replay")


# --- forgery fuzzer -----------------------------------------------------------

SIGNATURES = (unary_signature(), binary_signature())
MUTATIONS = ("retarget", "arrow", "cite", "drop", "permute", "restate",
             "negative")
MODELS_PER_MUTANT = 12


def _certificate(rng: random.Random):
    """The product of the certificates of one to three generated
    deductions over a shared list of zero to two hypotheses."""
    sig = rng.choice(SIGNATURES)
    hyps = [gen_equation(rng, sig, depth=2) for _ in range(rng.randint(0, 2))]
    deductions = [gen_deduction(rng, sig, hyps, rng.randint(1, 3))
                  for _ in range(rng.randint(1, 3))]
    return sig, product_factorizations([certify(sig, steps, hyps)
                                        for steps in deductions])


def _forged_claim(hyp, proof) -> EqConstraint | None:
    """What `proof` derives when nothing is checked: any citation Python can
    index, transitivity whatever its middle terms.  None where a step refers
    forward or its arrows do not compose."""
    derived: list[EqConstraint] = []
    try:
        for s in proof:
            if isinstance(s, CiteHyp):
                c = hyp[s.hyp]
            elif isinstance(s, Refl):
                c = EqConstraint(s.arrow, s.arrow)
            elif isinstance(s, Sym):
                c = EqConstraint(derived[s.of].right, derived[s.of].left)
            elif isinstance(s, Trans):
                c = EqConstraint(derived[s.first].left,
                                 derived[s.second].right)
            elif isinstance(s, ComposeLeft):
                p = derived[s.of]
                c = EqConstraint(Comp(s.arrow, p.left), Comp(s.arrow, p.right))
            elif isinstance(s, ComposeRight):
                p = derived[s.of]
                c = EqConstraint(Comp(p.left, s.arrow), Comp(p.right, s.arrow))
            else:
                ps = [derived[i] for i in s.of]
                c = EqConstraint(TupleArrow(s.src, tuple(p.left for p in ps)),
                                 TupleArrow(s.src, tuple(p.right for p in ps)))
            derived.append(c)
    except (IndexError, EndpointMismatch):
        return None
    return derived[-1] if derived else None


def _retarget(rng, step, size, negative=False):
    def index():
        return -rng.randint(1, size) if negative else rng.randrange(size)

    field = rng.choice([f for f in step._fields
                        if f in ("of", "first", "second")])
    old = getattr(step, field)
    if isinstance(old, tuple):
        k = rng.randrange(len(old))
        new = old[:k] + (index(),) + old[k + 1:]
    else:
        new = index()
    return replace(step, **{field: new})


def _swap_arrow(rng, step, pool):
    # an arrow over the same endpoints keeps the mutant well typed, so the
    # kernel's semantic checks have to catch it.  On both branches no
    # candidate is formally equal to the arrow it replaces, so every swap
    # forges something; None where the pool offers no such arrow
    old = step.arrow
    same = [a for a in pool if a.src is old.src and a.dst is old.dst
            and not arrows_equal(a, old)]
    unequal = same + [a for a in pool
                      if a.src is not old.src or a.dst is not old.dst]
    if not unequal:
        return None
    return replace(step, arrow=rng.choice(
        same if same and rng.random() < 0.8 else unequal))


def _mutate(rng: random.Random, cert: Factorization,
            kind: str) -> Factorization | None:
    """`cert` with one mutation of the given kind; None where the
    certificate offers that mutation nothing to act on."""
    claim, verif = list(cert.claim), list(cert.verif)
    if kind == "permute":
        if len(set(claim)) < 2:
            return None
        order = list(range(len(claim)))
        while order == sorted(order):
            rng.shuffle(order)
        return Factorization(cert.hyp, tuple(claim[i] for i in order),
                             cert.wksp, cert.verif)
    if kind == "restate":
        # a claim that a proof mutation forges, over the unmutated proofs
        forged = _mutate(rng, cert, rng.choice(MUTATIONS[:4]))
        return forged and Factorization(cert.hyp, forged.claim, cert.wksp,
                                        cert.verif)
    k = rng.randrange(len(verif))
    proof = list(verif[k])
    references = (Sym, Trans, ComposeLeft, ComposeRight, TupleCong)
    targets = {"retarget": references, "negative": references,
               "arrow": (Refl, ComposeLeft, ComposeRight),
               "cite": CiteHyp, "drop": object}[kind]
    sites = [n for n, s in enumerate(proof) if isinstance(s, targets)]
    if not sites:
        return None
    n = rng.choice(sites)
    step = proof[n]
    if kind == "drop":
        del proof[n]
    elif kind in ("retarget", "negative"):
        proof[n] = _retarget(rng, step, len(proof), kind == "negative")
    elif kind == "arrow":
        pool = [a for c in cert.hyp + cert.claim for a in (c.left, c.right)]
        pool += [s.arrow for p in verif for s in p if hasattr(s, "arrow")]
        proof[n] = _swap_arrow(rng, step, pool)
        if proof[n] is None:
            return None
    else:
        wrong = [i for i in range(-1, len(cert.hyp) + 1) if i != step.hyp]
        proof[n] = CiteHyp(rng.choice(wrong))
    verif[k] = tuple(proof)
    claim[k] = _forged_claim(cert.hyp, proof) or claim[k]
    return Factorization(cert.hyp, tuple(claim), cert.wksp, tuple(verif))


def _holds(model, c: EqConstraint) -> bool:
    return arrows_agree(model, c.left, c.right, c.left.src)


def test_forged_certificates_are_rejected_or_sound():
    tally = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(MUTATIONS))
    def forge(seed, kind):
        rng = random.Random(seed)
        sig, cert = _certificate(rng)
        mutant = _mutate(rng, cert, kind)
        if mutant is None:
            return
        result = verify_factorization(mutant)
        if kind == "negative":
            # counted from the end, a reference still names a derived
            # constraint, so the models cannot tell; the kernel must refuse
            assert not result.ok
            assert any("is not an earlier step" in line
                       for line in result.trace)
            tally["negative"] += 1
        if not result.ok:
            tally["rejected"] += 1
            return
        for _ in range(MODELS_PER_MUTANT):
            model = random_model(sig, 3, rng)
            if all(_holds(model, c) for c in mutant.hyp):
                tally["judged"] += 1
                assert all(_holds(model, c) for c in mutant.claim), kind

    forge()
    _forge_lemma_tables(tally)
    # floors, so that the property cannot pass with nothing tested
    assert tally["rejected"] >= 100, tally
    assert tally["judged"] >= 500, tally
    assert tally["negative"] >= 20, tally
    for kind in LEMMA_MUTATIONS:
        assert tally[kind] >= 30, tally


# --- lemma tables ---------------------------------------------------------------

LEMMA_MUTATIONS = {
    # kind: what the rejecting trace line says
    "self-cite": "is not an earlier lemma",
    "later-cite": "is not an earlier lemma",
    "missing-hypothesis": "citation of missing hypothesis",
    "swap-statement": "derived constraint differs from the statement",
    "not-the-goal": "is not the goal",
}


def _lemma_table(rng: random.Random):
    sig = rng.choice(SIGNATURES)
    hyps = [gen_equation(rng, sig, depth=2) for _ in range(rng.randint(1, 2))]
    steps = gen_deduction(rng, sig, hyps, rng.randint(1, 4))
    return hyps, list(lemma_table(sig, steps)), steps[-1].equation


def _mutate_table(rng: random.Random, lemmas: list[Lemma], goal,
                  n_hyps: int, kind: str):
    """(mutated table, goal), or None where the table offers the mutation
    nothing to act on.  Statements are told apart by their arrows: two
    equations that differ only in how their variables are numbered are one
    statement."""
    def differ(a, b) -> bool:
        return not constraints_equal(equation_constraint(a),
                                     equation_constraint(b))

    if kind == "not-the-goal":
        ends = [k for k, x in enumerate(lemmas) if differ(x.statement, goal)]
        return ends and (lemmas[:rng.choice(ends) + 1], goal)
    if kind == "missing-hypothesis":
        sites = [k for k, x in enumerate(lemmas) if x.hypothesis is not None]
        if not sites:
            return None
        k = rng.choice(sites)
        h = rng.choice([-rng.randint(1, 3), n_hyps + rng.randint(0, 2)])
        lemmas[k] = replace(lemmas[k], hypothesis=h)
        return lemmas, goal
    if kind == "swap-statement":
        pairs = [(k, j) for k in range(len(lemmas)) for j in range(len(lemmas))
                 if differ(lemmas[k].statement, lemmas[j].statement)]
        if not pairs:
            return None
        k, j = rng.choice(pairs)
        lemmas[k] = replace(lemmas[k], statement=lemmas[j].statement)
        return lemmas, goal
    later = kind == "later-cite"
    if len(lemmas) - later < 1:
        return None
    k = rng.randrange(len(lemmas) - later)
    bad = rng.randrange(k + 1, len(lemmas)) if later else k
    cites = list(lemmas[k].cites)
    if cites and rng.random() < 0.7:
        cites[rng.randrange(len(cites))] = bad
    else:
        cites.append(bad)
    lemmas[k] = replace(lemmas[k], cites=tuple(cites))
    return lemmas, goal


def _forge_lemma_tables(tally: Counter) -> None:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(sorted(LEMMA_MUTATIONS)))
    def forge(seed, kind):
        rng = random.Random(seed)
        hyps, lemmas, goal = _lemma_table(rng)
        assert verify_lemmas(hyps, lemmas, goal).ok
        mutant = _mutate_table(rng, lemmas, goal, len(hyps), kind)
        if not mutant:
            return
        result = verify_lemmas(hyps, *mutant)
        assert not result.ok, kind
        assert LEMMA_MUTATIONS[kind] in result.trace[0], result.trace
        # a rejected lemma is reported by index, the goal check by none
        if kind == "not-the-goal":
            assert result.rejected is None
        else:
            assert all(line.startswith(f"lemma {result.rejected}: ")
                       for line in result.trace), result.trace
        tally[kind] += 1

    forge()


def test_a_table_that_claims_the_goal_is_refused():
    # the lemma analogue of `identity_factorization((goal,))`: the goal
    # claimed with no derivation, by citing a premise or by reflexivity
    sf = parse_spec((CORPUS / "monoid.msl").read_text(encoding="utf-8"))
    lunit = sf.equations["lunit"]
    compiled = equation_constraint(lunit)
    for proof in [(CiteHyp(0),), (Refl(compiled.left),),
                  (Refl(compiled.left), Sym(0))]:
        result = verify_lemmas([lunit], [Lemma(lunit, (), None, proof)],
                               lunit)
        assert not result.ok, proof
    assert verify_lemmas([lunit], [], lunit).trace == (
        "empty lemma table proves nothing",)
    # citing the hypothesis the goal is, by contrast, is a derivation
    assert verify_lemmas([lunit], [Lemma(lunit, (), 0, (CiteHyp(0),))],
                         lunit).ok
