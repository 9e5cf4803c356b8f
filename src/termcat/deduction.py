"""Equational deduction compiled to arrow-equality certificates.

A deduction is its steps, in the order they are declared: each `Step`
applies one of the multisorted equational rules (reflexivity, symmetry,
transitivity, concretion, abstraction, substitutivity) to the steps it
cites, which come earlier, or cites one of a list of hypothesis equations.
`conclude` alone states what each rule requires and concludes, and
`derive` alone builds a step, with one call of `conclude`, for the .msl
front end and for this module, the producer.  `lemma_table` codes each
step once, in order, cited or not, as a kernel proof, compiling in one
stage only the arrows that proof's steps carry, so lemma k is step k; it
draws no conclusion again, since the kernel checks every lemma's
statement itself.  The producer then emits one of two
certificates for the kernel (`kernel.py`), which runs none of this code:

- the lemma table itself: each lemma carries its step's equation, its
  citations and its rule coding's kernel proof; the kernel alone compiles
  the equations (what `check-proof` checks by default);
- `normalize_deduction` and `compile_to_factorization`: the levelled form
  of the last step's deduction and the one `Factorization` pasted from the
  lemma table's codings, its arrows one-stage (`check-proof --levelled`).

`verify_factorization` is the kernel's, imported here under the name by
which the benchmark's tracer wraps it.
"""

from __future__ import annotations

import functools
from typing import Sequence, Union

from .arrows import Comp, equation_arrows, one_stage_arrow
from .errors import DeductionError, Record, TermcatError
from .kernel import (CiteHyp, ComposeLeft, ComposeRight, EqConstraint,
                     Factorization, KernelProof, KernelStep, Lemma, Refl,
                     Sym, Trans, TupleCong, constraints_equal)
from .kernel import verify_factorization  # noqa: F401
from .signature import Signature, ordered_vars
from .subst import retyping_arrow, subst_expr, substitution_arrow
from .terms import Equation, inhabited_sorts, var_set

# --- rule instances -----------------------------------------------------------


class Hypothesis(Record):
    __slots__ = ("index",)


class Reflexivity(Record):
    __slots__ = ("term",)


class Symmetry(Record):
    __slots__ = ()


class Transitivity(Record):
    __slots__ = ()


class Concretion(Record):
    __slots__ = ("var",)


class Abstraction(Record):
    __slots__ = ("var",)


class Substitutivity(Record):
    __slots__ = ("var",)


class Copy(Record):
    """Carries an equation one level down unchanged; used by normalization.
    Not a rule of the logic: its certificate is the identity."""

    __slots__ = ()


RuleInstance = Union[Hypothesis, Reflexivity, Symmetry, Transitivity,
                     Concretion, Abstraction, Substitutivity, Copy]

RULE_ARITY = {Hypothesis: 0, Reflexivity: 0, Symmetry: 1, Transitivity: 2,
              Concretion: 1, Abstraction: 1, Substitutivity: 2, Copy: 1}

RULE_NAMES = {Hypothesis: "hyp", Reflexivity: "refl", Symmetry: "sym",
              Transitivity: "trans", Concretion: "conc",
              Abstraction: "abs", Substitutivity: "subst", Copy: "copy"}


class Step(Record):
    """One deduction step: its equation, its rule and the indices of the
    steps it cites, in the rule's premise order.  In a proof the cited
    steps come earlier."""

    __slots__ = ("equation", "rule", "premises")


# --- rule checking and coding ------------------------------------------------------


def equation_constraint(eq: Equation) -> EqConstraint:
    return EqConstraint(*equation_arrows(eq))


def identity_factorization(constraints: Sequence[EqConstraint]
                           ) -> Factorization:
    cs = tuple(constraints)
    return Factorization(hyp=cs, claim=cs, wksp=(),
                         verif=tuple((CiteHyp(i),) for i in range(len(cs))))


def _require(cond: bool, detail: str):
    if not cond:
        raise DeductionError(detail)


def conclude(sig: Signature, rule: RuleInstance,
             premises: Sequence[Equation],
             hypotheses: Sequence[Equation]) -> Equation:
    """The conclusion `rule` draws from `premises` (a hypothesis's is the
    hypothesis itself, from `hypotheses`).  This is the one statement of
    what each rule requires and concludes: the first side condition that
    fails, in the order below, raises a `DeductionError`, and a conclusion
    drawn always forms an `Equation`."""
    kind = type(rule)
    want = RULE_ARITY[kind]
    _require(len(premises) == want,
             f"{RULE_NAMES[kind]} takes {want} premises")
    if kind is Hypothesis:
        if not 0 <= rule.index < len(hypotheses):
            raise DeductionError(f"no hypothesis with index {rule.index}")
        return hypotheses[rule.index]
    if kind is Reflexivity:
        t = rule.term
        return Equation(t.expr, t.expr, t.vars)
    p = premises[0]
    if kind is Symmetry:
        return Equation(p.right, p.left, p.vars)
    if kind is Transitivity:
        q = premises[1]
        _require(p.vars == q.vars,
                 "transitivity premises must share the variable set")
        if p.sort != q.sort:
            raise DeductionError(
                f"premises have different sorts: {p.sort} vs {q.sort}")
        if p.right != q.left:
            raise DeductionError(
                f"premises do not share a middle term: {p.right} vs {q.left}")
        return Equation(p.left, q.right, p.vars)
    if kind is Concretion:
        x = rule.var
        _require(x in p.vars, f"{x} is not among the premise variables")
        _require(x not in var_set(p.left, p.right),
                 f"{x} occurs in the equation and cannot be removed")
        # the coding fills the dropped variable with a closed expression
        _require(x.sort in inhabited_sorts(sig),
                 f"sort {x.sort} is empty; no closed filler exists")
        return Equation(p.left, p.right, tuple(v for v in p.vars if v != x))
    if kind is Abstraction:
        x = rule.var
        _require(x not in p.vars, f"{x} already occurs among the premise "
                 "variables")
        return Equation(p.left, p.right, ordered_vars(p.vars + (x,)))
    if kind is Substitutivity:
        x, q = rule.var, premises[1]
        _require(x in p.vars, f"{x} is not among the first premise's "
                 "variables")
        _require(q.sort == x.sort,
                 f"second premise has sort {q.sort}, but {x} requires "
                 f"{x.sort}")
        kept = tuple(v for v in p.vars if v != x)
        return Equation(subst_expr(p.left, x, q.left),
                        subst_expr(p.right, x, q.right),
                        ordered_vars(kept + q.vars))
    raise DeductionError(f"unknown rule {rule!r}")


def derive(sig: Signature, rule: RuleInstance, cites: tuple[int, ...],
           steps: Sequence[Step], hypotheses: Sequence[Equation]) -> Step:
    """The step that applies `rule` to the steps of `steps`, those before
    it, that `cites` names in the rule's premise order, concluding what
    `conclude` draws.  Every step is built here: a citation of a step that
    does not come earlier, or the first side condition that fails, raises
    a `DeductionError`."""
    _require(all(0 <= i < len(steps) for i in cites),
             "a step may cite only earlier steps")
    return Step(conclude(sig, rule, [steps[i].equation for i in cites],
                         hypotheses), rule, cites)


def _code_rule(sig: Signature, premises: Sequence[Equation],
               step: Step) -> KernelProof:
    """The kernel proof of `step`'s equation from `premises`, the equations
    of the steps it cites.  The step is one `derive` built, so its rule's
    side conditions hold and its equation is what the rule draws; the
    kernel checks that equation, not this code.  Only the arrows a step
    carries are compiled, in one stage: the conclusion's left side for
    reflexivity; for substitutivity, the replacement over the conclusion's
    variables and the first premise's right side; the closed filler of a
    concretion's dropped variable."""
    c, rule = step.equation, step.rule
    kind = type(rule)
    if kind is Hypothesis:
        return (CiteHyp(0),)
    if kind is Reflexivity:
        return (Refl(one_stage_arrow(c.left, c.vars)),)
    if kind is Symmetry:
        return CiteHyp(0), Sym(0)
    if kind is Transitivity:
        return CiteHyp(0), CiteHyp(1), Trans(0, 1)
    p = premises[0]
    if kind is Concretion or kind is Abstraction:
        # a concretion fills its one dropped variable, whose sort `conclude`
        # found inhabited; an abstraction fills none
        h = retyping_arrow(c.vars, p.vars, inhabited_sorts(sig)
                           if kind is Concretion else {})
        return CiteHyp(0), ComposeRight(h, 0)

    # substitutivity: the conclusion's variables are the result variables,
    # since the conclusion is what `conclude` draws
    x, p2 = rule.var, premises[1]
    union = ordered_vars(p.vars + p2.vars)
    alpha = retyping_arrow(union, p.vars, {})
    beta = retyping_arrow(c.vars, p2.vars, {})
    a_fwd = substitution_arrow(c.vars, union, x, p2.left)
    # Kernel derivation: widen the first premise to the union product,
    # derive the substituted-slot pair from the second premise, assemble
    # the pair of substitution arrows by tuple congruence, then compose.
    steps: list[KernelStep] = [
        CiteHyp(0),               # 0: (f, f') over the premise product
        CiteHyp(1),               # 1: (g, g') over the replacement product
        ComposeRight(alpha, 0),   # 2: widened first premise
        ComposeRight(beta, 1),    # 3: the substituted coordinate pair
    ]
    # step 3 at the substituted slot, Refl of a_fwd's projection elsewhere
    slot = union.index(x)
    refs: list[int] = []
    for i, part in enumerate(a_fwd.parts):
        if i == slot:
            refs.append(3)
        else:
            steps.append(Refl(part))
            refs.append(len(steps) - 1)
    steps.append(TupleCong(a_fwd.src, tuple(refs)))
    cong = len(steps) - 1        # (A, A') up to normalization
    f_alpha_right = Comp(one_stage_arrow(p.right, p.vars), alpha)
    steps.append(ComposeRight(a_fwd, 2))            # (f.a.A, f'.a.A)
    steps.append(ComposeLeft(f_alpha_right, cong))  # (f'.a.A, f'.a.A')
    steps.append(Trans(len(steps) - 2, len(steps) - 1))
    return tuple(steps)


# --- lemma tables -------------------------------------------------------------------


def lemma_table(sig: Signature, steps: Sequence[Step]) -> tuple[Lemma, ...]:
    """One lemma per step of `derive`'s, in order, so lemma k is step k: a
    step is coded once however often it is cited, and once if nothing
    cites it, by `_code_rule`, which compiles only the arrows its kernel
    steps carry; the kernel compiles the statements."""
    lemmas: list[Lemma] = []
    for s in steps:
        proof = _code_rule(sig, [steps[i].equation for i in s.premises], s)
        hyp = s.rule.index if isinstance(s.rule, Hypothesis) else None
        lemmas.append(Lemma(s.equation, s.premises, hyp, proof))
    return tuple(lemmas)


# --- certificate algebra ---------------------------------------------------------


def _shift_step(step: KernelStep, ref_map, hyp_shift: int) -> KernelStep:
    if isinstance(step, CiteHyp):
        return CiteHyp(step.hyp + hyp_shift)
    if isinstance(step, Sym):
        return Sym(ref_map(step.of))
    if isinstance(step, Trans):
        return Trans(ref_map(step.first), ref_map(step.second))
    if isinstance(step, ComposeLeft):
        return ComposeLeft(step.arrow, ref_map(step.of))
    if isinstance(step, ComposeRight):
        return ComposeRight(step.arrow, ref_map(step.of))
    if isinstance(step, TupleCong):
        return TupleCong(step.src, tuple(ref_map(i) for i in step.of))
    return step


def product_factorizations(fs: Sequence[Factorization]) -> Factorization:
    """Side-by-side juxtaposition: concatenate everything, shifting the
    hypothesis citations of later factors."""
    hyp: list[EqConstraint] = []
    claim: list[EqConstraint] = []
    wksp: list[EqConstraint] = []
    verif: list[KernelProof] = []
    for f in fs:
        shift = len(hyp)
        hyp.extend(f.hyp)
        claim.extend(f.claim)
        wksp.extend(f.wksp)
        for proof in f.verif:
            verif.append(tuple(_shift_step(s, lambda i: i, shift)
                               for s in proof))
    return Factorization(tuple(hyp), tuple(claim), tuple(wksp),
                         tuple(verif))


def paste_factorizations(f1: Factorization,
                         f2: Factorization) -> Factorization:
    """Chain two certificates whose interface lines up: the first derives
    exactly what the second assumes.  Each hypothesis citation in the second
    certificate's proofs is replaced by the first certificate's proof of the
    matching claim, so the combined proofs run from f1's hypotheses straight
    through to f2's claims."""
    if len(f1.claim) != len(f2.hyp) \
            or not all(map(constraints_equal, f1.claim, f2.hyp)):
        raise DeductionError(
            f"cannot paste: {len(f1.claim)} derived constraints vs "
            f"{len(f2.hyp)} assumed, or a constraint pair differs")
    verif: list[KernelProof] = []
    for proof in f2.verif:
        out: list[KernelStep] = []
        where: dict[int, int] = {}
        for j, step in enumerate(proof):
            if isinstance(step, CiteHyp):
                inlined = f1.verif[step.hyp]
                base = len(out)
                for s in inlined:
                    out.append(_shift_step(s, lambda i: i + base, 0))
                where[j] = len(out) - 1
            else:
                out.append(_shift_step(step, lambda i: where[i], 0))
                where[j] = len(out) - 1
        verif.append(tuple(out))
    return Factorization(f1.hyp, f2.claim,
                         f1.wksp + f1.claim + f2.wksp, tuple(verif))


# --- normal form for deductions ------------------------------------------------------

# entries the levelled form of one deduction may hold
MAX_LEVELLED = 65_536


class LevelStep(Record):
    # premises: indices into the previous level; step: the index of the
    # deduction step the entry stands for, or carries down as a copy
    __slots__ = ("equation", "rule", "premises", "step")


class LevelledDeduction(Record):
    __slots__ = ("levels",)  # a tuple of levels, each a tuple of LevelSteps


def normalize_deduction(steps: Sequence[Step]) -> LevelledDeduction:
    """Levelled form of the last step's deduction: premises sit exactly one
    level below their conclusion (copy steps fill gaps) and every
    intermediate equation feeds exactly one step of the next level (shared
    steps are duplicated).  Its entries are counted before any is built,
    and more than MAX_LEVELLED raise a TermcatError."""
    # natural level: steps without premises at 0, every other step one
    # above its highest premise
    natural: list[int] = []
    for s in steps:
        natural.append(1 + max((natural[i] for i in s.premises), default=-1))

    # how many entries stand for each step, level by level, from the top
    uses, size = {len(steps) - 1: 1}, 0
    for level in range(natural[-1], -1, -1):
        size += sum(uses.values())
        below: dict[int, int] = {}
        for k, n in uses.items():
            for i in (k,) if level > natural[k] else steps[k].premises:
                below[i] = below.get(i, 0) + n
        uses = below
    if size > MAX_LEVELLED:
        raise TermcatError(
            f"the levelled form would have {size} entries, over the limit "
            f"of {MAX_LEVELLED}")

    # top-down, one level at a time: each entry's premises are the next
    # consecutive entries one level down; an entry above its natural level
    # is a copy of the same step one level down
    levels: list[tuple[LevelStep, ...]] = []
    row = [len(steps) - 1]
    for level in range(natural[-1], -1, -1):
        entries, below = [], []
        for k in row:
            s = steps[k]
            if level > natural[k]:
                rule, prem = Copy(), (k,)
            else:
                rule, prem = s.rule, s.premises
            entries.append(LevelStep(s.equation, rule, tuple(
                range(len(below), len(below) + len(prem))), k))
            below.extend(prem)
        levels.append(tuple(entries))
        row = below
    return LevelledDeduction(tuple(reversed(levels)))


def normal_form_violations(ld: LevelledDeduction) -> list[str]:
    """Machine check of the two normal-form properties."""
    problems: list[str] = []
    for s in ld.levels[0]:
        if not isinstance(s.rule, (Hypothesis, Reflexivity)):
            problems.append(f"level 0 contains a {RULE_NAMES[type(s.rule)]} "
                            "step with premises")
        if s.premises:
            problems.append("level 0 step cites premises")
    for l in range(1, len(ld.levels)):
        width_prev = len(ld.levels[l - 1])
        used = [0] * width_prev
        for s in ld.levels[l]:
            want = RULE_ARITY[type(s.rule)]
            if len(s.premises) != want:
                problems.append(f"level {l}: wrong premise count")
            for i in s.premises:
                if not 0 <= i < width_prev:
                    problems.append(f"level {l}: premise index {i} out of "
                                    "range")
                else:
                    used[i] += 1
        for i, n in enumerate(used):
            if n != 1:
                problems.append(f"level {l - 1} entry {i} consumed {n} "
                                "times")
    if len(ld.levels[-1]) != 1:
        problems.append("last level must hold exactly the conclusion")
    return problems


def compile_to_factorization(ld: LevelledDeduction,
                             lemmas: Sequence[Lemma],
                             hypotheses: Sequence[Equation]) -> Factorization:
    """Assemble the levelled deduction into one certificate over the given
    hypothesis list, from `lemmas`, the lemma table of the steps `ld` was
    levelled from.

    Level 0: a hypothesis entry claims the hypothesis it cites and proves it
    by that citation; a reflexivity entry is proved by its step's lemma.
    Each later level is the product of its entries' certificates in order,
    pasted onto the running certificate with its claims reordered to the
    level's consumption order (the associativity re-indexing).  A copy
    entry gives the identity certificate on the claim it carries; any other
    entry its step's lemma proof, from the statements of the lemmas that
    step cites.  Pasting checks them against the claims of the level below
    that the entry consumes, since those claims then become workspace,
    which no replay reads.  Each equation is compiled once.
    """
    bad = normal_form_violations(ld)
    if bad:
        raise DeductionError("deduction is not in normal form: "
                             + "; ".join(bad))
    compiled = functools.cache(equation_constraint)
    hyp = tuple(map(compiled, hypotheses))

    claims, proofs = [], []
    for s in ld.levels[0]:
        claims.append(compiled(s.equation))
        proofs.append((CiteHyp(s.rule.index),)
                      if isinstance(s.rule, Hypothesis)
                      else lemmas[s.step].proof)
    running = Factorization(hyp, tuple(claims), (), tuple(proofs))

    for l in range(1, len(ld.levels)):
        step_certs: list[Factorization] = []
        consumed: list[int] = []
        for s in ld.levels[l]:
            if isinstance(s.rule, Copy):
                i, = s.premises
                _require(s.equation == ld.levels[l - 1][i].equation,
                         "copy must repeat its premise unchanged")
                step_certs.append(identity_factorization((running.claim[i],)))
            else:
                lemma = lemmas[s.step]
                step_certs.append(Factorization(
                    tuple(compiled(lemmas[k].statement) for k in lemma.cites),
                    (compiled(s.equation),), (), (lemma.proof,)))
            consumed.extend(s.premises)
        level_cert = product_factorizations(step_certs)
        reordered = Factorization(
            running.hyp, tuple(running.claim[i] for i in consumed),
            running.wksp, tuple(running.verif[i] for i in consumed))
        running = paste_factorizations(reordered, level_cert)
    return running
