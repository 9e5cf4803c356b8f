"""Seeded generators for the three workloads.

Each generator turns a seed into .msl files (as text) and a fixed list of
tasks, one per CLI operation.  Sizes are fixed per slot and only the
content is random, so the work per round varies little from seed to seed.
A task carries what the generator knows about the right answer, worked
out with `msl` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import checks
import msl
from msl import Sig, app, var


@dataclass
class Task:
    command: str       # CLI subcommand
    file: str          # file name inside the work directory
    args: list[str]    # subcommand arguments, without the file
    code: int          # expected exit code
    sig: Sig
    data: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        return [self.command, *self.args, path]


@dataclass
class Workload:
    files: dict[str, str]
    tasks: list[Task]


# --- terms -------------------------------------------------------------------

TERM_FILES = 6
TERM_SIZES = (1, 3, 5, 7, 9, 12)     # applications per compiled term
EQ_SIZES = (2, 4, 6, 8, 10, 12)      # applications per equation side
SUBST_SIZES = ((3, 1), (5, 2), (7, 2), (9, 3), (12, 3))  # (target, repl.)
# The deepest towers come three times each, so that p99, which falls
# among their compile ops, rests on many samples.
UNARY_TOWERS = (8, 16, 24, 24, 24)
BINARY_TOWERS = (6, 10, 14, 14, 14)


def _declare_term(sig, name, e, vs) -> str:
    return f"term {name} {msl.bracket(sig, vs)} : {msl.render(sig, e)}\n"


def _declare_eq(sig, name, left, right, vs) -> str:
    return (f"eq {name} {msl.bracket(sig, vs)} : {msl.render(sig, left)} = "
            f"{msl.render(sig, right)}\n")


def _distinct(rng, make, other):
    e = make()
    while e == other:
        e = make()
    return e


def _term_tasks(rng, sig, fname, sizes, eq_sizes, subst_sizes):
    """Declarations and tasks for compile, check-eq and subst on `sig`."""
    n_sorts = len(sig.sorts)
    text, tasks = [], []

    def counts():
        return [2] * n_sorts

    for i, size in enumerate(sizes):
        vs = msl.var_set(counts())
        e = msl.random_expr(sig, rng, rng.randrange(n_sorts), size, vs)
        text.append(_declare_term(sig, f"t{i}", e, vs))
        tasks.append(Task("compile", fname, ["--json", "--term", f"t{i}"], 0,
                          sig, {"expr": e, "vars": vs}))
    for j, size in enumerate(eq_sizes):
        vs = msl.var_set(counts())
        sort = rng.randrange(n_sorts)
        left = msl.random_expr(sig, rng, sort, size, vs)
        right = left if j % 2 == 0 else _distinct(
            rng, lambda: msl.random_expr(sig, rng, sort, size, vs), left)
        text.append(_declare_eq(sig, f"e{j}", left, right, vs))
        tasks.append(Task("check-eq", fname, ["--json", "--equation", f"e{j}"],
                          0 if left == right else 1, sig,
                          {"left": left, "right": right, "vars": vs}))
    for j, (tsize, usize) in enumerate(subst_sizes):
        vt = msl.var_set(counts())
        target = msl.random_expr(sig, rng, rng.randrange(n_sorts), tsize, vt)
        occurring = sorted(set(msl.var_list(target))) or vt
        x = rng.choice(occurring)
        vu = msl.var_set(counts())
        repl = msl.random_expr(sig, rng, x[0], usize, vu)
        text.append(_declare_term(sig, f"st{j}", target, vt))
        text.append(_declare_term(sig, f"su{j}", repl, vu))
        result_vars = sorted((set(vt) - {x}) | set(vu))
        tasks.append(Task(
            "subst", fname,
            ["--json", "--term", f"st{j}", "--var", msl.var_name(sig, x),
             "--with", f"su{j}"], 0, sig,
            {"expr": msl.subst(target, x, repl), "vars": result_vars}))
    return "".join(text), tasks


def _tower_sig() -> Sig:
    ops = (msl.Op("a", (), 0), msl.Op("b", (), 0), msl.Op("i", (0,), 0),
           msl.Op("j", (0,), 0), msl.Op("m", (0, 0), 0),
           msl.Op("n", (0, 0), 0))
    return Sig(("s",), ops)


def _unary_tower(rng, depth) -> tuple:
    e = var(0, 1)
    for _ in range(depth):
        e = app(rng.choice("ij"), e)
    return e


def _binary_tower(rng, depth) -> tuple:
    """Left-nested, so that its size and shape, and with them the cost of
    the tail ops, do not depend on the seed."""
    e = var(0, 1)
    for _ in range(depth):
        leaf = var(0, rng.randint(1, 3)) if rng.random() < 0.8 \
            else app(rng.choice("ab"))
        e = app(rng.choice("mn"), e, leaf)
    return e


def terms(seed: int) -> Workload:
    rng = random.Random(f"terms:{seed}")
    files, tasks = {}, []
    for f in range(TERM_FILES):
        sig = msl.random_signature(rng, 1 + f % 3)
        fname = f"terms{f}.msl"
        text, ts = _term_tasks(rng, sig, fname, TERM_SIZES, EQ_SIZES,
                               SUBST_SIZES)
        files[fname] = sig.text() + text
        tasks.extend(ts)

    sig = _tower_sig()
    vs = msl.var_set([3])
    text = []
    towers = [(f"u{k}", _unary_tower(rng, d))
              for k, d in enumerate(UNARY_TOWERS)] + \
             [(f"b{k}", _binary_tower(rng, d))
              for k, d in enumerate(BINARY_TOWERS)]
    for name, e in towers:
        text.append(_declare_term(sig, name, e, vs))
        tasks.append(Task("compile", "towers.msl",
                          ["--json", "--term", name], 0, sig,
                          {"expr": e, "vars": vs}))
        other = _unary_tower(rng, msl.nodes(e) - 1) if name[0] == "u" \
            else _binary_tower(rng, (msl.nodes(e) - 1) // 2)
        for k, right in enumerate((e, other)):
            eq = f"q{name}_{k}"
            text.append(_declare_eq(sig, eq, e, right, vs))
            tasks.append(Task("check-eq", "towers.msl",
                              ["--json", "--equation", eq],
                              0 if right == e else 1, sig,
                              {"left": e, "right": right, "vars": vs}))
    # substitute a small tower into every occurrence of a tower's x1
    for name, e in towers:
        repl = _unary_tower(rng, 3) if name[0] == "u" \
            else _binary_tower(rng, 2)
        text.append(_declare_term(sig, f"r{name}", repl, vs))
        tasks.append(Task("subst", "towers.msl",
                          ["--json", "--term", name, "--var", "s1",
                           "--with", f"r{name}"], 0, sig,
                          {"expr": msl.subst(e, (0, 1), repl), "vars": vs}))
    files["towers.msl"] = sig.text() + "".join(text)
    return Workload(files, tasks)


# --- proofs ------------------------------------------------------------------

PROOF_FILES = 24
TREE_STEPS = (6, 10)       # spine length of the random six-rule trees
CHAIN_LINKS = (3, 5)       # hypotheses chained by trans, with sym pairs
LONG_CHAIN_STEPS = 100     # steps of the one long chain per round
DAG_FOLDS = 4              # c_k = trans c_{k-1} c_{k-1}, k = 1..folds
MUTATIONS = ("middle", "vars", "occurs", "sort")
MAX_SIDES = 40             # nodes of both sides a tree may grow to
MAX_VARS = 4               # variables a tree may declare at once
HYP_NODES = 5              # nodes of each side of a hypothesis


class ProofBuilder:
    """Writes proof steps and derives each step's conclusion itself.

    A conclusion is (left, right, vars) with vars a sorted tuple.  The
    valid-rule methods assert their side conditions, so a generator bug
    shows at generation time, not as a wrong expected verdict.
    """

    def __init__(self, sig: Sig, hyps: list[tuple]):
        self.sig = sig
        self.hyps = hyps            # (left, right, vars) per hypothesis
        self.lines: list[str] = []
        self.concl: dict[str, tuple] = {}

    def _add(self, body: str, concl) -> str:
        name = f"z{len(self.lines)}"
        self.lines.append(f"  {name} = {body} ;")
        self.concl[name] = concl
        return name

    def hyp(self, i: int) -> str:
        return self._add(f"hyp h{i}", self.hyps[i])

    def refl(self, e, vs) -> str:
        vs = tuple(sorted(vs))
        return self._add(f"refl {msl.bracket(self.sig, vs)} "
                         f"{msl.render(self.sig, e)}", (e, e, vs))

    def sym(self, a: str) -> str:
        l, r, vs = self.concl[a]
        return self._add(f"sym {a}", (r, l, vs))

    def trans(self, a: str, b: str) -> str:
        l1, r1, v1 = self.concl[a]
        l2, r2, v2 = self.concl[b]
        assert r1 == l2 and v1 == v2
        return self._add(f"trans {a} {b}", (l1, r2, v1))

    def abs(self, a: str, sort: int) -> str:
        l, r, vs = self.concl[a]
        num = 1
        while (sort, num) in vs:
            num += 1
        x = (sort, num)
        return self._add(f"abs {a} {msl.var_name(self.sig, x)} : "
                         f"{self.sig.sorts[sort]}",
                         (l, r, tuple(sorted(vs + (x,)))))

    def conc(self, a: str, x) -> str:
        l, r, vs = self.concl[a]
        assert x in vs and x not in msl.var_list(l) + msl.var_list(r)
        return self._add(f"conc {a} {msl.var_name(self.sig, x)}",
                         (l, r, tuple(v for v in vs if v != x)))

    def subst(self, a: str, x, b: str) -> str:
        l1, r1, v1 = self.concl[a]
        l2, r2, v2 = self.concl[b]
        assert x in v1 and msl.sort_of(self.sig, l2) == x[0]
        vs = tuple(sorted((set(v1) - {x}) | set(v2)))
        return self._add(f"subst {a} {msl.var_name(self.sig, x)} {b}",
                         (msl.subst(l1, x, l2), msl.subst(r1, x, r2), vs))

    def raw(self, body: str) -> str:
        """A step the generator does not derive: the mutated last step."""
        return self._add(body, None)

    def removable(self, a: str):
        l, r, vs = self.concl[a]
        used = set(msl.var_list(l)) | set(msl.var_list(r))
        return [v for v in vs if v not in used]


def _hypothesis_chain(rng, sig, model, vs, want):
    """Expressions e0..e_want of sort 0 and HYP_NODES nodes that agree in
    `model` on every assignment of `vs`, so each hypothesis e_{i-1} = e_i
    holds there."""
    by_table: dict[tuple, list] = {}
    envs = list(msl.assignments(model, vs))
    for _ in range(400):
        e = msl.random_expr(sig, rng, 0, 2, vs)
        if msl.nodes(e) != HYP_NODES:
            continue
        key = tuple(msl.evaluate(model, e, env) for env in envs)
        group = by_table.setdefault(key, [])
        if e not in group:
            group.append(e)
    best = max(by_table.values(), key=len)
    if len(best) <= want:
        return None
    rng.shuffle(best)
    return best[:want + 1]


def _proof_signature(rng, two_sorts: bool):
    """A signature, a model with 2-element carriers, and a hypothesis
    chain of 9 equations over [s1, s2] that hold in it."""
    while True:
        sig = msl.random_signature(rng, 2 if two_sorts else 1, (1, 2))
        model = msl.random_model(sig, rng, 2, 2)
        vs = tuple(msl.var_set([2]))
        chain = _hypothesis_chain(rng, sig, model, vs, 9)
        if chain:
            hyps = [(chain[i], chain[i + 1], vs) for i in range(9)]
            return sig, model, hyps


def _next_link(pb: ProofBuilder, c: str):
    """A fresh second premise b with left(b) == right(c), or None."""
    l, r, vs = pb.concl[c]
    for i, (hl, hr, hv) in enumerate(pb.hyps):
        if hv == vs and hl == r:
            return pb.hyp(i)
        if hv == vs and hr == r:
            return pb.sym(pb.hyp(i))
    if msl.contiguous(vs):
        return pb.refl(r, vs)
    return None


def _random_tree(rng, pb: ProofBuilder, steps: int) -> str:
    """A valid proof whose tree uses all six rules; every premise is used
    once, so the tree has no sharing."""
    sig = pb.sig
    plan = ["sym", "trans", "abs", "conc", "subst", "refl"]
    plan += [rng.choice(["sym", "trans", "abs", "conc"])
             for _ in range(steps - len(plan))]
    rng.shuffle(plan)
    c = pb.hyp(rng.randrange(len(pb.hyps)))
    for rule in plan:
        # every variable widens the products the certificate is built over;
        # past MAX_VARS an abs becomes a sym
        if rule == "abs" and len(pb.concl[c][2]) >= MAX_VARS:
            rule = "sym"
        if rule == "sym":
            c = pb.sym(c)
        elif rule == "trans":
            b = _next_link(pb, c)
            c = pb.trans(c, b) if b else pb.sym(c)
        elif rule == "abs":
            c = pb.abs(c, rng.randrange(len(sig.sorts)))
        elif rule == "conc":
            if not pb.removable(c):
                c = pb.abs(c, rng.randrange(len(sig.sorts)))
            c = pb.conc(c, rng.choice(pb.removable(c)))
        else:
            if not pb.concl[c][2]:
                c = pb.abs(c, 0)
            l, r, vs = pb.concl[c]
            used = sorted(set(msl.var_list(l)) | set(msl.var_list(r)))
            x = rng.choice(used or list(vs))
            # a replacement substituted at many occurrences grows the sides
            # fast; past MAX_SIDES nodes it is a variable or a constant
            occurs = (msl.var_list(l) + msl.var_list(r)).count(x)
            room = msl.nodes(l) + msl.nodes(r) + 4 * occurs <= MAX_SIDES
            if rule == "subst" and x[0] == 0 and room:
                b = pb.hyp(rng.randrange(len(pb.hyps)))
            else:
                rv = msl.var_set([1] * len(sig.sorts))
                b = pb.refl(msl.random_expr(sig, rng, x[0],
                                            rng.randint(0, 1) if room else 0,
                                            rv), rv)
            c = pb.subst(c, x, b)
    return c


def _chain(pb: ProofBuilder, links: int) -> str:
    """hyp h0, then per link a sym pair and a trans with the next
    hypothesis."""
    c = pb.hyp(0)
    for k in range(1, links):
        c = pb.trans(pb.sym(pb.sym(c)), pb.hyp(k))
    return c


def _long_chain(pb: ProofBuilder, steps: int) -> str:
    """Links as in `_chain` that walk the hypotheses e0 = e1, ..., e8 = e9
    forward, then back through their `sym`s, and so on, until the proof
    has `steps` steps; each step proves e0 = e_at."""
    c, at, up = pb.hyp(0), 1, True
    while len(pb.lines) < steps:
        if at in (0, len(pb.hyps)):
            up = at == 0
        link = pb.hyp(at) if up else pb.sym(pb.hyp(at - 1))
        c = pb.trans(pb.sym(pb.sym(c)), link)
        at += 1 if up else -1
    return c


def _dag(pb: ProofBuilder, hyp: int, folds: int) -> str:
    a = pb.hyp(hyp)
    c = pb.trans(a, pb.sym(a))
    for _ in range(folds):
        c = pb.trans(c, c)
    return c


def _mutation(rng, pb: ProofBuilder, kind: str) -> None:
    """A valid chain followed by one last step whose side condition fails."""
    sig = pb.sig
    c = _chain(pb, rng.randint(2, 4))
    l, r, vs = pb.concl[c]
    if kind == "sort" and len(sig.sorts) < 2 \
            or kind == "occurs" and not msl.var_list(l) + msl.var_list(r):
        kind = "middle"
    if kind == "middle":
        i = next(i for i, h in enumerate(pb.hyps) if h[0] != r)
        pb.raw(f"trans {c} {pb.hyp(i)}")
    elif kind == "vars":
        # the middle terms agree, but the second premise has one more variable
        b = pb.abs(_next_link(pb, c), 0)
        pb.raw(f"trans {c} {b}")
    elif kind == "occurs":
        x = (msl.var_list(l) + msl.var_list(r))[0]
        pb.raw(f"conc {c} {msl.var_name(sig, x)}")
    else:
        b = pb.refl(app(msl.CONST_NAMES[1]), ())
        pb.raw(f"subst {c} {msl.var_name(sig, vs[0])} {b}")


def _has_var(chain) -> bool:
    return any(msl.var_list(h[0]) or msl.var_list(h[1]) for h in chain)


def proofs(seed: int) -> Workload:
    rng = random.Random(f"proofs:{seed}")
    files, tasks = {}, []
    for f in range(PROOF_FILES):
        sig, model, hyps = _proof_signature(rng, two_sorts=f % 2 == 1)
        while not _has_var(hyps):
            sig, model, hyps = _proof_signature(rng, two_sorts=f % 2 == 1)
        fname = f"proofs{f}.msl"
        text = [sig.text()]
        for i, (l, r, vs) in enumerate(hyps):
            text.append(_declare_eq(sig, f"h{i}", l, r, vs))
        hyp_names = " ".join(f"h{i}" for i in range(len(hyps)))
        proofs_here = []
        for n in TREE_STEPS:
            pb = ProofBuilder(sig, hyps)
            proofs_here.append(("tree", pb, _random_tree(rng, pb, n)))
        for n in CHAIN_LINKS:
            pb = ProofBuilder(sig, hyps)
            proofs_here.append(("chain", pb, _chain(pb, n)))
        if f == 0:
            pb = ProofBuilder(sig, hyps)
            proofs_here.append(("long-chain", pb,
                                _long_chain(pb, LONG_CHAIN_STEPS)))
        pb = ProofBuilder(sig, hyps)
        # the DAG repeats its hypothesis 2^(folds+1) times: take one of
        # middling size, so that the cost varies little with the seed
        by_size = sorted(range(len(hyps)),
                         key=lambda i: msl.nodes(hyps[i][0])
                         + msl.nodes(hyps[i][1]))
        proofs_here.append(("dag", pb, _dag(pb, by_size[len(hyps) // 2],
                                            DAG_FOLDS)))
        kind = MUTATIONS[f % len(MUTATIONS)]
        pb = ProofBuilder(sig, hyps)
        _mutation(rng, pb, kind)
        proofs_here.append((f"bad-{kind}", pb, None))
        for k, (family, pb, last) in enumerate(proofs_here):
            name = f"p{k}_{family.replace('-', '_')}"
            text.append(f"proof {name} from {hyp_names} {{\n"
                        + "\n".join(pb.lines) + "\n}\n")
            data = {"proof": name, "family": family, "model": model,
                    "conclusion": pb.concl[last] if last else None}
            tasks.append(Task("check-proof", fname, ["--proof", name],
                              0 if last else 1, sig, data))
        files[fname] = "".join(text)
    return Workload(files, tasks)


# --- oracle ------------------------------------------------------------------

# (sorts, carrier bound, lowest and highest model count) per signature;
# the bands hold one or a few counts, so every seed enumerates about as
# many models per round
ORACLE_SLOTS = ((1, 2, 400, 600), (1, 3, 200, 300), (2, 2, 500, 600),
                (2, 3, 500, 600)) * 3
FAILING_PER_SIGNATURE = 3
EARLY_FAIL = 20            # a failing equation's counterexample is among
                           # the first EARLY_FAIL models that can hold one


def _oracle_signature(rng, n_sorts, bound, lo, hi) -> Sig:
    """An endomorphism f on s (for the periodic law), a constant per sort,
    and random extra operations, drawn until the model count falls in
    [lo, hi]."""
    for _ in range(10_000):
        ops = [msl.Op("f", (0,), 0), msl.Op("a", (), 0)]
        if n_sorts == 2:
            ops.append(msl.Op("b", (), 1))
        for name in "ghk"[:rng.randint(0, 3)]:
            arity = rng.randint(0, 2)
            ops.append(msl.Op(name, tuple(rng.randrange(n_sorts)
                                          for _ in range(arity)),
                              rng.randrange(n_sorts)))
        sig = Sig(msl.SORT_NAMES[:n_sorts], tuple(ops))
        if lo <= checks.model_count(sig, bound) <= hi:
            return sig
    raise RuntimeError(f"no signature with {lo}..{hi} models at bound {bound}")


def _periodic(bound: int) -> tuple:
    """f^(t+p)(x) = f^t(x) holds for every function on a set of at most
    `bound` elements: tails are shorter than t and cycle lengths divide p."""
    t, p = (1, 2) if bound == 2 else (2, 6)
    left = right = var(0, 1)
    for _ in range(t + p):
        left = app("f", left)
    for _ in range(t):
        right = app("f", right)
    return left, right


def oracle(seed: int) -> Workload:
    rng = random.Random(f"oracle:{seed}")
    files, tasks = {}, []
    for f, (n_sorts, bound, lo, hi) in enumerate(ORACLE_SLOTS):
        sig = _oracle_signature(rng, n_sorts, bound, lo, hi)
        vs = msl.var_set([2])
        if (f + f // 4) % 2:   # each kind of slot gets both laws
            eqs = [("periodic", *_periodic(bound))]
        else:
            same = msl.random_expr(sig, rng, 0, 3, vs)
            eqs = [("same", same, same)]
        # The models where s has one element come first and satisfy every
        # equation of sort s.  Failing soon after them makes a failing op
        # cost about the second enumeration, which counts every model.
        limit = checks.model_count(sig, bound, first_carrier=1) + EARLY_FAIL
        for _ in range(10_000):
            if len(eqs) == 1 + FAILING_PER_SIGNATURE:
                break
            left = msl.random_expr(sig, rng, 0, rng.randint(1, 3), vs)
            right = msl.random_expr(sig, rng, 0, rng.randint(0, 3), vs)
            if left != right and checks.counterexample_rank(
                    sig, left, right, vs, bound, limit):
                eqs.append(("fails", left, right))
        else:
            raise RuntimeError("no equation fails early enough")
        fname = f"oracle{f}.msl"
        text = [sig.text()]
        for k, (family, left, right) in enumerate(eqs):
            name = f"q{k}_{family}"
            text.append(_declare_eq(sig, name, left, right, vs))
            tasks.append(Task(
                "oracle", fname,
                ["--json", "--equation", name, "--max-size", str(bound)],
                1 if family == "fails" else 0, sig,
                {"left": left, "right": right, "vars": vs, "bound": bound}))
        files[fname] = "".join(text)
    return Workload(files, tasks)


WORKLOADS = {"terms": terms, "proofs": proofs, "oracle": oracle}
