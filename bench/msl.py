"""The benchmark's own model of .msl syntax and of finite set-models.

Written apart from `termcat`: the generators build inputs from these
structures, and the checkers judge the program's outputs with them, so no
check ever trusts a value the program computed.

An expression is a tuple: ``("v", sort, num)`` for the variable with
subscript ``num`` of sort index ``sort``, or ``("a", op_name, args)``.
A variable is the pair ``(sort, num)``; the canonical variable order is the
tuple order.  Variable names are canonical too (`var_name`), so a bracket
that lists a sort's variables 1..k in order binds every name to the
variable it is named after, as the .msl format specifies.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

SORT_NAMES = ("s", "t", "u")
OP_NAMES = ("f", "g", "h", "k", "m", "n", "p", "q", "r", "w")
CONST_NAMES = ("a", "b", "c", "d", "e")
PRODUCER_ARITY = 2     # arity of each sort's producer in a random signature
CONST_BIAS = 0.15      # chance that a random leaf is a constant


@dataclass(frozen=True)
class Op:
    name: str
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class Sig:
    sorts: tuple[str, ...]
    ops: tuple[Op, ...]

    def op(self, name: str) -> Op:
        return next(o for o in self.ops if o.name == name)

    def producers(self, sort: int, min_arity: int = 0) -> list[Op]:
        return [o for o in self.ops
                if o.output == sort and len(o.inputs) >= min_arity]

    def constants(self, sort: int) -> list[Op]:
        return [o for o in self.ops if o.output == sort and not o.inputs]

    def text(self) -> str:
        lines = ["sort " + " ".join(self.sorts)]
        for o in self.ops:
            ins = " ".join(self.sorts[i] for i in o.inputs)
            lines.append(f"op {o.name} : {ins}{' ' if ins else ''}-> "
                         f"{self.sorts[o.output]}")
        return "\n".join(lines) + "\n"


def var(sort: int, num: int) -> tuple:
    return ("v", sort, num)


def app(op: str, *args) -> tuple:
    return ("a", op, tuple(args))


def sort_of(sig: Sig, e: tuple) -> int:
    return e[1] if e[0] == "v" else sig.op(e[1]).output


def var_list(e: tuple) -> list[tuple[int, int]]:
    """Variables of `e` left to right, with repetitions (iterative)."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if x[0] == "v":
            out.append((x[1], x[2]))
        else:
            stack.extend(reversed(x[2]))
    return out


def nodes(e: tuple) -> int:
    n, stack = 0, [e]
    while stack:
        x = stack.pop()
        n += 1
        if x[0] == "a":
            stack.extend(x[2])
    return n


def subst(e: tuple, x: tuple[int, int], u: tuple) -> tuple:
    """Replace every occurrence of variable `x` in `e` by `u`."""
    if e[0] == "v":
        return u if (e[1], e[2]) == x else e
    return ("a", e[1], tuple(subst(a, x, u) for a in e[2]))


def var_name(sig: Sig, v: tuple[int, int]) -> str:
    return f"{sig.sorts[v[0]]}{v[1]}"


def bracket(sig: Sig, vs) -> str:
    """Declaration bracket for a variable set; each sort's subscripts must
    be 1..k so that bracket ranks equal the subscripts."""
    vs = sorted(set(vs))
    for s in {v[0] for v in vs}:
        nums = [v[1] for v in vs if v[0] == s]
        if nums != list(range(1, len(nums) + 1)):
            raise ValueError(f"variables of sort {s} are not 1..k: {nums}")
    return "[" + ", ".join(f"{var_name(sig, v)}:{sig.sorts[v[0]]}"
                           for v in vs) + "]"


def contiguous(vs) -> bool:
    vs = set(vs)
    return all((s, n - 1) in vs for s, n in vs if n > 1)


def render(sig: Sig, e: tuple) -> str:
    """.msl source text of an expression."""
    if e[0] == "v":
        return var_name(sig, (e[1], e[2]))
    if not e[2]:
        return e[1]
    return f"{e[1]}({', '.join(render(sig, a) for a in e[2])})"


def show(sig: Sig, e: tuple) -> str:
    """The expression as termcat's text output writes it."""
    if e[0] == "v":
        return f"x{e[2]}:{sig.sorts[e[1]]}"
    if not e[2]:
        return e[1]
    return f"{e[1]}({', '.join(show(sig, a) for a in e[2])})"


def show_equation(sig: Sig, left, right, vs) -> str:
    names = ", ".join(f"x{n}:{sig.sorts[s]}" for s, n in sorted(vs))
    return f"{show(sig, left)} = {show(sig, right)}  [{names}]"


# --- generation --------------------------------------------------------------


def random_signature(rng: random.Random, n_sorts: int,
                     extra_arities=(1, 3)) -> Sig:
    """Every sort gets a constant and a producer of arity PRODUCER_ARITY,
    so every sort is inhabited and expressions of any size exist at every
    sort; then one extra operation per entry of `extra_arities`.  Arities
    are fixed by the caller and only the sorts are random, so the work an
    expression of a given size causes varies little with the seed."""
    sorts = SORT_NAMES[:n_sorts]
    ops: list[Op] = []
    names = iter(OP_NAMES)
    for s in range(n_sorts):
        ops.append(Op(CONST_NAMES[s], (), s))
    for s in range(n_sorts):
        ops.append(Op(next(names), tuple(rng.randrange(n_sorts)
                                         for _ in range(PRODUCER_ARITY)), s))
    for arity in extra_arities:
        ops.append(Op(next(names), tuple(rng.randrange(n_sorts)
                                         for _ in range(arity)),
                      rng.randrange(n_sorts)))
    return Sig(sorts, tuple(ops))


def random_expr(sig: Sig, rng: random.Random, sort: int, size: int,
                vs) -> tuple:
    """A random expression of `sort` with `size` applications of operations
    of arity >= 1 (fewer where a sort has no such producer); leaves are
    variables of `vs` or constants."""
    producers = sig.producers(sort, 1)
    if size == 0 or not producers:
        pool = [v for v in vs if v[0] == sort]
        consts = sig.constants(sort)
        if consts and (not pool or rng.random() < CONST_BIAS):
            return app(rng.choice(consts).name)
        return var(*rng.choice(pool))
    op = rng.choice(producers)
    cuts = sorted(rng.randint(0, size - 1) for _ in range(len(op.inputs) - 1))
    shares = [b - a for a, b in zip([0] + cuts, cuts + [size - 1])]
    return ("a", op.name, tuple(random_expr(sig, rng, s, k, vs)
                                for s, k in zip(op.inputs, shares)))


def var_set(counts) -> list[tuple[int, int]]:
    """Variables 1..counts[s] of every sort s."""
    return [(s, n) for s, k in enumerate(counts) for n in range(1, k + 1)]


# --- finite models -----------------------------------------------------------


@dataclass
class Model:
    sizes: tuple[int, ...]
    tables: dict[str, dict[tuple[int, ...], int]]


def random_model(sig: Sig, rng: random.Random, lo: int = 2,
                 hi: int = 3) -> Model:
    sizes = tuple(rng.randint(lo, hi) for _ in sig.sorts)
    tables = {}
    for o in sig.ops:
        points = itertools.product(*(range(sizes[s]) for s in o.inputs))
        tables[o.name] = {p: rng.randrange(sizes[o.output]) for p in points}
    return Model(sizes, tables)


def evaluate(model: Model, e: tuple, env) -> int:
    if e[0] == "v":
        return env[(e[1], e[2])]
    return model.tables[e[1]][tuple(evaluate(model, a, env) for a in e[2])]


def assignments(model: Model, vs):
    vs = sorted(vs)
    for values in itertools.product(*(range(model.sizes[s]) for s, _ in vs)):
        yield dict(zip(vs, values))


def holds(model: Model, left, right, vs) -> bool:
    return all(evaluate(model, left, env) == evaluate(model, right, env)
               for env in assignments(model, vs))


def random_env(model: Model, rng: random.Random, vs) -> dict:
    return {v: rng.randrange(model.sizes[v[0]]) for v in vs}
