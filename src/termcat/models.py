"""Finite Set-models: the independent semantic oracle.

A model assigns each sort a carrier {0..n-1} and each operation a full
table.  Expressions are evaluated under variable assignments; arrows are
evaluated pointwise by interpreting products as tuples and generators as
table lookups.  Neither evaluation route consults the normal form, so model
evaluation serves as an independent check on the syntactic machinery.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .arrows import FPArrow, FPObject, Gen, Id, Leaf, Proj, TupleArrow
from .errors import CarrierOutOfRange
from .signature import Operation, Signature, Sort, Variable
from .terms import Equation, Expression, Var

MAX_CARRIER = 6


@dataclass
class FiniteModel:
    sig: Signature
    sizes: dict[Sort, int]
    tables: dict[str, dict[tuple[int, ...], int]]

    def carrier(self, sort: Sort) -> range:
        return range(self.sizes[sort])

    def apply(self, op: Operation, args: tuple[int, ...]) -> int:
        return self.tables[op.name][args]

    def describe(self) -> dict:
        return {
            "carriers": {s.name: self.sizes[s] for s in self.sig.sorts},
            "tables": {
                name: {",".join(map(str, k)): v
                       for k, v in sorted(table.items())}
                for name, table in sorted(self.tables.items())
            },
        }


def _table_domains(sig: Signature, sizes: dict[Sort, int]):
    for op in sig.operations:
        points = list(itertools.product(*(range(sizes[s])
                                          for s in op.inputs)))
        yield op, points


def _carrier_sizes(sig: Signature, max_size: int):
    """Every carrier-size assignment with sizes 1..max_size,
    lexicographically."""
    if max_size < 1:
        raise CarrierOutOfRange(f"carrier bound {max_size} is below 1")
    if max_size > MAX_CARRIER:
        raise CarrierOutOfRange(
            f"carrier bound {max_size} exceeds the limit {MAX_CARRIER}")
    for sizes_tuple in itertools.product(range(1, max_size + 1),
                                         repeat=len(sig.sorts)):
        yield dict(zip(sig.sorts, sizes_tuple))


def enumerate_models(sig: Signature, max_size: int) -> Iterator[FiniteModel]:
    """All models whose carriers have between 1 and `max_size` elements.

    Deterministic order: carrier size combinations lexicographically, then
    operation tables lexicographically by output choices.
    """
    for sizes in _carrier_sizes(sig, max_size):
        per_op = []
        for op, points in _table_domains(sig, sizes):
            out = range(sizes[op.output])
            per_op.append([(op.name, dict(zip(points, choice)))
                           for choice in itertools.product(out,
                                                           repeat=len(points))])
        for combo in itertools.product(*per_op):
            yield FiniteModel(sig, dict(sizes), dict(combo))


def count_models(sig: Signature, max_size: int) -> int:
    """How many models `enumerate_models` yields, without enumerating them:
    the sum over carrier sizes of the product over operations of
    |output| ** (product of the |input|s)."""
    return sum(math.prod(sizes[op.output]
                         ** math.prod(sizes[s] for s in op.inputs)
                         for op in sig.operations)
               for sizes in _carrier_sizes(sig, max_size))


def random_model(sig: Signature, max_size: int,
                 rng: random.Random) -> FiniteModel:
    sizes = {s: rng.randint(1, max_size) for s in sig.sorts}
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for op, points in _table_domains(sig, sizes):
        tables[op.name] = {p: rng.randrange(sizes[op.output]) for p in points}
    return FiniteModel(sig, sizes, tables)


def eval_expression(model: FiniteModel, e: Expression,
                    env: dict[Variable, int]) -> int:
    if isinstance(e, Var):
        return env[e.var]
    return model.apply(e.op, tuple(eval_expression(model, a, env)
                                   for a in e.args))


def _falsifying_assignment(model: FiniteModel,
                           eq: Equation) -> dict[Variable, int] | None:
    """The first assignment, in carrier order, under which the two sides
    differ; None if the equation holds in the model."""
    carriers = [model.carrier(v.sort) for v in eq.vars]
    for values in itertools.product(*carriers):
        env = dict(zip(eq.vars, values))
        if eval_expression(model, eq.left, env) \
                != eval_expression(model, eq.right, env):
            return env
    return None


def satisfies(model: FiniteModel, eq: Equation) -> bool:
    """True iff the equation holds under every assignment to its variables."""
    return _falsifying_assignment(model, eq) is None


def points(model: FiniteModel, obj: FPObject) -> Iterator:
    """All elements of an object's interpretation: ints at leaves, tuples at
    products."""
    if isinstance(obj, Leaf):
        yield from model.carrier(obj.sort)
    else:
        yield from itertools.product(*(points(model, f)
                                       for f in obj.factors))


def eval_arrow(model: FiniteModel, a: FPArrow, point):
    if isinstance(a, Id):
        return point
    if isinstance(a, Proj):
        return point[a.index - 1]
    if isinstance(a, Gen):
        return model.apply(a.op, tuple(point))
    if isinstance(a, TupleArrow):
        return tuple(eval_arrow(model, p, point) for p in a.parts)
    return eval_arrow(model, a.after, eval_arrow(model, a.before, point))


def arrows_agree(model: FiniteModel, a: FPArrow, b: FPArrow,
                 src: FPObject) -> bool:
    return all(eval_arrow(model, a, pt) == eval_arrow(model, b, pt)
               for pt in points(model, src))


def find_separating_model(sig: Signature, a: FPArrow, b: FPArrow,
                          src: FPObject, max_size: int,
                          rng: random.Random, attempts: int = 4000):
    """Search random models (carriers <= max_size) for one where the two
    arrows disagree at some point.  Returns (model, point) or None."""
    for _ in range(attempts):
        model = random_model(sig, max_size, rng)
        for pt in points(model, src):
            if eval_arrow(model, a, pt) != eval_arrow(model, b, pt):
                return model, pt
    return None


def find_counterexample(sig: Signature, eq: Equation, max_size: int):
    """First enumerated model (with an assignment) falsifying the equation."""
    for model in enumerate_models(sig, max_size):
        env = _falsifying_assignment(model, eq)
        if env is not None:
            return model, env
    return None
