"""Finite Set-models: the independent semantic oracle.

A model assigns each sort a carrier {0..n-1} and each operation a full
table.  The counterexample search enumerates only the operations and sorts
an equation mentions, and evaluates each side under all assignments at
once, by table lookups; it never consults a normal form, so it serves as an
independent check on the syntactic machinery.  The tests keep a reference
evaluator of expressions and arrows, one assignment or point at a time.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .errors import Record, TermcatError
from .signature import Signature, Sort, Variable
from .terms import Equation, applications, var_set

MAX_CARRIER = 6
# reduct models one counterexample search may visit
MAX_MODELS = 10**6


class FiniteModel(Record):
    """Carrier sizes by sort, and by operation name a table from argument
    tuples to results.  The one record that is not immutable: a search
    builds one per model, and plain assignment fills one fastest."""

    __slots__ = ("sig", "sizes", "tables")
    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, sig: Signature, sizes: dict[Sort, int],
                 tables: dict[str, dict[tuple[int, ...], int]]):
        self.sig = sig
        self.sizes = sizes
        self.tables = tables

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
        raise TermcatError(f"carrier bound {max_size} is below 1")
    if max_size > MAX_CARRIER:
        raise TermcatError(
            f"carrier bound {max_size} exceeds the limit {MAX_CARRIER}")
    for sizes_tuple in itertools.product(range(1, max_size + 1),
                                         repeat=len(sig.sorts)):
        yield dict(zip(sig.sorts, sizes_tuple))


def enumerate_models(sig: Signature, max_size: int) -> Iterator[FiniteModel]:
    """All models whose carriers have between 1 and `max_size` elements.

    Deterministic order: carrier size combinations lexicographically, then
    operation tables lexicographically by output choices.  Each carrier
    size's models come from one product over the table cells (an operation
    and an input point, in declaration order), so only the model being
    yielded is ever built.
    """
    for sizes in _carrier_sizes(sig, max_size):
        domains = list(_table_domains(sig, sizes))
        cells = [range(sizes[op.output]) for op, pts in domains for _ in pts]
        for choice in itertools.product(*cells):
            tables, start = {}, 0
            for op, pts in domains:
                end = start + len(pts)
                tables[op.name] = dict(zip(pts, choice[start:end]))
                start = end
            yield FiniteModel(sig, dict(sizes), tables)


def count_models(sig: Signature, max_size: int) -> int:
    """How many models `enumerate_models` yields, without enumerating them:
    the sum over carrier sizes of the product over operations of
    |output| ** (product of the |input|s)."""
    return sum(math.prod(sizes[op.output]
                         ** math.prod(sizes[s] for s in op.inputs)
                         for op in sig.operations)
               for sizes in _carrier_sizes(sig, max_size))


def _column_program(eq: Equation, occurring: tuple[Variable, ...]):
    """Both sides as one straight-line program over shared slots.

    Slot k < len(occurring) holds the k-th occurring variable; each step
    (operation name, argument slots) fills the next slot, and a repeated
    subexpression, which is one interned node, reuses its slot.  Returns
    the steps and the slots of the two sides."""
    slot: dict = {v: k for k, v in enumerate(occurring)}
    steps: list[tuple[str, tuple[int, ...]]] = []
    for a in applications(eq.left, eq.right):
        slot[a] = len(slot)
        steps.append((a.op.name, tuple(slot[b] for b in a.args)))
    return steps, slot[eq.left], slot[eq.right]


def _run_columns(model: FiniteModel, steps, columns: list[tuple], n: int):
    """Every slot's values under all n assignments at once: a column per
    slot, starting from the variables' `columns`."""
    cols = list(columns)
    for name, args in steps:
        look_up = model.tables[name].__getitem__
        if args:
            cols.append(tuple(map(look_up, zip(*[cols[a] for a in args]))))
        else:
            cols.append((look_up(()),) * n)
    return cols


def find_counterexample(sig: Signature, eq: Equation, max_size: int):
    """First enumerated model (with an assignment) falsifying the equation.

    Only the equation's reduct is searched: the tables of operations it
    does not mention, the sizes of sorts it does not touch and the values
    of variables that do not occur cannot change either side.  So the first
    falsifying reduct model, extended with size 1, all-zero tables and the
    value 0, is the first falsifying model of `enumerate_models(sig)`, and
    its first falsifying assignment is the first in carrier order.  The
    search gives up with a TermcatError after MAX_MODELS reduct models.
    """
    occurring = var_set(eq.left, eq.right)
    steps, left, right = _column_program(eq, occurring)
    # the reduct: the mentioned operations, and the sorts the equation
    # touches; each input sort of a mentioned operation is some argument's
    # sort, so an occurring variable's or a mentioned operation's output
    names = {name for name, _ in steps}
    ops = tuple(op for op in sig.operations if op.name in names)
    touched = {v.sort for v in occurring} | {op.output for op in ops}
    reduct = Signature(tuple(s for s in sig.sorts if s in touched), ops)
    sizes = None
    for visited, model in enumerate(enumerate_models(reduct, max_size)):
        if visited == MAX_MODELS:
            raise TermcatError(
                f"oracle search stopped after {visited} models without a "
                f"counterexample: the equation's operations and sorts have "
                f"{count_models(reduct, max_size)} models with carriers <= "
                f"{max_size}, over the limit of {MAX_MODELS}")
        if model.sizes != sizes:
            sizes = model.sizes
            assignments = list(itertools.product(
                *(range(sizes[v.sort]) for v in occurring)))
            columns = list(zip(*assignments))
        cols = _run_columns(model, steps, columns, len(assignments))
        lhs, rhs = cols[left], cols[right]
        if lhs != rhs:
            first = next(i for i, (a, b) in enumerate(zip(lhs, rhs))
                         if a != b)
            return _extend(sig, eq, model,
                           dict(zip(occurring, assignments[first])))
    return None


def _extend(sig: Signature, eq: Equation, model: FiniteModel,
            env: dict[Variable, int]):
    """A reduct model and assignment, as the first model and assignment of
    the full signature that agree with them."""
    sizes = {s: model.sizes.get(s, 1) for s in sig.sorts}
    tables = {op.name: model.tables.get(op.name) or dict.fromkeys(pts, 0)
              for op, pts in _table_domains(sig, sizes)}
    return (FiniteModel(sig, sizes, tables),
            {v: env.get(v, 0) for v in eq.vars})
