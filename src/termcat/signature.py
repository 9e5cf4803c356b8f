"""Sorts, operations and variables.

A signature is a finite list of sorts plus operations, each with an
input-sort list (its arity) and an output sort.  Variables are indexed pairs
(sort, subscript) and carry a canonical total order: first by the sort's
declaration index, then by subscript.  Everything downstream (input-type
lists, projection indices) leans on that order being fixed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DuplicateSort, Record, SignatureError


_set = object.__setattr__

# Sorts and operations are hashed on every intern lookup and with every
# equation that holds them, so each computes its value's hash once.  A
# rebuilt copy (pickle, copy) goes through the constructor, since the hash
# of a string differs between processes.


class Sort(Record):
    __slots__ = ("index", "name", "_hash")
    _fields = ("index", "name")  # index: position in the signature's list

    def __init__(self, index: int, name: str):
        _set(self, "index", index)
        _set(self, "name", name)
        _set(self, "_hash", hash((index, name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


class Operation(Record):
    __slots__ = ("name", "inputs", "output", "_hash")
    _fields = ("name", "inputs", "output")

    def __init__(self, name: str, inputs: tuple[Sort, ...], output: Sort):
        _set(self, "name", name)
        _set(self, "inputs", inputs)
        _set(self, "output", output)
        _set(self, "_hash", hash((name, inputs, output)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        inp = " ".join(s.name for s in self.inputs)
        return f"{self.name} : {inp} -> {self.output.name}" if inp else \
            f"{self.name} : -> {self.output.name}"


class Variable(Record):
    __slots__ = ("sort", "num")  # num: 1-based subscript within the sort

    def __init__(self, sort: Sort, num: int):
        _set(self, "sort", sort)
        _set(self, "num", num)

    def __hash__(self) -> int:
        # equal variables have equal sorts, so equal sort indices; hashing
        # the index spares a call to the sort's own hash
        return hash((self.sort.index, self.num))

    def key(self) -> tuple[int, int]:
        return (self.sort.index, self.num)

    def __lt__(self, other: "Variable") -> bool:
        return self.key() < other.key()

    def __str__(self) -> str:
        return f"x{self.num}:{self.sort.name}"

    _spelling = __str__  # for `errors.text`


def ordered_vars(vs: Iterable[Variable]) -> tuple[Variable, ...]:
    """Duplicate-free tuple in the canonical (sort index, subscript) order."""
    by_key = {v.key(): v for v in vs}
    return tuple(by_key[k] for k in sorted(by_key))


class Signature(Record):
    __slots__ = ("sorts", "operations", "sort_named", "operation_named")
    _fields = ("sorts", "operations")

    def __init__(self, sorts: tuple[Sort, ...],
                 operations: tuple[Operation, ...]):
        _set(self, "sorts", sorts)
        _set(self, "operations", operations)
        # name lookups, built once; the first declaration of a name wins
        _set(self, "sort_named", {s.name: s for s in reversed(sorts)})
        _set(self, "operation_named",
             {op.name: op for op in reversed(operations)})


def validate_signature(
    sort_names: Sequence[str],
    op_decls: Sequence[tuple[str, Sequence[str], str]],
) -> Signature:
    """Build a signature from raw names, enforcing the uniqueness rules.

    `op_decls` entries are (name, input sort names, output sort name).
    """
    seen: set[str] = set()
    sorts: list[Sort] = []
    for i, name in enumerate(sort_names):
        if name in seen:
            raise DuplicateSort(f"sort {name!r} declared twice", i)
        seen.add(name)
        sorts.append(Sort(i, name))
    by_name = {s.name: s for s in sorts}

    ops: list[Operation] = []
    op_seen: set[str] = set()
    for i, (name, inputs, output) in enumerate(op_decls):
        if name in op_seen:
            raise SignatureError(f"operation {name!r} declared twice", i)
        op_seen.add(name)
        for sn in tuple(inputs) + (output,):
            if sn not in by_name:
                raise SignatureError(
                    f"operation {name!r} mentions unknown sort {sn!r}", i)
        ops.append(Operation(name, tuple(by_name[sn] for sn in inputs),
                             by_name[output]))
    return Signature(tuple(sorts), tuple(ops))
