"""The finite-product sketch induced by a signature.

Nodes are the sorts plus the distinct input-sort lists of operations.
Arrows are one generator per operation plus a projection per list position.
Every list node carries exactly one discrete cone whose legs are its
projections; the cone over the empty list has no legs, so its vertex becomes
a terminal object in any model.
"""

from __future__ import annotations

from typing import Union

from .errors import Record
from .signature import Signature, Sort


class SortNode(Record):
    __slots__ = ("sort",)

    def __str__(self) -> str:
        return self.sort.name


class ListNode(Record):
    __slots__ = ("arity",)

    def __str__(self) -> str:
        return "(" + ", ".join(s.name for s in self.arity) + ")"


SketchNode = Union[SortNode, ListNode]


class OpArrow(Record):
    __slots__ = ("op",)

    @property
    def source(self) -> ListNode:
        return ListNode(self.op.inputs)

    @property
    def target(self) -> SortNode:
        return SortNode(self.op.output)

    def __str__(self) -> str:
        return f"{self.op.name}: {self.source} -> {self.target}"


class ProjArrow(Record):
    __slots__ = ("node", "index")  # index: 1-based

    def __init__(self, node: ListNode, index: int):
        if not 1 <= index <= len(node.arity):
            raise ValueError(f"projection index {index} out of range "
                             f"for {node}")
        Record.__init__(self, node, index)

    @property
    def target(self) -> SortNode:
        return SortNode(self.node.arity[self.index - 1])

    def __str__(self) -> str:
        return f"p{self.index}: {self.node} -> {self.target}"


class Cone(Record):
    __slots__ = ("vertex", "legs")


class Sketch(Record):
    __slots__ = ("nodes", "arrows", "cones")


def shared_arity_dedup(sig: Signature) -> dict[tuple[Sort, ...], ListNode]:
    """One list node per distinct input-sort list, in first-occurrence order."""
    out: dict[tuple[Sort, ...], ListNode] = {}
    for op in sig.operations:
        if op.inputs not in out:
            out[op.inputs] = ListNode(op.inputs)
    return out


def sketch_of_signature(sig: Signature) -> Sketch:
    list_nodes = shared_arity_dedup(sig)
    nodes: list[SketchNode] = [SortNode(s) for s in sig.sorts]
    nodes.extend(list_nodes.values())

    arrows: list[Union[OpArrow, ProjArrow]] = [OpArrow(op)
                                               for op in sig.operations]
    cones: list[Cone] = []
    for node in list_nodes.values():
        legs = tuple(ProjArrow(node, i)
                     for i in range(1, len(node.arity) + 1))
        arrows.extend(legs)
        cones.append(Cone(node, legs))
    return Sketch(tuple(nodes), tuple(arrows), tuple(cones))
