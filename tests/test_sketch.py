from __future__ import annotations

from fixtures import running_signature
from termcat.signature import validate_signature
from termcat.sketch import (ListNode, OpArrow, ProjArrow, SortNode,
                            shared_arity_dedup, sketch_of_signature)


def test_running_signature_sketch():
    sig = running_signature()
    sk = sketch_of_signature(sig)
    sort_nodes = [n for n in sk.nodes if isinstance(n, SortNode)]
    list_nodes = [n for n in sk.nodes if isinstance(n, ListNode)]
    assert [n.sort.name for n in sort_nodes] == ["s1", "s2", "s3", "s4",
                                                 "s5"]
    assert [[s.name for s in n.arity] for n in list_nodes] == \
        [["s1", "s1"], ["s1", "s2", "s2"]]
    ops = [a for a in sk.arrows if isinstance(a, OpArrow)]
    projs = [a for a in sk.arrows if isinstance(a, ProjArrow)]
    assert len(ops) == 2 and len(projs) == 5
    assert len(sk.cones) == 2


def test_constant_gives_empty_cone():
    sig = validate_signature(["s"], [("c", [], "s")])
    sk = sketch_of_signature(sig)
    empty = ListNode(())
    assert empty in sk.nodes
    cone = next(c for c in sk.cones if c.vertex == empty)
    assert cone.legs == ()
    arrow = next(a for a in sk.arrows if isinstance(a, OpArrow))
    assert arrow.source == empty
    assert arrow.target == SortNode(sig.sort_named["s"])


def test_empty_signature():
    sig = validate_signature([], [])
    sk = sketch_of_signature(sig)
    assert sk.nodes == () and sk.arrows == () and sk.cones == ()


def test_shared_arity_dedup():
    sig = validate_signature(["s"], [("m", ["s", "s"], "s"),
                                     ("n", ["s", "s"], "s")])
    assert len(shared_arity_dedup(sig)) == 1

    sig2 = validate_signature(["a", "b", "c"],
                              [("f", ["a", "b"], "c"), ("g", ["b", "a"], "c")])
    assert len(shared_arity_dedup(sig2)) == 2

    assert len(shared_arity_dedup(running_signature())) == 2


def test_cone_per_list_node_and_leg_ownership():
    sig = running_signature()
    sk = sketch_of_signature(sig)
    list_nodes = [n for n in sk.nodes if isinstance(n, ListNode)]
    assert len(sk.cones) == len(list_nodes)
    for cone in sk.cones:
        assert len(cone.legs) == len(cone.vertex.arity)
    projs = [a for a in sk.arrows if isinstance(a, ProjArrow)]
    for p in projs:
        owners = [c for c in sk.cones if p in c.legs]
        assert len(owners) == 1


def test_operation_arrow_endpoints():
    sig = running_signature()
    sk = sketch_of_signature(sig)
    for a in sk.arrows:
        if isinstance(a, OpArrow):
            assert a.source == ListNode(a.op.inputs)
            assert a.target == SortNode(a.op.output)


def test_sketch_deterministic():
    assert sketch_of_signature(running_signature()) == \
        sketch_of_signature(running_signature())
