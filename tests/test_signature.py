from __future__ import annotations

import random

import pytest

from fixtures import raises_exactly, running_signature, v
from termcat.errors import DuplicateSort, SignatureError
from termcat.signature import Variable, ordered_vars, validate_signature
from termcat.terms import inhabited_sorts, var_set


def test_minimal_signature_valid():
    sig = validate_signature(["s"], [("m", ["s", "s"], "s")])
    assert [s.name for s in sig.sorts] == ["s"]
    assert sig.operation("m").inputs == (sig.sort("s"),) * 2


def test_duplicate_sort_rejected():
    with pytest.raises(DuplicateSort):
        validate_signature(["s", "s"], [])


def test_duplicate_operation_rejected():
    with raises_exactly(SignatureError, "operation 'm' declared twice"):
        validate_signature(["s"], [("m", ["s"], "s"), ("m", [], "s")])


def test_unknown_sort_rejected():
    with raises_exactly(SignatureError, "operation 'm' mentions unknown "
                        "sort 't'"):
        validate_signature(["s"], [("m", ["t"], "s")])


def test_running_signature_arities():
    sig = running_signature()
    g, f = sig.operation("g"), sig.operation("f")
    assert [s.name for s in g.inputs] == ["s1", "s1"]
    assert [s.name for s in f.inputs] == ["s1", "s2", "s2"]
    assert f.output.name == "s5"
    assert [s.index for s in sig.sorts] == [0, 1, 2, 3, 4]


def test_inhabited_constant_case():
    sig = validate_signature(["s"], [("c", [], "s"), ("m", ["s", "s"], "s")])
    wit = inhabited_sorts(sig)
    assert set(wit) == {sig.sort("s")}
    assert str(wit[sig.sort("s")]) == "c"


def test_inhabited_no_base_case():
    sig = validate_signature(["s"], [("m", ["s", "s"], "s")])
    assert inhabited_sorts(sig) == {}


def test_inhabited_fixpoint_chain():
    sig = validate_signature(["a", "b"],
                             [("c", [], "a"), ("f", ["a"], "b"),
                              ("g", ["b"], "a")])
    wit = inhabited_sorts(sig)
    assert set(wit) == {sig.sort("a"), sig.sort("b")}
    assert str(wit[sig.sort("a")]) == "c"
    assert str(wit[sig.sort("b")]) == "f(c)"


def test_witness_ties_broken_by_declaration_order():
    sig = validate_signature(["s"], [("c1", [], "s"), ("c2", [], "s")])
    assert str(inhabited_sorts(sig)[sig.sort("s")]) == "c1"


def test_variable_order_is_strict_total(seed=7):
    rng = random.Random(seed)
    sig = running_signature()
    vs = [Variable(rng.choice(sig.sorts), rng.randint(1, 5))
          for _ in range(60)]
    for a in vs:
        assert not a < a
        for b in vs:
            if a != b:
                assert (a < b) != (b < a)
            for c in vs:
                if a < b and b < c:
                    assert a < c


def test_ordered_vars_sorts_and_dedups():
    sig = running_signature()
    xs = (v(sig, 2, 1), v(sig, 1, 2), v(sig, 1, 1), v(sig, 2, 1))
    assert ordered_vars(xs) == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1))


def test_inhabited_monotone_under_more_operations(seed=11):
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    for _ in range(60):
        ops = []
        for i in range(rng.randint(0, 5)):
            arity = rng.randint(0, 2)
            ops.append((f"f{i}", [rng.choice(names) for _ in range(arity)],
                        rng.choice(names)))
        extra = ops + [("extra", [rng.choice(names)
                                  for _ in range(rng.randint(0, 2))],
                        rng.choice(names))]
        small = inhabited_sorts(validate_signature(names, ops))
        big = inhabited_sorts(validate_signature(names, extra))
        assert {s.name for s in small} <= {s.name for s in big}


def test_witnesses_are_closed_and_well_sorted(seed=13):
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    for _ in range(60):
        ops = []
        for i in range(rng.randint(1, 6)):
            arity = rng.randint(0, 3)
            ops.append((f"f{i}", [rng.choice(names) for _ in range(arity)],
                        rng.choice(names)))
        sig = validate_signature(names, ops)
        for sort, expr in inhabited_sorts(sig).items():
            assert expr.sort == sort
            assert var_set(expr) == ()
