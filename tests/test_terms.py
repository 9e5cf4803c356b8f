from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (binary_signature, input_types, make_equation, make_term,
                      most_concrete_equation, most_concrete_term,
                      raises_exactly, running_signature, type_list, type_set,
                      v)
from gen import gen_expression, gen_signature
from termcat.dsl import parse_spec
from termcat.errors import TermcatError
from termcat.signature import (Operation, Sort, Variable, ordered_vars,
                               validate_signature)
from termcat.terms import App, Equation, Term, var_list, var_set


def worked_expression(sig):
    """f(x1:s1, g(x2:s1, x1:s1), x1:s2)"""
    f, g = sig.operation_named["f"], sig.operation_named["g"]
    return App(f, (v(sig, 1, 1),
                   App(g, (v(sig, 1, 2), v(sig, 1, 1))),
                   v(sig, 2, 1)))


def test_worked_example_lists():
    sig = running_signature()
    e = worked_expression(sig)
    assert var_list(e) == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 1),
                           v(sig, 2, 1))
    assert var_set(e) == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1))
    assert [s.name for s in type_list(e)] == ["s1", "s1", "s1", "s2"]
    assert [s.name for s in type_set(e)] == ["s1", "s2"]


def test_variable_and_constant_lists():
    sig = running_signature()
    x = v(sig, 1, 1)
    assert var_list(x) == (v(sig, 1, 1),)
    assert [s.name for s in type_list(v(sig, 2, 1))] == ["s2"]
    csig = gen_constant_sig()
    c = App(csig.operation_named["c"], ())
    assert var_list(c) == ()
    assert type_list(c) == () and type_set(c) == ()


def gen_constant_sig():
    from termcat.signature import validate_signature
    return validate_signature(["s"], [("c", [], "s")])


def test_sort_mismatch_position():
    sig = running_signature()
    f = sig.operation_named["f"]
    # the message names the first argument of the wrong sort
    with raises_exactly(TermcatError, "argument 2 of f has sort s1, "
                        "expected s2"):
        App(f, (v(sig, 1, 1), v(sig, 1, 1), v(sig, 2, 1)))


def test_make_term_with_redundant_variable():
    sig = running_signature()
    e = worked_expression(sig)
    t = make_term(e, {v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1),
                      v(sig, 4, 3)}, sig.sort_named["s5"])
    assert t.vars == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1), v(sig, 4, 3))


def test_make_term_missing_variables():
    sig = running_signature()
    with raises_exactly(TermcatError, "term omits variables occurring in "
                        f"its expression: {v(sig, 1, 1)}"):
        make_term(v(sig, 1, 1), (), sig.sort_named["s1"])


def test_make_term_type_disagrees():
    sig = running_signature()
    with raises_exactly(TermcatError, "stated sort s2 disagrees with "
                        "expression sort s1"):
        make_term(v(sig, 1, 1), {v(sig, 1, 1)}, sig.sort_named["s2"])


def test_input_types_goldens():
    sig = running_signature()
    e = worked_expression(sig)
    t = make_term(e, {v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1),
                      v(sig, 4, 3)}, sig.sort_named["s5"])
    assert [s.name for s in input_types(t)] == ["s1", "s1", "s2", "s4"]
    t1 = make_term(e, var_set(e), sig.sort_named["s5"])
    assert [s.name for s in input_types(t1)] == ["s1", "s1", "s2"]
    c = App(gen_constant_sig().operation_named["c"], ())
    assert input_types(most_concrete_term(c)) == ()


def test_most_concrete_term():
    sig = running_signature()
    g = sig.operation_named["g"]
    e = App(g, (v(sig, 1, 2), v(sig, 1, 3)))
    t = most_concrete_term(e)
    assert t.vars == (v(sig, 1, 2), v(sig, 1, 3))
    assert t.sort == g.output
    x = v(sig, 1, 1)
    assert most_concrete_term(x) == Term(x, (v(sig, 1, 1),),
                                         sig.sort_named["s1"])


def test_most_concrete_equation():
    sig = running_signature()
    e = worked_expression(sig)
    e2 = App(sig.operation_named["g"], (v(sig, 1, 2), v(sig, 1, 3)))
    # the right side must land in s5 to pair with e; reuse g's output there
    sig2 = running_signature()
    eq = most_concrete_equation(e, App(sig.operation_named["f"], (
        v(sig, 1, 1),
        App(sig.operation_named["g"], (v(sig, 1, 2), v(sig, 1, 3))),
        v(sig, 2, 1))))
    assert eq.vars == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 3),
                       v(sig, 2, 1))
    del sig2, e2


def test_make_equation_cases():
    sig = running_signature()
    with raises_exactly(TermcatError, "equation sides have sorts s1 and s2"):
        make_equation(v(sig, 1, 1), v(sig, 2, 1),
                      {v(sig, 1, 1), v(sig, 2, 1)})
    eq = make_equation(v(sig, 1, 1), v(sig, 1, 1),
                       {v(sig, 1, 1)})
    assert eq.left == eq.right


def test_equation_with_spare_variable():
    # pairing the worked f-expression with a same-sort right side, over the
    # occurring variables plus one spare
    from termcat.signature import validate_signature
    sig = validate_signature(
        ["s1", "s2", "s3", "s4", "s5"],
        [("g", ["s1", "s1"], "s2"), ("f", ["s1", "s2", "s2"], "s5"),
         ("gg", ["s1", "s1"], "s5")])
    e = App(sig.operation_named["f"], (
        v(sig, 1, 1),
        App(sig.operation_named["g"], (v(sig, 1, 2), v(sig, 1, 1))),
        v(sig, 2, 1)))
    right = App(sig.operation_named["gg"], (v(sig, 1, 2), v(sig, 1, 3)))
    eq = make_equation(e, right, var_set(e) + var_set(right)
                       + (v(sig, 3, 1),))
    assert eq.vars == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 3),
                       v(sig, 2, 1), v(sig, 3, 1))


def test_a_deep_expression_prints():
    # the renderer, `errors.text`, keeps its own stack, so a 20,000-deep
    # expression prints at the interpreter's default recursion limit
    sig = validate_signature(["s"], [("i", ["s"], "s"),
                                     ("m", ["s", "s"], "s")])
    i, m = sig.operation_named["i"], sig.operation_named["m"]
    x = Variable(sig.sorts[0], 1)
    e, opened, closed = x, [], []
    for k in range(20000):
        if k % 2:
            e = App(m, (e, x))
            opened.append("m(")
            closed.append(", x1:s)")
        else:
            e = App(i, (e,))
            opened.append("i(")
            closed.append(")")
    assert str(e) == "".join(reversed(opened)) + "x1:s" + "".join(closed)


def test_deep_expressions_and_equations_compare_and_hash():
    # an `App` is interned, so `==` and `hash` on two separately parsed
    # 20,000-deep towers, and on equations with such sides, are identity
    # and succeed at the interpreter's default recursion limit
    d = 20000
    tower = "i(" * d + "x" + ")" * d
    text = (f"sort s\nop i : s -> s\nop c : -> s\n"
            f"eq q [x:s] : {tower} = {tower}\n"
            f"eq r [x:s] : {tower} = c\n")
    one, two = parse_spec(text), parse_spec(text)
    q1, q2 = one.equations["q"], two.equations["q"]
    assert q1.left is q2.left and q1.left is q1.right
    assert q1.left == q2.right and hash(q1.left) == hash(q2.right)
    assert q1 is not q2 and q1 == q2 and hash(q1) == hash(q2)
    r = one.equations["r"]
    assert r.left is q1.left and r != q1 and q1.left != r.right
    assert len({q1, q2, r}) == 2


def test_a_shared_expression_is_walked_once_per_node():
    # 64 nested m(e, e): 64 distinct applications but 2 ** 64 leaf
    # occurrences, so a walk of every occurrence would never finish
    sig = binary_signature()
    s, m = sig.sort_named["s"], sig.operation_named["m"]
    x, y = Variable(s, 1), Variable(s, 2)
    e = x
    for _ in range(64):
        e = App(m, (e, e))
    assert Equation(e, e, (x,)).left is e
    assert Term(e, (x,), s).expr is e
    assert var_set(e) == (x,)
    assert var_set(App(m, (e, y)), e) == (x, y)
    with raises_exactly(TermcatError,
                        "equation omits variables occurring in its sides: "
                        "x1:s"):
        Equation(e, e, ())


def test_var_set_reorders_by_canonical_order():
    sig = running_signature()
    e = App(sig.operation_named["g"], (v(sig, 1, 2), v(sig, 1, 1)))
    assert var_list(e) == (v(sig, 1, 2), v(sig, 1, 1))
    assert var_set(e) == (v(sig, 1, 1), v(sig, 1, 2))


def test_list_invariants_random(seed=3):
    rng = random.Random(seed)
    for _ in range(80):
        sig = gen_signature(rng)
        e = gen_expression(rng, sig, rng.choice(sig.sorts), 3)
        assert len(var_list(e)) == len(type_list(e))
        assert set(type_list(e)) == set(type_set(e))
        assert tuple(x.sort for x in var_list(e)) == type_list(e)


def test_input_types_nondecreasing_random(seed=5):
    rng = random.Random(seed)
    from gen import gen_term
    for _ in range(80):
        sig = gen_signature(rng)
        t = gen_term(rng, sig)
        idx = [s.index for s in input_types(t)]
        assert idx == sorted(idx)


def test_most_concrete_minimizes_by_brute_force(seed=9):
    rng = random.Random(seed)
    for _ in range(40):
        sig = gen_signature(rng)
        e = gen_expression(rng, sig, rng.choice(sig.sorts), 2)
        base = var_set(e)
        pool = base + tuple(Variable(rng.choice(sig.sorts), 9)
                            for _ in range(2))
        best = None
        for r in range(len(pool) + 1):
            for combo in itertools.combinations(set(pool), r):
                try:
                    t = make_term(e, combo, e.sort)
                except Exception:
                    continue
                if best is None or len(t.vars) < len(best.vars):
                    best = t
        assert best is not None
        assert best.vars == most_concrete_term(e).vars


# two sorts share index 0, so two variables can share a key and differ
_SORTS = [Sort(0, "s"), Sort(0, "t"), Sort(1, "u")]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_SORTS), st.integers(0, 3)),
                max_size=5))
def test_canonical_order_check_accepts_what_ordered_vars_keeps(pairs):
    # Term and Equation check the order in one pass; they accept exactly
    # the tuples that `ordered_vars` returns unchanged
    vs = tuple(Variable(s, n) for s, n in pairs)
    e = App(Operation("c", (), _SORTS[0]), ())
    for kind, make in (("term", lambda: Term(e, vs, _SORTS[0])),
                       ("equation", lambda: Equation(e, e, vs))):
        try:
            make()
            accepted = True
        except TermcatError as exc:
            assert str(exc) == \
                f"{kind} variable set is not in canonical order"
            accepted = False
        assert accepted == (vs == ordered_vars(vs))
    with raises_exactly(TermcatError, "term variable set is not in "
                        "canonical order"):
        Term(e, list(ordered_vars(vs)), _SORTS[0])
