from __future__ import annotations

import random
import re

import pytest

from fixtures import (make_equation, make_term, raises_exactly,
                      running_signature, subst_signature, v)
from gen import gen_signature, gen_subst_instance, gen_term
from termcat.arrows import term_arrow
from termcat.category import (Comp, GenApp, Path, Proj, arrows_equal,
                              flat_product, normalize)
from termcat.deduction import Concretion, conclude
from termcat.errors import DeductionError, TermcatError
from termcat.signature import validate_signature
from termcat.subst import (SubstInstance, retyping_arrow, subst_arrow_direct,
                           subst_expr, subst_term, substitution_arrow)
from termcat.terms import App, inhabited_sorts, var_set


def arrow_of(inst: SubstInstance):
    """The substitution arrow of an instance."""
    return substitution_arrow(inst.result_vars(), inst.union_vars(),
                              inst.var, inst.replacement.expr)


def paper_arrow(inst: SubstInstance):
    """The paper's construction: the target's three-stage arrow over the
    union variables after the substitution arrow."""
    return Comp(term_arrow(inst.target.expr, inst.union_vars()),
                arrow_of(inst))


def recursive_arrow(inst: SubstInstance):
    """The arrow of the recursive route's term."""
    t = subst_term(inst)
    return term_arrow(t.expr, t.vars)


def wide_instance():
    """The ten-variable substitution example: replace x2:s3 in a wide
    f-expression by h(x1:s2, x2:s3)."""
    sig = subst_signature()
    f, g, h = (sig.operation_named[n] for n in "fgh")
    e = App(f, (v(sig, 1, 1), v(sig, 4, 3), v(sig, 3, 2),
                v(sig, 1, 1),
                App(g, (v(sig, 1, 2), v(sig, 3, 2))),
                v(sig, 2, 1)))
    V = (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 3), v(sig, 2, 1),
         v(sig, 2, 2), v(sig, 3, 1), v(sig, 3, 2), v(sig, 4, 3))
    target = make_term(e, V, sig.sort_named["s5"])
    u = App(h, (v(sig, 2, 1), v(sig, 3, 2)))
    W = (v(sig, 1, 1), v(sig, 2, 1), v(sig, 2, 2), v(sig, 2, 3),
         v(sig, 3, 1), v(sig, 3, 2), v(sig, 3, 3))
    repl = make_term(u, W, sig.sort_named["s3"])
    return sig, SubstInstance(target, v(sig, 3, 2), repl)


def test_subst_expr_base_case():
    sig = running_signature()
    x = v(sig, 1, 1)
    u = v(sig, 1, 2)
    assert subst_expr(x, x, u) == u


def test_subst_expr_simple():
    sig = validate_signature(["s"], [("f", ["s", "s"], "s"),
                                     ("c", [], "s")])
    from termcat.signature import Variable
    x, y = Variable(sig.sort_named["s"], 1), Variable(sig.sort_named["s"], 2)
    c = App(sig.operation_named["c"], ())
    e = App(sig.operation_named["f"], (x, y))
    assert str(subst_expr(e, x, c)) == "f(c, x2:s)"


def test_subst_expr_sort_mismatch():
    sig = running_signature()
    with raises_exactly(TermcatError, "cannot substitute an expression of "
                        "sort s2 for x1:s1"):
        subst_expr(v(sig, 1, 1), v(sig, 1, 1), v(sig, 2, 1))


def test_subst_expr_takes_a_deep_expression():
    # the applications are rebuilt bottom-up with an explicit stack, so a
    # 20,000-deep expression is substituted at the default recursion limit
    sig = validate_signature(["s"], [("c", [], "s"), ("i", ["s"], "s")])
    i, c = sig.operation_named["i"], App(sig.operation_named["c"], ())
    x = v(sig, 1, 1)
    e = x
    for _ in range(20000):
        e = App(i, (e,))
    got = subst_expr(e, x, c)
    for _ in range(20000):
        assert got.op is i
        got, = got.args
    assert got is c


def test_subst_expr_wide_display():
    sig, inst = wide_instance()
    got = subst_expr(inst.target.expr, inst.var, inst.replacement.expr)
    assert str(got) == ("f(x1:s1, x3:s4, h(x1:s2, x2:s3), x1:s1, "
                        "g(x2:s1, h(x1:s2, x2:s3)), x1:s2)")


def test_subst_term_base_case():
    sig = running_signature()
    x = v(sig, 1, 1)
    target = make_term(x, (x, v(sig, 2, 2)), sig.sort_named["s1"])
    repl = make_term(v(sig, 1, 3), (v(sig, 1, 3), v(sig, 3, 1)),
                     sig.sort_named["s1"])
    out = subst_term(SubstInstance(target, x, repl))
    assert out.expr == repl.expr
    assert out.vars == (v(sig, 1, 3), v(sig, 2, 2), v(sig, 3, 1))


def test_subst_term_wide_variable_set():
    sig, inst = wide_instance()
    out = subst_term(inst)
    assert out.vars == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 3),
                        v(sig, 2, 1), v(sig, 2, 2), v(sig, 2, 3),
                        v(sig, 3, 1), v(sig, 3, 2), v(sig, 3, 3),
                        v(sig, 4, 3))


def test_subst_for_absent_variable_rewrites_vars_only():
    sig = running_signature()
    x = v(sig, 1, 1)
    spare = v(sig, 1, 2)
    target = make_term(x, (x, spare), sig.sort_named["s1"])
    repl = make_term(v(sig, 1, 3), (v(sig, 1, 3),), sig.sort_named["s1"])
    out = subst_term(SubstInstance(target, spare, repl))
    assert out.expr == target.expr
    assert out.vars == (x, v(sig, 1, 3))


def test_substitution_arrow_slots():
    sig, inst = wide_instance()
    a = arrow_of(inst)
    body = normalize(a).body
    h = sig.operation_named["h"]
    expected = tuple(Path((i,)) for i in range(1, 11))
    expected = expected[:7] + (GenApp(h, (Path((4,)), Path((8,)))),) \
        + expected[8:]
    assert body.parts == expected


def test_substitution_arrow_square_when_var_shared():
    # the substituted variable occurs in the replacement's variable set, so
    # source and target products have equal width
    sig, inst = wide_instance()
    a = arrow_of(inst)
    assert len(a.src.factors) == 10
    assert inst.var in inst.replacement.vars
    assert len(inst.union_vars()) == 10


def test_self_substitution_is_projection_tuple():
    sig = running_signature()
    x = v(sig, 1, 1)
    target = make_term(App(sig.operation_named["g"], (x, x)),
                       (x,), sig.sort_named["s2"])
    repl = make_term(x, (x,), sig.sort_named["s1"])
    inst = SubstInstance(target, x, repl)
    body = normalize(arrow_of(inst)).body
    assert all(isinstance(p, Path) for p in body.parts)
    assert arrows_equal(recursive_arrow(inst),
                        subst_arrow_direct(inst))


def test_direct_route_base_case():
    sig = running_signature()
    x = v(sig, 1, 1)
    target = make_term(x, (x, v(sig, 2, 2)), sig.sort_named["s1"])
    repl = make_term(v(sig, 1, 3), (v(sig, 1, 3),), sig.sort_named["s1"])
    inst = SubstInstance(target, x, repl)
    direct = subst_arrow_direct(inst)
    over_result = term_arrow(repl.expr, inst.result_vars())
    assert arrows_equal(direct, over_result)


def test_constant_replacement_goes_through_terminal():
    sig = validate_signature(["s"], [("f", ["s", "s"], "s"),
                                     ("c", [], "s")])
    from termcat.signature import Variable
    x, y = Variable(sig.sort_named["s"], 1), Variable(sig.sort_named["s"], 2)
    target = make_term(App(sig.operation_named["f"], (x, y)),
                       (x, y), sig.sort_named["s"])
    repl = make_term(App(sig.operation_named["c"], ()), (),
                     sig.sort_named["s"])
    inst = SubstInstance(target, x, repl)
    body = normalize(arrow_of(inst)).body
    slot = body.parts[0]  # x is the first variable of the union
    assert slot == GenApp(sig.operation_named["c"], ())
    assert arrows_equal(recursive_arrow(inst),
                        subst_arrow_direct(inst))


def test_equivalence_of_the_two_routes_random(seed=41):
    rng = random.Random(seed)
    for _ in range(300):
        sig = gen_signature(rng)
        inst = gen_subst_instance(rng, sig)
        direct = subst_arrow_direct(inst)
        assert arrows_equal(recursive_arrow(inst), direct)
        assert arrows_equal(paper_arrow(inst), direct)


def test_wide_final_identity():
    sig, inst = wide_instance()
    direct = subst_arrow_direct(inst)
    assert arrows_equal(recursive_arrow(inst), direct)
    assert arrows_equal(paper_arrow(inst), direct)


# --- retyping maps -------------------------------------------------------------


def test_retyping_subset_is_pure_projection():
    sig = running_signature()
    source = (v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1))
    target = (v(sig, 1, 2), v(sig, 2, 1))
    r = retyping_arrow(source, target, {})
    assert all(isinstance(p, Proj) for p in r.parts)
    assert [p.index for p in r.parts] == [2, 3]


def test_retyping_abstraction_drop():
    sig = running_signature()
    grown = (v(sig, 1, 1), v(sig, 1, 2))
    r = retyping_arrow(grown, (v(sig, 1, 1),), {})
    assert [p.index for p in r.parts] == [1]


def test_retyping_uninhabited_fill():
    # a variable of a sort without a closed expression has no filler:
    # `conclude` refuses the concretion that would drop it, so the coding
    # never asks retyping_arrow for one
    sig = running_signature()  # no constants anywhere
    x, z = v(sig, 1, 1), v(sig, 3, 1)
    with raises_exactly(DeductionError, "sort s3 is empty; no closed filler "
                        "exists"):
        conclude(sig, Concretion(z), [make_equation(x, x, (x, z))], ())
    with pytest.raises(KeyError):
        retyping_arrow((x,), (x, z), inhabited_sorts(sig))


def test_retyping_fill_uses_witness():
    sig = validate_signature(["s"], [("c", [], "s"),
                                     ("f", ["s"], "s")])
    from termcat.signature import Variable
    x, y = Variable(sig.sort_named["s"], 1), Variable(sig.sort_named["s"], 2)
    r = retyping_arrow((x,), (x, y), inhabited_sorts(sig))
    body = normalize(r).body
    assert body.parts == (Path((1,)), GenApp(sig.operation_named["c"], ()))


def test_retyping_coherence_random(seed=43):
    rng = random.Random(seed)
    from termcat.signature import Variable
    for _ in range(80):
        sig = gen_signature(rng)
        witnesses = inhabited_sorts(sig)
        t = gen_term(rng, sig, depth=2)
        base = var_set(t.expr)
        fillable = [s for s in sig.sorts if s in witnesses]
        extra1 = tuple(Variable(rng.choice(sig.sorts), rng.randint(5, 7))
                       for _ in range(rng.randint(0, 2)))
        v1 = base + extra1
        if fillable:
            extra2 = tuple(Variable(rng.choice(fillable),
                                    rng.randint(5, 7))
                           for _ in range(rng.randint(0, 2)))
        else:
            extra2 = ()
        v2 = base + extra2
        # every variable of v2 is in v1 or fillable, so the map exists
        try:
            r = retyping_arrow(v1, v2, witnesses)
        except DeductionError as exc:
            assert re.fullmatch("sort .* is empty; no closed filler exists",
                                str(exc))
            continue
        t1 = make_term(t.expr, v1, t.sort)
        t2 = make_term(t.expr, v2, t.sort)
        assert arrows_equal(term_arrow(t1.expr, t1.vars),
                            Comp(term_arrow(t2.expr, t2.vars), r))


def test_substitution_arrow_components_commute(seed=47):
    rng = random.Random(seed)
    for _ in range(60):
        sig = gen_signature(rng)
        inst = gen_subst_instance(rng, sig, depth=3)
        a = arrow_of(inst)
        union = inst.union_vars()
        result = inst.result_vars()
        src = flat_product(x.sort for x in result)
        mid = flat_product(x.sort for x in union)
        for j, var in enumerate(union, 1):
            if var == inst.var:
                continue
            k = result.index(var) + 1
            assert arrows_equal(Comp(Proj(mid, j), a), Proj(src, k))
