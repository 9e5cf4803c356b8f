from __future__ import annotations

import ast
import copy
import gc
import pickle
import random
from collections import Counter
from pathlib import Path as FilePath

import pytest

import fixtures
from fixtures import (bang, embed, make_equation, make_term,
                      most_concrete_term, running_signature, subst_signature,
                      v)
from gen import gen_equation, gen_signature, gen_term
from termcat import arrows, kernel, models
from termcat.arrows import (Comp, Gen, GenApp, Id, Leaf, NormalArrow, NTuple,
                            Path, Prod, Proj, TERMINAL, TupleArrow,
                            apply_arrow, arrows_equal, context_arrow,
                            equation_arrows, flat_product, input_product,
                            normalize, occurrence_arrow, one_stage_arrow,
                            regroup_arrow, term_arrow, term_normal)
from termcat.dsl import parse_spec
from termcat.errors import INTERNED, EndpointMismatch
from termcat.signature import Variable, validate_signature
from termcat.terms import App, var_list, var_set


def worked_term(sig):
    f, g = sig.operation_named["f"], sig.operation_named["g"]
    e = App(f, (v(sig, 1, 1),
                App(g, (v(sig, 1, 2), v(sig, 1, 1))),
                v(sig, 2, 1)))
    return make_term(e, {v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1),
                         v(sig, 4, 3)}, sig.sort_named["s5"])


# --- endpoints ----------------------------------------------------------------


def test_generator_endpoints():
    sig = running_signature()
    f = Gen(sig.operation_named["f"])
    assert f.src == flat_product([sig.sort_named["s1"], sig.sort_named["s2"],
                                  sig.sort_named["s2"]])
    assert f.dst == Leaf(sig.sort_named["s5"])


def test_id_and_proj_endpoints():
    sig = running_signature()
    obj = flat_product([sig.sort_named["s1"], sig.sort_named["s2"]])
    assert Id(obj).src == obj and Id(obj).dst == obj
    p2 = Proj(obj, 2)
    assert p2.dst == Leaf(sig.sort_named["s2"])


def test_composition_identity_law():
    sig = running_signature()
    g = Gen(sig.operation_named["g"])
    assert arrows_equal(Comp(g, Id(g.src)), g)
    assert arrows_equal(Comp(Id(g.dst), g), g)


def test_product_of_arrows_endpoints():
    # the apply stage of f(x, g(x, x), g(x, x)) is f after the product of
    # its arguments' apply arrows, which share the one node of g(x, x)
    sig = running_signature()
    x = v(sig, 1, 1)
    gx = App(sig.operation_named["g"], (x, x))
    pr = apply_arrow(App(sig.operation_named["f"], (x, gx, gx))).before
    s1 = Leaf(sig.sort_named["s1"])
    pair = Prod((s1, s1))
    assert pr.src == Prod((s1, pair, pair))
    assert pr.dst == Prod((s1, Leaf(sig.sort_named["s2"]),
                           Leaf(sig.sort_named["s2"])))
    assert pr.parts[1].after is pr.parts[2].after


def test_tuple_domain_mismatch():
    sig = running_signature()
    s1 = Leaf(sig.sort_named["s1"])
    s2 = Leaf(sig.sort_named["s2"])
    with pytest.raises(EndpointMismatch):
        TupleArrow(s1, (Id(s1), Id(s2)))


def test_compose_mismatch():
    sig = running_signature()
    with pytest.raises(EndpointMismatch):
        Comp(Gen(sig.operation_named["g"]), Gen(sig.operation_named["f"]))


def test_proj_index_out_of_range():
    sig = running_signature()
    obj = flat_product([sig.sort_named["s1"]])
    with pytest.raises(EndpointMismatch):
        Proj(obj, 2)


# --- normalization ------------------------------------------------------------


def test_projection_of_tuple_reduces():
    sig = running_signature()
    s1 = Leaf(sig.sort_named["s1"])
    pair = flat_product([sig.sort_named["s1"], sig.sort_named["s1"]])
    a = Proj(pair, 1)
    b = Proj(pair, 2)
    t = TupleArrow(pair, (a, b))
    assert normalize(Comp(Proj(Prod((s1, s1)), 2), t)) == normalize(b)


def test_identity_of_product_is_tuple_of_paths():
    sig = running_signature()
    obj = flat_product([sig.sort_named["s1"], sig.sort_named["s2"]])
    assert normalize(Id(obj)).body == NTuple((Path((1,)), Path((2,))))


def test_worked_term_normal_form():
    sig = running_signature()
    t = worked_term(sig)
    f, g = sig.operation_named["f"], sig.operation_named["g"]
    assert normalize(term_arrow(t.expr, t.vars)).body == GenApp(
        f, (Path((1,)), GenApp(g, (Path((2,)), Path((1,)))), Path((3,))))


def test_normalize_idempotent_random(seed=21):
    rng = random.Random(seed)
    for _ in range(120):
        sig = gen_signature(rng)
        t = gen_term(rng, sig)
        a = term_arrow(t.expr, t.vars)
        n = normalize(a)
        again = normalize(embed(n))
        assert again == n


def test_arrows_equal_requires_shared_endpoints():
    sig = running_signature()
    s1 = Leaf(sig.sort_named["s1"])
    pair = flat_product([sig.sort_named["s1"], sig.sort_named["s1"]])
    with pytest.raises(EndpointMismatch):
        arrows_equal(Id(s1), Id(pair))
    assert not arrows_equal(Proj(pair, 1), Proj(pair, 2))


def test_arrows_equal_congruence_random(seed=23):
    rng = random.Random(seed)
    for _ in range(60):
        sig = gen_signature(rng)
        base = gen_term(rng, sig, depth=2)
        a = term_arrow(base.expr, base.vars)
        b = Comp(a, Id(a.src))
        c = Comp(Id(a.dst), a)
        # equivalence: refl, sym, trans across the three presentations
        assert arrows_equal(a, a)
        assert arrows_equal(a, b) and arrows_equal(b, a)
        assert arrows_equal(b, c) and arrows_equal(a, c)
        # congruence under tupling and composition on either side
        t1 = TupleArrow(a.src, (a, b))
        t2 = TupleArrow(a.src, (b, a))
        assert arrows_equal(t1, t2)
        consumers = [op for op in sig.operations
                     if op.inputs == (base.sort,)]
        if consumers:
            g = Gen(consumers[0])
            assert arrows_equal(Comp(g, TupleArrow(a.src, (a,))),
                                Comp(g, TupleArrow(a.src, (b,))))


# --- the three stages -----------------------------------------------------------


def test_apply_stage_variable_and_constant():
    sig = running_signature()
    x = v(sig, 1, 1)
    assert apply_arrow(x) == Id(Leaf(sig.sort_named["s1"]))

    csig = validate_signature(["s"], [("c", [], "s")])
    c = App(csig.operation_named["c"], ())
    q = apply_arrow(c)
    # the composite passes through the terminal object
    assert q.src == TERMINAL
    assert isinstance(q, Comp) and q.after.src == TERMINAL
    assert q.before == bang(TERMINAL)
    assert normalize(q).body == GenApp(csig.operation_named["c"], ())


def test_apply_stage_unfolds_once():
    sig = running_signature()
    t = worked_term(sig)
    q = apply_arrow(t.expr)
    assert isinstance(q, Comp)
    assert q.after == Gen(sig.operation_named["f"])
    assert isinstance(q.before, TupleArrow) and len(q.before.parts) == 3
    # the middle slot carries the inner operation, the outer slots are
    # identities over their projections
    mid = q.before.parts[1]
    assert isinstance(mid, Comp) and isinstance(mid.after, Comp)
    assert mid.after.after == Gen(sig.operation_named["g"])
    assert q.before.parts[0].after == Id(Leaf(sig.sort_named["s1"]))


def test_regroup_stage_goldens():
    sig = running_signature()
    t = worked_term(sig)
    i = regroup_arrow(t.expr)
    src = flat_product(s for s in
                       (x.sort for x in var_list(t.expr)))
    assert i == TupleArrow(src, (Proj(src, 1),
                                 TupleArrow(src, (Proj(src, 2),
                                                  Proj(src, 3))),
                                 Proj(src, 4)))
    # a bare variable regroups through the singleton product
    x = v(sig, 1, 1)
    ix = regroup_arrow(x)
    assert ix == Proj(flat_product([sig.sort_named["s1"]]), 1)


def test_regroup_flat_arguments_is_identity():
    sig = subst_signature()
    h = sig.operation_named["h"]
    u = App(h, (v(sig, 2, 1), v(sig, 3, 2)))
    i = regroup_arrow(u)
    assert arrows_equal(i, Id(flat_product([sig.sort_named["s2"],
                                            sig.sort_named["s3"]])))


def test_occurrence_stage_goldens():
    sig = running_signature()
    t = worked_term(sig)
    d = occurrence_arrow(t.expr, t.vars)
    src = input_product(t.vars)
    assert d == TupleArrow(src, (Proj(src, 1), Proj(src, 2), Proj(src, 1),
                                 Proj(src, 3)))

    csig = validate_signature(["s"], [("c", [], "s")])
    closed = most_concrete_term(App(csig.operation_named["c"], ()))
    dc = occurrence_arrow(closed.expr, closed.vars)
    assert dc == bang(TERMINAL)


def test_occurrence_stage_wide_example():
    sig = subst_signature()
    h = sig.operation_named["h"]
    u = App(h, (v(sig, 2, 1), v(sig, 3, 2)))
    W = (v(sig, 1, 1), v(sig, 2, 1), v(sig, 2, 2), v(sig, 2, 3),
         v(sig, 3, 1), v(sig, 3, 2), v(sig, 3, 3))
    d = occurrence_arrow(u, W)
    src = input_product(W)
    assert d == TupleArrow(src, (Proj(src, 2), Proj(src, 6)))


def test_occurrence_triangle_law_random(seed=31):
    rng = random.Random(seed)
    for _ in range(60):
        sig = gen_signature(rng)
        t = gen_term(rng, sig)
        d = occurrence_arrow(t.expr, t.vars)
        occurrences = var_list(t.expr)
        src = input_product(t.vars)
        mid = d.dst
        for i, var in enumerate(occurrences, 1):
            k = t.vars.index(var) + 1
            assert arrows_equal(Comp(Proj(mid, i), d), Proj(src, k))


def test_term_arrow_goldens():
    sig = subst_signature()
    h = sig.operation_named["h"]
    u = App(h, (v(sig, 2, 1), v(sig, 3, 2)))
    W = (v(sig, 1, 1), v(sig, 2, 1), v(sig, 2, 2), v(sig, 2, 3),
         v(sig, 3, 1), v(sig, 3, 2), v(sig, 3, 3))
    n = normalize(term_arrow(u, W))
    assert n.body == GenApp(h, (Path((2,)), Path((6,))))
    # the same expression over the ten-variable union
    big = (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 3), v(sig, 2, 1),
           v(sig, 2, 2), v(sig, 2, 3), v(sig, 3, 1), v(sig, 3, 2),
           v(sig, 3, 3), v(sig, 4, 3))
    assert normalize(term_arrow(u, big)).body == GenApp(h, (Path((4,)),
                                                          Path((8,))))
    # and the raw composite form h . <p2, p6> is formally the same arrow
    src = input_product(W)
    direct = Comp(Gen(h), TupleArrow(src, (Proj(src, 2), Proj(src, 6))))
    assert arrows_equal(term_arrow(u, W), direct)


def test_variable_term_arrow_is_projection():
    sig = running_signature()
    x = v(sig, 1, 1)
    t = most_concrete_term(x)
    a = term_arrow(t.expr, t.vars)
    src = input_product(t.vars)
    assert normalize(a) == normalize(Proj(src, 1))


def test_equation_arrows_share_endpoints():
    sig = running_signature()
    e = worked_term(sig).expr
    # reflexive equation gives the identical pair
    eq = make_equation(e, e, var_set(e))
    l, r = equation_arrows(eq)
    assert normalize(l) == normalize(r)
    # a nontrivial pair shares the input product and the result sort
    sig2 = validate_signature(
        ["s1", "s2", "s3", "s4", "s5"],
        [("g", ["s1", "s1"], "s2"), ("f", ["s1", "s2", "s2"], "s5"),
         ("gg", ["s1", "s1"], "s5")])
    left = App(sig2.operation_named["f"], (
        v(sig2, 1, 1),
        App(sig2.operation_named["g"], (v(sig2, 1, 2), v(sig2, 1, 1))),
        v(sig2, 2, 1)))
    right = App(sig2.operation_named["gg"], (v(sig2, 1, 2),
                                             v(sig2, 1, 3)))
    eq2 = make_equation(left, right, var_set(left) + var_set(right))
    l2, r2 = equation_arrows(eq2)
    s1, s2 = sig2.sort_named["s1"], sig2.sort_named["s2"]
    want_dom = flat_product([s1] * 3 + [s2])
    assert l2.src == r2.src == want_dom
    assert l2.dst == r2.dst == Leaf(sig2.sort_named["s5"])


def test_stages_depend_only_on_expression(seed=37):
    rng = random.Random(seed)
    for _ in range(40):
        sig = gen_signature(rng)
        t = gen_term(rng, sig, extra_vars=2)
        concrete = most_concrete_term(t.expr)
        assert apply_arrow(t.expr) == apply_arrow(concrete.expr)
        assert regroup_arrow(t.expr) == regroup_arrow(concrete.expr)


def test_term_normal_matches_the_three_stages(seed=41):
    # the direct normal form against normalizing the three-stage composite
    rng = random.Random(seed)
    seen = {"unused variable": 0, "constant": 0, "several sorts": 0}
    for _ in range(2000):
        sig = gen_signature(rng)
        t = gen_term(rng, sig, extra_vars=3)
        assert term_normal(t.expr, t.vars) == \
            normalize(term_arrow(t.expr, t.vars))
        seen["unused variable"] += len(set(t.vars)) > len(var_set(t.expr))
        seen["constant"] += any(not op.inputs for op in _ops(t.expr))
        seen["several sorts"] += len({x.sort for x in t.vars}) > 1
    assert min(seen.values()) >= 100, seen


def _hand_built_arrows():
    """Arrows the term compiler does not build: identities on nested
    products, projections onto products, tuples into nested products,
    composites with an identity on either side, products of arrows,
    changes of context, and arrows out of and into the terminal object."""
    sig = validate_signature(["s1", "s2"], [("g", ["s1", "s1"], "s2"),
                                            ("h", ["s2"], "s1"),
                                            ("c", [], "s1")])
    g, h, c = (Gen(sig.operation_named[n]) for n in ("g", "h", "c"))
    s1, s2 = Leaf(sig.sort_named["s1"]), Leaf(sig.sort_named["s2"])
    pair = Prod((s1, s1))
    nested = Prod((Prod((s1, Prod((s2, s1)))), TERMINAL, s2))
    x1, x2 = (Variable(sig.sort_named["s1"], k) for k in (1, 2))
    y1 = Variable(sig.sort_named["s2"], 1)
    xy = Prod((s1, s2))
    inner = TupleArrow(pair, (g, Proj(pair, 1)))
    into_nested = TupleArrow(pair, (TupleArrow(pair, (Proj(pair, 2), inner)),
                                    TupleArrow(pair, ()), g))
    return [
        Id(nested), Id(TERMINAL), Id(s1),
        Proj(nested, 1), Comp(Proj(nested.factors[0], 2), Proj(nested, 1)),
        into_nested, Comp(Proj(nested, 1), into_nested),
        Comp(Id(nested), into_nested), Comp(into_nested, Id(pair)),
        Comp(g, Id(pair)), Comp(Id(s2), g), Comp(Id(pair), Id(pair)),
        _product([g, Id(s1), h, TupleArrow(s1, ())]),
        Comp(_product([Comp(h, TupleArrow(s2, (Id(s2),))), Id(s2)]),
             TupleArrow(pair, (g, Comp(g, TupleArrow(pair, (Proj(pair, 2),
                                                           Proj(pair, 1))))))),
        context_arrow((x1, x2, y1), (y1, x1, x1, x2)),
        context_arrow((x1, y1), (x1, y1),
                      {x1: Comp(h, TupleArrow(xy, (Proj(xy, 2),)))}),
        TupleArrow(nested, ()), c, Comp(c, TupleArrow(nested, ())),
        Comp(TupleArrow(TERMINAL, (c, c)), TupleArrow(pair, ())),
    ]


def _product(fs):
    # f1 x .. x fn as the tuple <f1 . p1, .., fn . pn> on the domain product
    src = Prod(tuple(f.src for f in fs))
    return TupleArrow(src, tuple(Comp(f, Proj(src, i))
                                 for i, f in enumerate(fs, 1)))


def test_normalize_agrees_with_the_substitution_reference(seed=45):
    # evaluation at the identity body against the substitution normalizer
    # of fixtures, on the term compiler's three stages and their composite,
    # the kernel's compiler, and hand-built arrows
    rng = random.Random(seed)
    tally = Counter()
    checked = _hand_built_arrows()
    for _ in range(300):
        sig = gen_signature(rng)
        t = gen_term(rng, sig, depth=4, extra_vars=3)
        checked += (occurrence_arrow(t.expr, t.vars), regroup_arrow(t.expr),
                    apply_arrow(t.expr), term_arrow(t.expr, t.vars),
                    kernel._compile(t.expr, t.vars, {}))
    for a in checked:
        assert normalize(a) == fixtures.substitution_normal(a), a
        tally.update(k.__name__ for k in _kinds(a))
    for kind in ("Id", "Proj", "Gen", "TupleArrow", "Comp"):
        assert tally[kind] >= 300, tally


def test_normal_forms_are_linear_in_the_tower_depth(monkeypatch):
    # every body the evaluator builds is counted; two towers with no node
    # in common, the second twice as deep: a normalizer that re-walks the
    # bodies under each level builds about 3.9 times as many
    built = Counter()
    for name in ("Path", "GenApp", "NTuple"):
        def counted(*fields, _make=getattr(arrows, name), _name=name):
            built[_name] += 1
            return _make(*fields)
        monkeypatch.setattr(arrows, name, counted)
    totals = {}
    for d in (50, 100):
        sig = validate_signature([f"t{d}"], [(f"i{d}", [f"t{d}"], f"t{d}")])
        x = Variable(sig.sorts[0], 1)
        e = x
        for _ in range(d):
            e = App(sig.operations[0], (e,))
        built.clear()
        normalize(term_arrow(e, (x,)))
        assert built["GenApp"] == d, built
        totals[d] = sum(built.values())
    assert totals[100] < 2.1 * totals[50], totals


def test_term_normal_takes_a_deep_tower_and_a_shared_expression():
    # term_normal walks each distinct application once, with no recursion:
    # a 20,000-deep tower at the default recursion limit, and 64 nested
    # m(e, e), 64 nodes but 2 ** 64 leaves, at once
    sig = validate_signature(["s"], [("i", ["s"], "s"),
                                     ("m", ["s", "s"], "s")])
    i, m = sig.operation_named["i"], sig.operation_named["m"]
    x = Variable(sig.sorts[0], 1)
    e = x
    for _ in range(20000):
        e = App(i, (e,))
    n = term_normal(e, (x,))
    assert str(n) == "i(" * 20000 + "p1" + ")" * 20000
    e = x
    for _ in range(64):
        e = App(m, (e, e))
    body = term_normal(e, (x,)).body
    for _ in range(64):
        assert body.op == m and body.args[0] is body.args[1]
        body = body.args[0]
    assert body == Path((1,))


def _ops(e):
    if isinstance(e, Variable):
        return []
    return [e.op] + [op for a in e.args for op in _ops(a)]


# --- text ------------------------------------------------------------------------


def test_text_agrees_with_the_recursive_reference(seed=53):
    # a term's expression, the three stages, their composite, their
    # endpoints and their normal forms and bodies, the direct normal form,
    # and an equation's sides print as the recursive reference prints
    # them; every kind of node is among them
    rng = random.Random(seed)
    kinds = set()
    for _ in range(300):
        sig = gen_signature(rng)
        t = gen_term(rng, sig, depth=4, extra_vars=3)
        eq = gen_equation(rng, sig, depth=3)
        stages = (occurrence_arrow(t.expr, t.vars), regroup_arrow(t.expr),
                  apply_arrow(t.expr), term_arrow(t.expr, t.vars))
        normals = [normalize(a) for a in stages]
        for node in (t.expr, eq.left, eq.right, *stages, *normals,
                     *(n.body for n in normals), *(a.src for a in stages),
                     term_normal(t.expr, t.vars)):
            assert str(node) == fixtures.recursive_text(node)
            kinds |= _kinds(node)
    assert kinds == {Variable, App, Leaf, Prod, Id, Proj, Gen, TupleArrow,
                     Comp, Path, GenApp, NTuple, NormalArrow}


def test_text_of_each_corner_case():
    # 0-ary applications, the empty path, the terminal object, the empty
    # tuple, identities, and products inside products
    sig = validate_signature(["s", "t"], [("c", [], "s"),
                                          ("m", ["s", "t"], "s")])
    s, t = (Leaf(x) for x in sig.sorts)
    c, m = sig.operations
    x, y = Variable(sig.sorts[0], 1), Variable(sig.sorts[1], 2)
    nested = Prod((Prod((s, TERMINAL)), Prod((Prod((t,)),))))
    cases = [
        (App(c, ()), "c"), (App(m, (App(c, ()), y)), "m(c, x2:t)"),
        (x, "x1:s"), (GenApp(c, ()), "c"),
        (GenApp(m, (GenApp(c, ()), Path((2, 1)))), "m(c, p2.1)"),
        (Path(()), "p()"), (TERMINAL, "1"), (nested, "((s x 1) x ((t)))"),
        (TupleArrow(nested, ()), "<>"), (NTuple(()), "<>"),
        (NTuple((NTuple(()), Path(()))), "<<>, p()>"),
        (Id(nested), "id[((s x 1) x ((t)))]"), (Id(TERMINAL), "id[1]"),
        (Comp(Gen(c), TupleArrow(TERMINAL, ())), "c . <>"),
        (normalize(Proj(nested, 1)), "<p1.1, <>>"),
        (normalize(TupleArrow(nested, ())), "<>"),
    ]
    for node, want in cases:
        assert str(node) == want == fixtures.recursive_text(node), want


def _kinds(node) -> set:
    """The kinds of `node` and of every node below it."""
    kinds, todo = set(), [node]
    while todo:
        x = todo.pop()
        kinds.add(type(x))
        if isinstance(x, (App, GenApp)):
            todo += x.args
        elif isinstance(x, Prod):
            todo += x.factors
        elif isinstance(x, (TupleArrow, NTuple)):
            todo += x.parts
        elif isinstance(x, Comp):
            todo += (x.after, x.before)
        elif isinstance(x, Id):
            todo.append(x.obj)
        elif isinstance(x, NormalArrow):
            todo.append(x.body)
    return kinds


def test_text_takes_a_deep_arrow_and_a_deep_normal_form():
    # the renderer keeps its own stack: a 20,000-deep composite and a
    # 20,000-deep normal body print at the default recursion limit
    sig = validate_signature(["s"], [("i", ["s"], "s")])
    i = Gen(sig.operation_named["i"])
    step = TupleArrow(i.src, (i,))  # (s) -> (s)
    a = Id(i.src)
    body = Path((1,))
    for _ in range(20000):
        a = Comp(step, a)
        body = GenApp(i.op, (body,))
    assert str(a) == "<i> . " * 20000 + "id[(s)]"
    assert str(body) == "i(" * 20000 + "p1" + ")" * 20000


# --- equality of normal forms -------------------------------------------------------


def _recursive_eq(a, b) -> bool:
    """Equality of normal forms and bodies by type and fields, by
    recursion: the reference for their explicit-stack `==`."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Path):
        return a.steps == b.steps
    if isinstance(a, GenApp):
        return a.op == b.op and len(a.args) == len(b.args) \
            and all(map(_recursive_eq, a.args, b.args))
    if isinstance(a, NTuple):
        return len(a.parts) == len(b.parts) \
            and all(map(_recursive_eq, a.parts, b.parts))
    return a.src is b.src and a.dst is b.dst \
        and _recursive_eq(a.body, b.body)


def _random_body(rng, ops, depth):
    """A random body, not typed by any signature; equal seeds give equal
    bodies built apart."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return Path(tuple(rng.randint(1, 3)
                          for _ in range(rng.randint(0, 2))))
    if r < 0.7:
        op = rng.choice(ops)
        return GenApp(op, tuple(_random_body(rng, ops, depth - 1)
                                for _ in op.inputs))
    return NTuple(tuple(_random_body(rng, ops, depth - 1)
                        for _ in range(rng.randint(0, 3))))


def _deepest(body) -> list[int]:
    """The child indices down to a deepest node of `body`."""
    best, stack = [], [(body, [])]
    while stack:
        x, at = stack.pop()
        if len(at) > len(best):
            best = at
        kids = x.args if isinstance(x, GenApp) else \
            x.parts if isinstance(x, NTuple) else ()
        stack += [(k, at + [i]) for i, k in enumerate(kids)]
    return best


def _replace(body, at: list[int], new):
    """`body` with the node at `at` replaced by `new`."""
    if not at:
        return new
    i, rest = at[0], at[1:]
    if isinstance(body, GenApp):
        args = list(body.args)
        args[i] = _replace(args[i], rest, new)
        return GenApp(body.op, tuple(args))
    parts = list(body.parts)
    parts[i] = _replace(parts[i], rest, new)
    return NTuple(tuple(parts))


def _unequal_node(rng, ops, x):
    """A body that differs from `x` at its root."""
    while True:
        y = _random_body(rng, ops, 1)
        if not _recursive_eq(x, y):
            return y


def test_normal_equality_agrees_with_the_recursive_reference(seed=59):
    # equal bodies built apart, and bodies that differ at one node: a random
    # one, or a deepest one, the last node a left-to-right walk would reach
    rng = random.Random(seed)
    sig = running_signature()
    ops = list(sig.operations) + [validate_signature(
        ["s1"], [("c", [], "s1")]).operation_named["c"]]
    dom, cod = flat_product(sig.sorts[:2]), Leaf(sig.sorts[0])
    outcomes = Counter()
    for _ in range(400):
        body_seed, depth = rng.random(), rng.randint(0, 8)
        a = _random_body(random.Random(body_seed), ops, depth)
        b = _random_body(random.Random(body_seed), ops, depth)
        at = _deepest(a)
        if rng.random() < 0.5:
            at = at[:rng.randint(0, len(at))]
        c = _replace(a, at, _unequal_node(rng, ops, a))
        for x, y in ((a, b), (a, c), (c, a),
                     (NormalArrow(dom, cod, a), NormalArrow(dom, cod, b)),
                     (NormalArrow(dom, cod, a), NormalArrow(dom, cod, c)),
                     (NormalArrow(dom, cod, a), NormalArrow(cod, cod, b))):
            want = _recursive_eq(x, y)
            assert (x == y) is want and (x != y) is not want
            assert hash(x) == hash(y) or not want
            outcomes[want] += 1
    assert outcomes[True] >= 400 and outcomes[False] >= 1200
    assert (Path((1,)) == (1,)) is False and Path(()) != NTuple(())


def test_equality_takes_two_deep_normal_forms():
    # the comparison keeps its own stack: two 20,000-deep normal forms,
    # built apart, compare at the default recursion limit, equal and not
    sig = validate_signature(["s"], [("i", ["s"], "s"), ("j", ["s"], "s")])
    i, j = sig.operation_named["i"], sig.operation_named["j"]
    x = Variable(sig.sorts[0], 1)
    e = x
    for _ in range(20000):
        e = App(i, (e,))
    a, b = term_normal(e, (x,)), term_normal(e, (x,))
    assert a.body is not b.body and a == b
    body = Path((2,))
    for _ in range(20000):
        body = GenApp(i, (body,))
    assert a != NormalArrow(a.src, a.dst, body)
    top = GenApp(j, (b.body.args[0],))
    assert a != NormalArrow(a.src, a.dst, top)


def test_hash_takes_a_deep_normal_form():
    # each hash reads only its node's own fields: a 20,000-deep normal
    # form and its body hash at the default recursion limit, and equal
    # ones, built apart, alike
    sig = validate_signature(["s"], [("i", ["s"], "s")])
    x = Variable(sig.sorts[0], 1)
    e = x
    for _ in range(20000):
        e = App(sig.operations[0], (e,))
    a, b = term_normal(e, (x,)), term_normal(e, (x,))
    assert a.body is not b.body
    assert hash(a) == hash(b) and hash(a.body) == hash(b.body)
    assert len({a, b, a.body, b.body}) == 2


def test_normalize_takes_a_deep_one_stage_arrow():
    # the evaluator keeps its own stack: a 20,000-deep one-stage arrow
    # normalizes at the default recursion limit, to the normal form
    # term_normal writes, and a second call returns the body it kept
    sig = validate_signature(["s"], [("i", ["s"], "s")])
    x = Variable(sig.sorts[0], 1)
    e = x
    for _ in range(20000):
        e = App(sig.operations[0], (e,))
    a = one_stage_arrow(e, (x,))
    n = normalize(a)
    assert n == term_normal(e, (x,)) and normalize(a).body is n.body


def test_arrows_equal_takes_a_deep_composite():
    # a 20,000-deep composite nested to the right, over an identity, and
    # one nested to the left compare at the default recursion limit, equal
    # and, one step short, not
    sig = validate_signature(["s"], [("i", ["s"], "s")])
    i = Gen(sig.operation_named["i"])
    step = TupleArrow(i.src, (i,))  # (s) -> (s)
    right, left = Id(i.src), step
    for _ in range(19999):
        right, left = Comp(step, right), Comp(left, step)
    assert not arrows_equal(right, left)
    assert arrows_equal(Comp(step, right), left)


# --- hash-consing -----------------------------------------------------------------


def test_same_structure_is_the_same_node():
    sig = running_signature()
    t = worked_term(sig)
    assert term_arrow(t.expr, t.vars) is term_arrow(t.expr, t.vars)
    s1 = sig.sort_named["s1"]
    assert Leaf(s1) is Leaf(running_signature().sort_named["s1"])
    assert flat_product([s1, s1]) is Prod((Leaf(s1), Leaf(s1)))
    g = Gen(sig.operation_named["g"])
    assert Comp(g, Id(g.src)) is Comp(g, Id(flat_product([s1, s1])))
    assert TupleArrow(g.src, [g]) is TupleArrow(g.src, (g,))
    assert Comp(g, Id(g.src)) != g and hash(g) == hash(Gen(g.op))


def test_equal_operations_from_two_parses_share_one_node():
    # sorts and operations hash their value once; equal ones from separate
    # parses, or rebuilt by pickle, hash alike and intern to one node
    text = (FilePath(__file__).resolve().parent.parent / "corpus"
            / "twosorted.msl").read_text(encoding="utf-8")
    one, two = parse_spec(text).signature, parse_spec(text).signature
    for a, b in zip(one.sorts + one.operations, two.sorts + two.operations):
        assert a is not b and a == b and hash(a) == hash(b)
        again = pickle.loads(pickle.dumps(a))
        assert again == a and hash(again) == hash(a)
    for a, b in zip(one.operations, two.operations):
        assert Gen(a) is Gen(b)
    for a, b in zip(one.sorts, two.sorts):
        assert Leaf(a) is Leaf(b)


def test_equation_arrows_are_the_term_arrows_of_the_sides(seed=47):
    rng = random.Random(seed)
    for _ in range(40):
        sig = gen_signature(rng)
        eq = gen_equation(rng, sig)
        # each side is the one-stage node, formally the paper's arrow
        for arrow, e in zip(equation_arrows(eq), (eq.left, eq.right)):
            assert arrow is one_stage_arrow(e, eq.vars)
            assert arrows_equal(arrow, term_arrow(e, eq.vars))


def test_nodes_are_immutable():
    sig = running_signature()
    g = Gen(sig.operation_named["g"])
    s1 = Leaf(sig.sort_named["s1"])
    for node, field in ((g, "op"), (g, "src"), (g, "dst"), (g, "_normal"),
                        (s1, "sort"), (Prod((s1,)), "factors"),
                        (Comp(g, Id(g.src)), "after"),
                        (Proj(g.src, 1), "index")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)


def test_copy_and_pickle_return_the_canonical_node():
    sig = running_signature()
    t = worked_term(sig)
    a = term_arrow(t.expr, t.vars)
    normalize(a)
    for node in (a, a.src, a.dst, TERMINAL, t.expr):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert repr(pickle.loads(pickle.dumps(a))) == repr(a)


def test_intern_table_keeps_no_node_alive(seed=43):
    # expressions, objects and arrows share the table, so the last term
    # must go too
    gc.collect()
    before = len(INTERNED)
    rng = random.Random(seed)
    for _ in range(50):
        sig = gen_signature(rng)
        t = gen_term(rng, sig)
        a = term_arrow(t.expr, t.vars)
        assert arrows_equal(a, embed(normalize(a)))
    assert len(INTERNED) > before
    del sig, t, a
    gc.collect()
    assert len(INTERNED) == before


def test_model_evaluation_never_reads_normal_forms():
    # models and the tests' reference evaluator stay the independent
    # routes: they name neither the memo slot nor anything that normalizes
    assert "_normal" in arrows._Arrow.__slots__
    evaluator = ast.parse(FilePath(fixtures.__file__).read_text(
        encoding="utf-8"))
    defs = [node for node in evaluator.body
            if isinstance(node, ast.FunctionDef)
            and node.name in fixtures.EVALUATOR]
    assert len(defs) == len(fixtures.EVALUATOR)
    for tree in (ast.parse(FilePath(models.__file__).read_text(
            encoding="utf-8")), *defs):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
        assert not names & {"_normal", "_norm", "normalize", "arrows_equal"}
