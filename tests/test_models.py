from __future__ import annotations

import itertools
import random
import tracemalloc
from pathlib import Path

from fixtures import (arrows_agree, binary_signature, eval_arrow,
                      eval_expression, find_separating_model, make_equation,
                      points, raises_exactly, random_model, satisfies,
                      unary_signature)
from gen import gen_equation, gen_signature, gen_term
from termcat import models
from termcat.arrows import term_arrow
from termcat.dsl import parse_spec
from termcat.errors import TermcatError
from termcat.models import (FiniteModel, count_models, enumerate_models,
                            find_counterexample)
from termcat.signature import Variable, validate_signature
from termcat.terms import App, Equation, var_list

MONOID = Path(__file__).resolve().parent.parent / "corpus" / "monoid.msl"


def test_one_element_models_satisfy_everything(seed=51):
    rng = random.Random(seed)
    for _ in range(40):
        sig = gen_signature(rng)
        eq = gen_equation(rng, sig)
        model = next(enumerate_models(sig, 1))
        assert all(n == 1 for n in model.sizes.values())
        assert satisfies(model, eq)


def test_model_count_for_binary_signature():
    sig = binary_signature()
    all_models = list(enumerate_models(sig, 2))
    exactly_two = [m for m in all_models
                   if m.sizes[sig.sort_named["s"]] == 2]
    # tables: 2 choices for the constant, 2^4 for the binary operation
    assert len(exactly_two) == 2 * 2 ** 4 == 32
    assert len(all_models) == 33  # plus the single one-element model
    for bound in (1, 2, 3):
        assert count_models(sig, bound) == \
            sum(1 for _ in enumerate_models(sig, bound))
    # the count factors over the groups of sorts that operations connect,
    # here {s}, {t, u} and {w}, which no operation mentions
    grouped = validate_signature(["s", "t", "u", "w"], [
        ("m", ["s", "s"], "s"), ("c", [], "s"), ("g", ["t"], "u"),
        ("k", ["u", "t"], "u")])
    assert count_models(grouped, 2) == 33 * 74 * 2 == \
        sum(1 for _ in enumerate_models(grouped, 2))


def test_enumeration_is_deterministic():
    sig = unary_signature()
    a = [m.describe() for m in enumerate_models(sig, 2)]
    b = [m.describe() for m in enumerate_models(sig, 2)]
    assert a == b


def test_carrier_guard():
    with raises_exactly(TermcatError, "carrier bound 9 exceeds the limit 6"):
        next(enumerate_models(unary_signature(), 9))
    with raises_exactly(TermcatError, "carrier bound 9 exceeds the limit 6"):
        count_models(unary_signature(), 9)
    for bound in (0, -1):
        below = f"carrier bound {bound} is below 1"
        with raises_exactly(TermcatError, below):
            next(enumerate_models(unary_signature(), bound))
        with raises_exactly(TermcatError, below):
            count_models(unary_signature(), bound)


def test_eval_expression_against_tables():
    sig = binary_signature()
    s = sig.sort_named["s"]
    model = FiniteModel(sig, {s: 2},
                        {"m": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
                         "c": {(): 1}})
    from termcat.signature import Variable
    from termcat.terms import App
    x = Variable(s, 1)
    e = App(sig.operation_named["m"], (x, App(sig.operation_named["c"], ())))
    assert eval_expression(model, e, {x: 0}) == 1
    assert eval_expression(model, e, {x: 1}) == 0


def test_arrow_eval_matches_expression_eval(seed=53):
    """The compiled arrow computes the same function as the expression."""
    rng = random.Random(seed)
    for _ in range(60):
        sig = gen_signature(rng, max_sorts=2, max_ops=3, max_arity=2)
        t = gen_term(rng, sig, depth=3)
        model = random_model(sig, 3, rng)
        arrow = term_arrow(t.expr, t.vars)
        for values in itertools.product(*(range(model.sizes[x.sort])
                                          for x in t.vars)):
            env = dict(zip(t.vars, values))
            assert eval_arrow(model, arrow, values) \
                == eval_expression(model, t.expr, env)


def test_equal_normal_forms_agree_in_models(seed=57):
    rng = random.Random(seed)
    sig = binary_signature()
    for _ in range(10):
        t = gen_term(rng, sig, depth=2)
        a = term_arrow(t.expr, t.vars)
        from termcat.arrows import Comp, Id
        b = Comp(a, Id(a.src))
        for model in enumerate_models(sig, 2):
            assert arrows_agree(model, a, b, a.src)


def test_separating_model_for_projections():
    sig = binary_signature()
    s = sig.sort_named["s"]
    from termcat.arrows import Proj, flat_product
    pair = flat_product([s, s])
    found = find_separating_model(sig, Proj(pair, 1), Proj(pair, 2), pair,
                                  2, random.Random(3), attempts=50)
    assert found is not None
    model, point = found
    assert eval_arrow(model, Proj(pair, 1), point) \
        != eval_arrow(model, Proj(pair, 2), point)


def test_counterexample_search():
    sig = binary_signature()
    s = sig.sort_named["s"]
    from termcat.signature import Variable
    from termcat.terms import App
    x, y = Variable(s, 1), Variable(s, 2)
    bogus = make_equation(App(sig.operation_named["m"], (x, y)), x,
                          (x, y))
    found = find_counterexample(sig, bogus, 2)
    assert found is not None
    model, env = found
    assert eval_expression(model, bogus.left, env) \
        != eval_expression(model, bogus.right, env)
    # a tautology has no counterexample
    triv = make_equation(x, x, (x,))
    assert find_counterexample(sig, triv, 2) is None


def test_counterexample_search_walks_a_shared_equation_once():
    # 64 nested m(e, e) have 2 ** 64 variable occurrences, but the search
    # reads each of the 64 distinct nodes once
    sig = binary_signature()
    x = Variable(sig.sort_named["s"], 1)
    e = x
    for _ in range(64):
        e = App(sig.operation_named["m"], (e, e))
    assert find_counterexample(sig, Equation(e, e, (x,)), 2) is None


def test_points_shape():
    sig = binary_signature()
    s = sig.sort_named["s"]
    model = next(m for m in enumerate_models(sig, 2)
                 if m.sizes[s] == 2)
    from termcat.arrows import Prod, Leaf, flat_product
    assert list(points(model, Leaf(s))) == [0, 1]
    assert len(list(points(model, flat_product([s, s])))) == 4
    assert list(points(model, Prod(()))) == [()]


def test_enumeration_holds_one_model_at_a_time():
    # the 34th model is the first with three elements; building every table
    # of m first would make 3 ** 9 dicts before it
    sig = parse_spec(MONOID.read_text(encoding="utf-8")).signature
    s = sig.sort_named["s"]
    tracemalloc.start()
    try:
        model = next(m for m in enumerate_models(sig, 3) if m.sizes[s] == 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.tables["m"] == dict.fromkeys(itertools.product(range(3),
                                                                repeat=2), 0)
    assert peak < 1_000_000


def _reference_counterexample(sig, eq, bound):
    """The first model of the full enumeration that `satisfies` rejects,
    described, with its first falsifying assignment in carrier order."""
    for model in enumerate_models(sig, bound):
        if satisfies(model, eq):
            continue
        for values in itertools.product(*(range(model.sizes[v.sort])
                                          for v in eq.vars)):
            env = dict(zip(eq.vars, values))
            if eval_expression(model, eq.left, env) \
                    != eval_expression(model, eq.right, env):
                return model.describe(), env
    return None


def _subexpressions(e):
    yield e
    if isinstance(e, App):
        for a in e.args:
            yield from _subexpressions(a)


def test_reduct_search_matches_the_full_search(seed=59):
    """The reduct search returns what searching every model of the whole
    signature returns, on equations that leave sorts untouched, operations
    unmentioned and context variables unused."""
    rng = random.Random(seed)
    seen = dict.fromkeys(("holds", "fails", "untouched sort",
                          "unmentioned op", "unused var"), 0)
    while min(seen.values()) < 20 or seen["holds"] + seen["fails"] < 1000:
        sig = gen_signature(rng, max_sorts=3, max_ops=3, max_arity=2)
        eq = gen_equation(rng, sig, depth=2)
        bound = rng.randint(1, 3)
        if count_models(sig, bound) > 2000:
            continue
        found = find_counterexample(sig, eq, bound)
        want = _reference_counterexample(sig, eq, bound)
        got = None if found is None else (found[0].describe(), found[1])
        assert got == want, (sig, eq, bound)
        occurring = set(var_list(eq.left) + var_list(eq.right))
        mentioned = {e.op.name for side in (eq.left, eq.right)
                     for e in _subexpressions(side) if isinstance(e, App)}
        touched = {v.sort for v in occurring} | {
            s for op in sig.operations if op.name in mentioned
            for s in (*op.inputs, op.output)}
        seen["holds" if found is None else "fails"] += 1
        seen["untouched sort"] += len(touched) < len(sig.sorts)
        seen["unmentioned op"] += len(mentioned) < len(sig.operations)
        seen["unused var"] += len(occurring) < len(eq.vars)


def test_search_budget_stops_a_holding_search(monkeypatch):
    sig = binary_signature()
    s = sig.sort_named["s"]
    from termcat.signature import Variable
    x, y = Variable(s, 1), Variable(s, 2)
    m = App(sig.operation_named["m"], (x, y))
    same = make_equation(m, m, (x, y))
    # the reduct is m alone: 1 + 2 ** 4 + 3 ** 9 models at bound 3
    monkeypatch.setattr(models, "MAX_MODELS", 17)
    assert find_counterexample(sig, same, 2) is None
    with raises_exactly(TermcatError, "oracle search stopped after 17 "
                        "models without a counterexample: the equation's "
                        "operations and sorts have 19700 models with "
                        "carriers <= 3, over the limit of 17"):
        find_counterexample(sig, same, 3)
    # the budget is checked while searching: a counterexample found within
    # it is reported whatever the count
    bogus = make_equation(m, x, (x, y))
    assert find_counterexample(sig, bogus, 3) is not None
