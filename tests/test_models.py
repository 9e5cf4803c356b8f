from __future__ import annotations

import itertools
import random

import pytest

from fixtures import binary_signature, unary_signature
from gen import gen_equation, gen_signature, gen_term
from termcat.arrows import term_arrow
from termcat.errors import CarrierOutOfRange
from termcat.models import (FiniteModel, arrows_agree, count_models,
                            enumerate_models, eval_arrow, eval_expression,
                            find_counterexample, find_separating_model,
                            points, random_model, satisfies)
from termcat.terms import make_equation


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
                   if m.sizes[sig.sort("s")] == 2]
    # tables: 2 choices for the constant, 2^4 for the binary operation
    assert len(exactly_two) == 2 * 2 ** 4 == 32
    assert len(all_models) == 33  # plus the single one-element model
    for bound in (1, 2, 3):
        assert count_models(sig, bound) == \
            sum(1 for _ in enumerate_models(sig, bound))


def test_enumeration_is_deterministic():
    sig = unary_signature()
    a = [m.describe() for m in enumerate_models(sig, 2)]
    b = [m.describe() for m in enumerate_models(sig, 2)]
    assert a == b


def test_carrier_guard():
    with pytest.raises(CarrierOutOfRange):
        next(enumerate_models(unary_signature(), 9))
    with pytest.raises(CarrierOutOfRange):
        count_models(unary_signature(), 9)
    for bound in (0, -1):
        with pytest.raises(CarrierOutOfRange):
            next(enumerate_models(unary_signature(), bound))
        with pytest.raises(CarrierOutOfRange):
            count_models(unary_signature(), bound)


def test_eval_expression_against_tables():
    sig = binary_signature()
    s = sig.sort("s")
    model = FiniteModel(sig, {s: 2},
                        {"m": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
                         "c": {(): 1}})
    from termcat.signature import Variable
    from termcat.terms import App, Var
    x = Variable(s, 1)
    e = App(sig.operation("m"), (Var(x), App(sig.operation("c"), ())))
    assert eval_expression(model, e, {x: 0}) == 1
    assert eval_expression(model, e, {x: 1}) == 0


def test_arrow_eval_matches_expression_eval(seed=53):
    """The compiled arrow computes the same function as the expression."""
    rng = random.Random(seed)
    for _ in range(60):
        sig = gen_signature(rng, max_sorts=2, max_ops=3, max_arity=2)
        t = gen_term(rng, sig, depth=3)
        model = random_model(sig, 3, rng)
        arrow = term_arrow(t)
        for values in itertools.product(*(model.carrier(x.sort)
                                          for x in t.vars)):
            env = dict(zip(t.vars, values))
            assert eval_arrow(model, arrow, values) \
                == eval_expression(model, t.expr, env)


def test_equal_normal_forms_agree_in_models(seed=57):
    rng = random.Random(seed)
    sig = binary_signature()
    for _ in range(10):
        t = gen_term(rng, sig, depth=2)
        a = term_arrow(t)
        from termcat.arrows import Comp, Id
        b = Comp(a, Id(a.src))
        for model in enumerate_models(sig, 2):
            assert arrows_agree(model, a, b, a.src)


def test_separating_model_for_projections():
    sig = binary_signature()
    s = sig.sort("s")
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
    s = sig.sort("s")
    from termcat.signature import Variable
    from termcat.terms import App, Var
    x, y = Variable(s, 1), Variable(s, 2)
    bogus = make_equation(App(sig.operation("m"), (Var(x), Var(y))), Var(x),
                          (x, y))
    found = find_counterexample(sig, bogus, 2)
    assert found is not None
    model, env = found
    assert eval_expression(model, bogus.left, env) \
        != eval_expression(model, bogus.right, env)
    # a tautology has no counterexample
    triv = make_equation(Var(x), Var(x), (x,))
    assert find_counterexample(sig, triv, 2) is None


def test_points_shape():
    sig = binary_signature()
    s = sig.sort("s")
    model = next(m for m in enumerate_models(sig, 2)
                 if m.sizes[s] == 2)
    from termcat.arrows import Prod, Leaf, flat_product
    assert list(points(model, Leaf(s))) == [0, 1]
    assert len(list(points(model, flat_product([s, s])))) == 4
    assert list(points(model, Prod(()))) == [()]
