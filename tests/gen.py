"""Random generators shared by the property and acceptance tests.

Everything takes an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random

from termcat.deduction import (Abstraction, Concretion, Hypothesis,
                               Reflexivity, Step, Substitutivity, Symmetry,
                               Transitivity)
from termcat.signature import (Signature, Sort, Variable, ordered_vars,
                               validate_signature)
from termcat.subst import SubstInstance, subst_expr
from fixtures import make_equation, make_term
from termcat.terms import (App, Equation, Expression, Term, inhabited_sorts,
                           var_set)

SORT_NAMES = ["s1", "s2", "s3", "s4"]
OP_NAMES = ["f", "g", "h", "k", "m", "n"]


def gen_signature(rng: random.Random, max_sorts=4, max_ops=5,
                  max_arity=3, constant_bias=0.3) -> Signature:
    n_sorts = rng.randint(1, max_sorts)
    names = SORT_NAMES[:n_sorts]
    ops = []
    for i in range(rng.randint(1, max_ops)):
        arity = 0 if rng.random() < constant_bias \
            else rng.randint(1, max_arity)
        inputs = [rng.choice(names) for _ in range(arity)]
        ops.append((OP_NAMES[i], inputs, rng.choice(names)))
    return validate_signature(names, ops)


def gen_expression(rng: random.Random, sig: Signature, sort: Sort,
                   depth: int, max_var=3) -> Expression:
    """A random expression of the given sort; variables are always available
    so generation never dead-ends."""
    producers = [op for op in sig.operations if op.output == sort]
    if depth > 0 and producers and rng.random() < 0.7:
        op = rng.choice(producers)
        return App(op, tuple(gen_expression(rng, sig, s, depth - 1, max_var)
                             for s in op.inputs))
    constants = [op for op in producers if not op.inputs]
    if constants and rng.random() < 0.3:
        return App(rng.choice(constants), ())
    return Variable(sort, rng.randint(1, max_var))


def gen_term(rng: random.Random, sig: Signature, depth=3,
             extra_vars=2) -> Term:
    sort = rng.choice(sig.sorts)
    e = gen_expression(rng, sig, sort, depth)
    extra = [Variable(rng.choice(sig.sorts), rng.randint(1, 4))
             for _ in range(rng.randint(0, extra_vars))]
    return make_term(e, var_set(e) + tuple(extra), sort)


def gen_equation(rng: random.Random, sig: Signature, depth=3,
                 extra_vars=2) -> Equation:
    sort = rng.choice(sig.sorts)
    left = gen_expression(rng, sig, sort, depth)
    right = gen_expression(rng, sig, sort, depth)
    extra = [Variable(rng.choice(sig.sorts), rng.randint(1, 4))
             for _ in range(rng.randint(0, extra_vars))]
    return make_equation(left, right,
                         var_set(left) + var_set(right) + tuple(extra))


def gen_subst_instance(rng: random.Random, sig: Signature,
                       depth=4) -> SubstInstance:
    target = gen_term(rng, sig, depth)
    while not target.vars:  # a closed term leaves nothing to substitute for
        target = gen_term(rng, sig, depth)
    x = rng.choice(target.vars)
    repl_expr = gen_expression(rng, sig, x.sort, depth)
    extra = [Variable(rng.choice(sig.sorts), rng.randint(1, 4))
             for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.4:
        extra.append(x)  # exercise the equal-width case
    replacement = make_term(repl_expr, var_set(repl_expr) + tuple(extra),
                            x.sort)
    return SubstInstance(target, x, replacement)


def gen_deduction(rng: random.Random, sig: Signature,
                  hypotheses: list[Equation], depth: int
                  ) -> tuple[Step, ...]:
    """A random valid deduction over the hypotheses, as its steps, each
    after the steps it cites; the last is the conclusion, and every other
    step is cited.  Every rule application satisfies its side conditions by
    construction, and a transitivity cites one step twice over: directly
    and through its flip."""
    witnesses = inhabited_sorts(sig)
    steps: list[Step] = []

    def add(eq: Equation, rule, premises: tuple[int, ...] = ()) -> int:
        steps.append(Step(eq, rule, premises))
        return len(steps) - 1

    def leaf() -> Step:
        if hypotheses and rng.random() < 0.7:
            i = rng.randrange(len(hypotheses))
            return Step(hypotheses[i], Hypothesis(i), ())
        t = gen_term(rng, sig, depth=2, extra_vars=1)
        return Step(make_equation(t.expr, t.expr, t.vars), Reflexivity(t), ())

    steps.append(leaf())
    node, budget = 0, depth
    while budget > 0:
        c = steps[node].equation
        choices = ["sym", "trans", "abs"]
        removable = [v for v in c.vars
                     if v not in var_set(c.left) and v not in var_set(c.right)
                     and v.sort in witnesses]
        if removable:
            choices.append("conc")
        if c.vars:
            choices.append("subst")
        kind = rng.choice(choices)
        if kind == "sym":
            node = add(make_equation(c.right, c.left, c.vars), Symmetry(),
                       (node,))
        elif kind == "trans":
            # second premise: the premise's own flip, so the middle matches
            flip = add(make_equation(c.right, c.left, c.vars), Symmetry(),
                       (node,))
            node = add(make_equation(c.left, c.left, c.vars),
                       Transitivity(), (node, flip))
        elif kind == "abs":
            x = Variable(rng.choice(sig.sorts), rng.randint(5, 9))
            if x in c.vars:
                continue
            node = add(make_equation(c.left, c.right, c.vars + (x,)),
                       Abstraction(x), (node,))
        elif kind == "conc":
            x = rng.choice(removable)
            node = add(make_equation(c.left, c.right,
                                     tuple(v for v in c.vars if v != x)),
                       Concretion(x), (node,))
        else:
            x = rng.choice(c.vars)
            prem2 = leaf()
            if prem2.equation.sort != x.sort:
                e2 = gen_expression(rng, sig, x.sort, 2)
                u = make_term(e2, var_set(e2), x.sort)
                prem2 = Step(make_equation(u.expr, u.expr, u.vars),
                             Reflexivity(u), ())
            steps.append(prem2)
            c2 = prem2.equation
            left = subst_expr(c.left, x, c2.left)
            right = subst_expr(c.right, x, c2.right)
            kept = tuple(v for v in c.vars if v != x)
            eq = make_equation(left, right, ordered_vars(kept + c2.vars))
            node = add(eq, Substitutivity(x), (node, len(steps) - 1))
        budget -= 1
    return tuple(steps)
