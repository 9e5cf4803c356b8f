"""Substitution of terms for variables, by recursion and by composition.

The recursive route rewrites the expression and the variable set.  The
direct route builds one arrow per substitution instance: projections at
every coordinate except the substituted one, which carries the replacement
term's arrow, all of them one-stage.  The two routes compile to formally
equal arrows; the test suite exercises that equivalence at scale.
"""

from __future__ import annotations

from typing import Mapping

from .arrows import FPArrow, Comp, TupleArrow, context_arrow, one_stage_arrow
from .errors import Record, TermcatError
from .signature import Sort, Variable, ordered_vars
from .terms import App, Expression, Term, applications


class SubstInstance(Record):
    __slots__ = ("target", "var", "replacement")

    def __init__(self, target: Term, var: Variable, replacement: Term):
        if var not in target.vars:
            raise TermcatError(
                f"{var} is not among the target term's variables")
        if replacement.sort != var.sort:
            raise TermcatError(
                f"cannot substitute a term of sort {replacement.sort} "
                f"for {var}")
        Record.__init__(self, target, var, replacement)

    def result_vars(self) -> tuple[Variable, ...]:
        kept = tuple(v for v in self.target.vars if v != self.var)
        return ordered_vars(kept + self.replacement.vars)

    def union_vars(self) -> tuple[Variable, ...]:
        return ordered_vars(self.target.vars + self.replacement.vars)


def subst_expr(e: Expression, x: Variable, u: Expression) -> Expression:
    """Replace every occurrence of `x` in `e` by `u`, rebuilding the
    applications bottom-up, so `e` may be of any depth."""
    if u.sort != x.sort:
        raise TermcatError(
            f"cannot substitute an expression of sort {u.sort} for {x}")
    done: dict[Expression, Expression] = {x: u}
    for a in applications(e):
        done[a] = App(a.op, tuple(done.get(b, b) for b in a.args))
    return done.get(e, e)


def subst_term(inst: SubstInstance) -> Term:
    """The recursive route: rewrite the expression, rewrite the variable set."""
    e = subst_expr(inst.target.expr, inst.var, inst.replacement.expr)
    return Term(e, inst.result_vars(), inst.target.sort)


def substitution_arrow(result: tuple[Variable, ...],
                       union: tuple[Variable, ...], x: Variable,
                       u: Expression) -> TupleArrow:
    """The arrow from the product of the `result` variables to the product
    of the `union` variables, for substituting `u` for `x`.

    Every coordinate is the projection fetching the same variable from the
    result product, except x's coordinate, which is u's one-stage arrow
    over the result variables.  When x is also a result variable (it occurs
    among the replacement's) the two products coincide; otherwise they
    differ in exactly that factor.
    """
    return context_arrow(result, union, {x: one_stage_arrow(u, result)})


def subst_arrow_direct(inst: SubstInstance) -> FPArrow:
    """The composition route: the target's one-stage arrow over the union
    variables, precomposed with the substitution arrow."""
    union = inst.union_vars()
    return Comp(one_stage_arrow(inst.target.expr, union),
                substitution_arrow(inst.result_vars(), union, inst.var,
                                   inst.replacement.expr))


def retyping_arrow(source_vars, target_vars,
                   witnesses: Mapping[Sort, Expression]) -> TupleArrow:
    """Product-of-source-variables to product-of-target-variables.

    Shared variables map by projection.  A target variable missing from the
    source is filled by the one-stage arrow of its sort's closed witness in
    `witnesses`; a concretion's side conditions make sure it holds one.
    """
    source = ordered_vars(source_vars)
    target = ordered_vars(target_vars)
    shared = set(source)
    fill = {v: one_stage_arrow(witnesses[v.sort], source)
            for v in target if v not in shared}
    return context_arrow(source, target, fill)
