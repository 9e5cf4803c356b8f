"""The term compilers, from expressions to the arrows of the free
finite-product category in `category`.

The paper's term compiler is `term_arrow(e, vs)`: the arrow of an
expression `e` over the product of a variable context `vs`, which holds
every variable of `e`.  It is a three-stage composite, which only
`compile` prints:

  occurrence_arrow  sends the product of `vs` onto the list of `e`'s
                    variable occurrences (a tuple of projections);
  regroup_arrow     reassociates that flat product into the nested shape of
                    the expression's argument tree (a tuple of paths);
  apply_arrow       applies the operations (generators over products).

Straight from the expression, one node per distinct application,
`term_normal(e, vs)` writes its normal form and `one_stage_arrow(e, vs)`
the one-stage arrow that every certificate carries (`equation_arrows`
pairs an equation's sides), the node the kernel compiles; the test suite
checks that all agree.

`context_arrow` builds every change of variable context: the occurrence
arrow, retyping, the substitution arrow and the substitutivity coding.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .category import (Comp, FPArrow, Gen, GenApp, Id, Leaf, NormalArrow,
                       Path, Prod, Proj, TupleArrow, flat_product)
# kept for the benchmark's tracer, which wraps them here (ROADMAP item 1)
from .category import arrows_equal, normalize  # noqa: F401
from .signature import Variable
from .terms import App, Equation, Expression, applications, var_list


# --- the term compiler ----------------------------------------------------------


def input_product(vs: Sequence[Variable]) -> Prod:
    return flat_product(v.sort for v in vs)


def context_arrow(source: Sequence[Variable], targets: Iterable[Variable],
                  fill: Mapping[Variable, FPArrow] | None = None
                  ) -> TupleArrow:
    """The change of variable context from the product of `source` to the
    product of `targets`: each target is its projection, unless `fill` maps
    it to an arrow over the source product (even if it is a source too)."""
    src = flat_product(v.sort for v in source)
    position = {v: k for k, v in enumerate(source, 1)}
    fill = fill or {}
    return TupleArrow(src, tuple(fill[v] if v in fill
                                 else Proj(src, position[v])
                                 for v in targets))


def occurrence_arrow(e: Expression, vs: Sequence[Variable]) -> TupleArrow:
    """The product of `vs` onto the occurrence list of `e`: component i
    projects out the variable at occurrence i."""
    return context_arrow(vs, var_list(e))


def regroup_arrow(e: Expression) -> FPArrow:
    """Canonical iso from the flat occurrence product to the argument tree.

    Realized as a tuple of paths, one per occurrence; for a variable it is
    the one projection out of the singleton product.
    """
    src = flat_product(v.sort for v in var_list(e))
    leaves = iter(range(1, len(src.factors) + 1))
    done: list[FPArrow] = []  # the arrows of the finished arguments
    stack: list = [e]
    while stack:
        x = stack.pop()
        if type(x) is int:  # the last x arrows are one application's
            cut = len(done) - x
            done[cut:] = [TupleArrow(src, tuple(done[cut:]))]
        elif type(x) is App:
            stack += (len(x.args), *x.args[::-1])
        else:
            done.append(Proj(src, next(leaves)))
    return done[0]


def apply_arrow(e: Expression) -> FPArrow:
    """Operation application, one node per distinct application: its
    generator after the product <f1 . p1, .., fn . pn> of its arguments'
    apply arrows; a variable is the identity on its sort."""
    arrow: dict = {}
    for a in applications(e):
        fs = [arrow.get(x) or Id(Leaf(x.sort)) for x in a.args]
        src = Prod(tuple(f.src for f in fs))
        arrow[a] = Comp(Gen(a.op), TupleArrow(src, tuple(
            [Comp(f, Proj(src, i)) for i, f in enumerate(fs, 1)])))
    return arrow.get(e) or Id(Leaf(e.sort))


def term_arrow(e: Expression, vs: Sequence[Variable]) -> FPArrow:
    """The three-stage arrow of `e` over the product of `vs`, which holds
    every variable of `e`: what `compile` prints."""
    return Comp(apply_arrow(e),
                Comp(regroup_arrow(e), occurrence_arrow(e, vs)))


def term_normal(e: Expression, vs: Sequence[Variable]) -> NormalArrow:
    """The normal form of `term_arrow(e, vs)`, written straight from the
    expression: each variable becomes the path to its factor of the input
    product, each application a `GenApp`, built once per distinct node."""
    body = {v: Path((k,)) for k, v in enumerate(vs, 1)}
    for a in applications(e):
        body[a] = GenApp(a.op, tuple([body[x] for x in a.args]))
    return NormalArrow(input_product(vs), Leaf(e.sort), body[e])


def one_stage_arrow(e: Expression, vs: Sequence[Variable]) -> FPArrow:
    """The arrow of `e` over the product of `vs` in one stage, the twin of
    `term_normal`: each variable is its projection, each distinct
    application its generator after the tuple of its arguments' arrows."""
    src = input_product(vs)
    arrow = {v: Proj(src, k) for k, v in enumerate(vs, 1)}
    for a in applications(e):
        args = tuple([arrow[x] for x in a.args])
        arrow[a] = Comp(Gen(a.op), TupleArrow(src, args))
    return arrow[e]


def equation_arrows(eq: Equation) -> tuple[FPArrow, FPArrow]:
    """The parallel pair of arrows associated to an equation: each side's
    one-stage arrow over the equation's variables."""
    return tuple(one_stage_arrow(s, eq.vars) for s in (eq.left, eq.right))
