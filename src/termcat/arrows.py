"""The free finite-product category over a signature's sketch.

Objects are finite trees of sorts; `Prod(())` is the terminal object.
Arrows are syntax: identities, projections, tuples, composites, and one
generator per operation.  Equality is decided by reduction to a canonical
normal form: into a product, a tuple of normal forms per factor; into a
sort, a first-order term whose leaves are projection paths into the domain
tree.  The normal form is unique per equivalence class under the product
laws, so structural comparison of normal forms decides formal equality.
It is computed by evaluation (Berger & Schwichtenberg, 1991): an arrow is
applied to the identity body of its domain, the tuple tree of paths to
the domain's leaves, in one pass over the arrow.  No walk here recurses.

Objects and arrows are hash-consed, in the table of `errors` that
expressions share: constructing a node returns the one live node with that
kind and those children, so `==` and `hash` are identity and cost O(1).
The table holds its nodes weakly and drops an entry when its node dies, so
nothing outlives the arrows a caller keeps.  Every arrow stores its
endpoints `src`/`dst` when it is built, which makes each endpoint check an
`is` test, and it keeps its normal body in a write-once slot filled the
first time an evaluation reaches it at its domain's identity body, so
shared subarrows are normalized once; each object keeps that identity
body in a write-once slot too.  Nodes are otherwise immutable.

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

from typing import Iterable, Mapping, Sequence, Union

from .errors import EndpointMismatch, Node, Record, intern, interned, text
from .signature import Operation, Sort, Variable
from .terms import App, Equation, Expression, applications, var_list

_set = object.__setattr__


# --- objects -----------------------------------------------------------------


class Leaf(Node):
    __slots__ = ("sort", "_identity")  # `_identity`: see `Prod`
    _fields = ("sort",)

    def __new__(cls, sort: Sort):
        key = (cls, sort.index, sort.name)  # a sort's value
        node = interned(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "sort", sort)
            _set(node, "_identity", None)
            intern(key, node)
        return node

    def _spelling(self):
        return self.sort.name


class Prod(Node):
    # `_identity` caches the object's identity body, where `_norm` starts
    __slots__ = ("factors", "_identity")
    _fields = ("factors",)

    def __new__(cls, factors: Iterable["FPObject"]):
        factors = tuple(factors)
        key = (cls, factors)
        node = interned(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "factors", factors)
            _set(node, "_identity", None)
            intern(key, node)
        return node

    def _spelling(self):  # `1` is the terminal object
        return ("(", self.factors, " x ", ")") if self.factors else "1"


FPObject = Union[Leaf, Prod]

TERMINAL = Prod(())


def flat_product(sorts: Iterable[Sort]) -> Prod:
    return Prod(tuple(Leaf(s) for s in sorts))


# --- arrows --------------------------------------------------------------------


class _Arrow(Node):
    """`src`/`dst` are the endpoints; `_normal` caches the normal body."""

    __slots__ = ("src", "dst", "_normal")


def _arrow(key: tuple, node: _Arrow, src: FPObject, dst: FPObject):
    """Give a new arrow its endpoints and an empty memo, and intern it."""
    _set(node, "src", src)
    _set(node, "dst", dst)
    _set(node, "_normal", None)
    return intern(key, node)


class Id(_Arrow):
    __slots__ = ("obj",)
    _fields = ("obj",)

    def __new__(cls, obj: FPObject):
        key = (cls, obj)
        node = interned(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "obj", obj)
            _arrow(key, node, obj, obj)
        return node

    def _spelling(self):
        return "id[", (self.obj,), "", "]"


class Proj(_Arrow):
    __slots__ = ("index",)  # 1-based; the source is `src`
    _fields = ("src", "index")

    def __new__(cls, src: Prod, index: int):
        key = (cls, src, index)
        node = interned(key)
        if node is None:
            if not isinstance(src, Prod):
                raise EndpointMismatch("projection source must be a product")
            if not 1 <= index <= len(src.factors):
                raise EndpointMismatch(
                    f"projection index {index} out of range for {src}")
            node = object.__new__(cls)
            _set(node, "index", index)
            _arrow(key, node, src, src.factors[index - 1])
        return node

    def _spelling(self):
        return f"p{self.index}"


class Gen(_Arrow):
    __slots__ = ("op",)
    _fields = ("op",)

    def __new__(cls, op: Operation):
        key = (cls, op)
        node = interned(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "op", op)
            _arrow(key, node, flat_product(op.inputs), Leaf(op.output))
        return node

    def _spelling(self):
        return self.op.name


class TupleArrow(_Arrow):
    __slots__ = ("parts",)  # the shared domain is `src`
    _fields = ("src", "parts")

    def __new__(cls, src: FPObject, parts: Iterable["FPArrow"]):
        parts = tuple(parts)
        key = (cls, src, parts)
        node = interned(key)
        if node is None:
            for p in parts:
                if p.src is not src:
                    raise EndpointMismatch(
                        f"tuple component {p} has domain {p.src}, "
                        f"expected {src}")
            node = object.__new__(cls)
            _set(node, "parts", parts)
            _arrow(key, node, src, Prod(tuple(p.dst for p in parts)))
        return node

    def _spelling(self):  # `<>` is the empty tuple
        return "<", self.parts, ", ", ">"


class Comp(_Arrow):
    __slots__ = ("after", "before")
    _fields = ("after", "before")

    def __new__(cls, after: "FPArrow", before: "FPArrow"):
        key = (cls, after, before)
        node = interned(key)
        if node is None:
            if before.dst is not after.src:
                raise EndpointMismatch(
                    f"cannot compose: {after} expects {after.src}, "
                    f"{before} yields {before.dst}")
            node = object.__new__(cls)
            _set(node, "after", after)
            _set(node, "before", before)
            _arrow(key, node, before.src, after.dst)
        return node

    def _spelling(self):
        return "", (self.after, self.before), " . ", ""


FPArrow = Union[Id, Proj, Gen, TupleArrow, Comp]


# --- normal forms ------------------------------------------------------------
#
# A normal body is shaped by the codomain: NTuple per product factor, and at
# a sort leaf a ground term (GenApp over Path leaves).  A Path addresses a
# leaf of the domain tree by its sequence of 1-based factor indices.  The
# normal body of an arrow is its value at the identity body of its domain.


class Path(Record):
    __slots__ = ("steps",)  # tuple[int, ...]

    def _spelling(self):  # `p()` is the path to the whole domain
        return "p" + ".".join(map(str, self.steps)) if self.steps else "p()"

    __str__ = text


class GenApp(Record):
    __slots__ = ("op", "args")  # Operation, tuple[NormalBody, ...]
    _spelling = App._spelling
    __str__ = text


class NTuple(Record):
    __slots__ = ("parts",)  # tuple[NormalBody, ...]
    _spelling = TupleArrow._spelling
    __str__ = text


NormalBody = Union[Path, GenApp, NTuple]


class NormalArrow(Record):
    __slots__ = ("src", "dst", "body")

    def _spelling(self):
        return "", (self.body,), "", ""

    __str__ = text


def _normal_eq(a, b):
    """`a == b` for normal forms and bodies, by type and fields as for any
    record, with an explicit stack of the pairs still to compare, so
    bodies of any depth compare; a pair of one node is equal at once."""
    if a is b:
        return True
    if b.__class__ is not a.__class__:
        return NotImplemented
    # the pairs: xs[k] and ys[k]; both lists grow by the same length
    xs, ys = [a], [b]
    while xs:
        x = xs.pop()
        y = ys.pop()
        if x is y:
            continue
        kind = x.__class__
        if kind is not y.__class__:
            return False
        if kind is GenApp:
            if x.op is not y.op and x.op != y.op \
                    or len(x.args) != len(y.args):
                return False
            xs += x.args
            ys += y.args
        elif kind is Path:
            if x.steps != y.steps:
                return False
        elif kind is NTuple:
            if len(x.parts) != len(y.parts):
                return False
            xs += x.parts
            ys += y.parts
        elif kind is NormalArrow:
            if x.src is not y.src or x.dst is not y.dst:
                return False
            xs.append(x.body)
            ys.append(y.body)
        elif x != y:
            return False
    return True


for _kind in (Path, GenApp, NTuple, NormalArrow):
    _kind.__eq__ = _normal_eq
# each hash reads only the node's own fields, never a nested body, so a
# body of any depth hashes, and what `_normal_eq` finds equal hashes alike
Path.__hash__ = lambda x: hash((Path, x.steps))
GenApp.__hash__ = lambda x: hash((GenApp, x.op, len(x.args)))
NTuple.__hash__ = lambda x: hash((NTuple, len(x.parts)))
NormalArrow.__hash__ = lambda x: hash((NormalArrow, x.src, x.dst))


def _identity_body(obj: FPObject) -> NormalBody:
    """The tuple tree of paths to the leaves of `obj`, with a stack."""
    done: list = []  # the finished bodies
    stack: list = [(obj, ())]
    while stack:
        x = stack.pop()
        if type(x) is int:  # the last x bodies are one product's factors
            cut = len(done) - x
            done[cut:] = [NTuple(tuple(done[cut:]))]
        elif type(x[0]) is Leaf:
            done.append(Path(x[1]))
        else:
            stack.append(len(x[0].factors))
            stack += [(f, x[1] + (i,)) for i, f in
                      reversed(tuple(enumerate(x[0].factors, 1)))]
    return done[0]


def _eval(a: FPArrow, v: NormalBody) -> NormalBody:
    """The body of `a` applied to `v`, a body over `a.src`.  At the
    identity body of `a.src` that is `a`'s normal body, kept in its slot.
    The stack holds (arrow, body) pairs, depth first; an (after, None) pair
    takes the value its `before` left, an int marker tuples the last n
    values, and a keep marker, an arrow, puts the last one in its slot."""
    done: list = []  # the finished values
    stack: list = [(a, v)]
    while stack:
        x = stack.pop()
        if type(x) is not tuple:
            if type(x) is int:  # the last x values are one tuple's parts
                cut = len(done) - x
                done[cut:] = [NTuple(tuple(done[cut:]))]
            else:  # keep: x's evaluation at its identity body ended
                _set(x, "_normal", done[-1])
            continue
        a, v = x
        if v is None:
            v = done.pop()
        if v is a.src._identity:
            if a._normal is not None:
                done.append(a._normal)
                continue
            stack.append(a)
        kind = type(a)
        if kind is Comp:
            stack += ((a.after, None), (a.before, v))
        elif kind is Proj:
            done.append(v.parts[a.index - 1])
        elif kind is TupleArrow:
            stack.append(len(a.parts))
            stack += [(p, v) for p in a.parts[::-1]]
        elif kind is Gen:
            done.append(GenApp(a.op, v.parts))
        else:  # Id
            done.append(v)
    return done[0]


def _norm(a: FPArrow) -> NormalBody:
    if a.src._identity is None:
        _set(a.src, "_identity", _identity_body(a.src))
    return _eval(a, a.src._identity)


def normalize(a: FPArrow) -> NormalArrow:
    return NormalArrow(a.src, a.dst, _norm(a))


def arrows_equal(a: FPArrow, b: FPArrow) -> bool:
    """Formal equality: identical normal forms over identical endpoints."""
    if a.src is not b.src or a.dst is not b.dst:
        raise EndpointMismatch(
            f"arrows compared across different endpoints: "
            f"{a.src} -> {a.dst} vs {b.src} -> {b.dst}")
    return a is b or _norm(a) == _norm(b)


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
