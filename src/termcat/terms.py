"""Expressions, terms, and equations with their derived variable/type lists.

An expression is raw typed syntax: a variable, which is an expression of
its own sort, or an operation applied to expressions of its input sorts.
A term pairs an expression with an explicit ordered set of variables
(which may strictly contain the variables occurring) and a stated result
sort.  An equation is two expressions of the same sort over one shared
variable set.  Every inhabited sort has a canonical closed witness.
"""

from __future__ import annotations

from typing import Union

from .errors import Node, Record, TermcatError, intern, interned
from .signature import Operation, Signature, Sort, Variable, ordered_vars

_set = object.__setattr__


# An `App` is hash-consed in the table of `errors`, as objects and arrows
# are, so `==` and `hash` are identity and never walk the expression.  It
# keeps its sort in a slot that is not a field, so the sort checks of every
# `App` built on it read an attribute, as they read a variable's.


class App(Node):
    __slots__ = ("op", "args", "sort")
    _fields = ("op", "args")

    def __new__(cls, op: Operation, args: tuple["Expression", ...]):
        if type(args) is not tuple:
            args = tuple(args)
        key = (cls, op, args)
        node = interned(key)
        if node is not None:
            return node
        inputs = op.inputs
        if len(args) != len(inputs):
            raise TermcatError(
                f"{op.name} expects {len(inputs)} arguments, "
                f"got {len(args)}")
        for arg, want in zip(args, inputs):
            got = arg.sort
            # a signature's sorts are single objects, so identity settles
            # almost every check
            if got is not want and got != want:
                i = next(i for i, (a, w) in enumerate(zip(args, inputs), 1)
                         if a.sort != w)
                raise TermcatError(
                    f"argument {i} of {op.name} has sort {got}, "
                    f"expected {want}")
        node = object.__new__(cls)
        _set(node, "op", op)
        _set(node, "args", args)
        _set(node, "sort", op.output)
        return intern(key, node)

    def __str__(self) -> str:
        # an explicit stack of what is still to write, so an expression of
        # any depth prints
        out: list[str] = []
        stack: list = [self]
        while stack:
            x = stack.pop()
            if type(x) is App:
                args = x.args
                if not args:
                    out.append(x.op.name)
                    continue
                out.append(x.op.name + "(")
                stack.append(")")
                for a in args[:0:-1]:
                    stack += (a, ", ")
                stack.append(args[0])
            elif type(x) is str:
                out.append(x)
            else:
                out.append(str(x))
        return "".join(out)


Expression = Union[Variable, App]


def inhabited_sorts(sig: Signature) -> dict[Sort, Expression]:
    """Sorts possessing a closed expression, with a canonical witness each.

    Least fixpoint: a sort is inhabited iff some operation of that output
    sort has all input sorts already inhabited.  The witness is the
    smallest-depth closed expression; ties go to the earliest operation in
    declaration order.  Round k of the loop assigns exactly the sorts whose
    minimal witness depth is k, so both rules hold by construction.
    """
    witness: dict[Sort, App] = {}
    while True:
        fresh: dict[Sort, App] = {}
        for op in sig.operations:
            if op.output in witness or op.output in fresh:
                continue
            if all(s in witness for s in op.inputs):
                fresh[op.output] = App(op, tuple(witness[s] for s in op.inputs))
        if not fresh:
            break
        witness.update(fresh)
    return {s: witness[s] for s in sig.sorts if s in witness}


def var_list(e: Expression) -> tuple[Variable, ...]:
    """Variables of `e` in left-to-right order of appearance, repeated."""
    out: list[Variable] = []
    stack = [e]
    while stack:
        x = stack.pop()
        if type(x) is App:
            stack.extend(reversed(x.args))
        else:
            out.append(x)
    return tuple(out)


def applications(*exprs: Expression):
    """The applications in `exprs`, bottom-up: each one after its
    arguments, in left-to-right order, and each node once.  An explicit
    stack, so an expression of any depth is walked."""
    seen: set[App] = set()
    stack: list = list(reversed(exprs))
    pop = stack.pop
    while stack:
        x = pop()
        if x is None:  # the application under it has all its arguments
            yield pop()
        elif type(x) is App and x not in seen:
            seen.add(x)
            stack += (x, None)
            stack += x.args[::-1]


def var_set(*exprs: Expression) -> tuple[Variable, ...]:
    """Distinct variables of `exprs` in the canonical order.  Each node is
    walked once, so an expression that shares its subexpressions costs
    its number of distinct nodes."""
    found: set[Variable] = set()
    seen: set[App] = set()
    stack = list(exprs)
    while stack:
        x = stack.pop()
        if type(x) is not App:
            found.add(x)
        elif x not in seen:
            seen.add(x)
            stack.extend(x.args)
    return ordered_vars(found)


def _canonical(vs: tuple[Variable, ...]) -> bool:
    """Whether `vs` is what `ordered_vars` makes of it: a tuple whose
    (sort index, subscript) keys strictly increase."""
    last = None
    for v in vs:
        key = (v.sort.index, v.num)
        if last is not None and key <= last:
            return False
        last = key
    return isinstance(vs, tuple)


def _omitted(vs: tuple[Variable, ...], *exprs: Expression) -> list[Variable]:
    """The variables occurring in `exprs` that `vs` lacks, in the canonical
    order.  An occurrence that is one of the objects in `vs` is found by
    its id, which spares hashing the variables of elaborated text.  Each
    application is walked once."""
    ids = {id(v) for v in vs}
    known = None
    missing = set()
    seen: set[App] = set()
    stack = list(exprs)
    while stack:
        x = stack.pop()
        if type(x) is App:
            if x not in seen:
                seen.add(x)
                stack.extend(x.args)
        elif id(x) not in ids:
            if known is None:
                known = set(vs)
            if x not in known:
                missing.add(x)
    return sorted(missing, key=Variable.key)


class Term(Record):
    __slots__ = ("expr", "vars", "sort")  # vars: canonical, duplicate free

    def __init__(self, expr: Expression, vars: tuple[Variable, ...],
                 sort: Sort):
        if not _canonical(vars):
            raise TermcatError("term variable set is not in canonical order")
        missing = _omitted(vars, expr)
        if missing:
            raise TermcatError(
                "term omits variables occurring in its expression: "
                + ", ".join(str(v) for v in missing))
        if expr.sort is not sort and expr.sort != sort:
            raise TermcatError(
                f"stated sort {sort} disagrees with expression sort "
                f"{expr.sort}")
        _set(self, "expr", expr)
        _set(self, "vars", vars)
        _set(self, "sort", sort)

    def __str__(self) -> str:
        vs = ", ".join(str(v) for v in self.vars)
        return f"({self.expr} | {{{vs}}} : {self.sort})"


class Equation(Record):
    __slots__ = ("left", "right", "vars")

    def __init__(self, left: Expression, right: Expression,
                 vars: tuple[Variable, ...]):
        if left.sort is not right.sort and left.sort != right.sort:
            raise TermcatError(
                f"equation sides have sorts {left.sort} and {right.sort}")
        if not _canonical(vars):
            raise TermcatError(
                "equation variable set is not in canonical order")
        missing = _omitted(vars, left, right)
        if missing:
            raise TermcatError(
                "equation omits variables occurring in its sides: "
                + ", ".join(str(v) for v in missing))
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "vars", vars)

    @property
    def sort(self) -> Sort:
        return self.left.sort

    def __str__(self) -> str:
        vs = ", ".join(str(v) for v in self.vars)
        return f"{self.left} = {self.right}  [{vs}]"
