"""The trusted kernel: replay of arrow-equality certificates.

Kernel steps are the congruence moves of arrow equality: reflexivity,
symmetry, transitivity, composing on either side, tuple congruence and
citation of a premise.  A kernel proof is a sequence of them, replayed from
a list of premise constraints; each comparison is decided by normal forms.
Two kinds of certificate are checked:

- A lemma table (`verify_lemmas`, what `check-proof` checks by default)
  holds one `Lemma` per declared deduction step, in declaration order, so
  lemma k is step k, whether a later step cites it or not: the step's
  elaborated equation, the earlier lemmas or the one hypothesis it cites,
  and the kernel proof of its rule coding.  The kernel compiles every
  statement itself (each lemma's, each cited hypothesis's and the goal's,
  at most once each), with a one-stage compiler of its own, which shares
  no code with the producer's, so each check compares their arrows.
  It replays each proof from the statements it cites, and accepts only if
  every replay derives its lemma's statement and the last lemma is the
  goal; a rejection reports the index of its lemma, so a caller can name
  the step it stands for.
  The producer supplies only the citation DAG and the kernel proofs.
- A `Factorization` (the paper's levelled certificate, `check-proof
  --levelled`, which the producer pastes from the lemma table's kernel
  proofs) holds hypothesis, claim and workspace constraints of one-stage
  arrows, the nodes `_compile` builds, and one kernel proof per claim.
  `verify_factorization` replays every proof from the hypotheses and
  accepts a claim only if the replayed constraint is formally equal to
  it.  `verify_levelled` checks one as the proof of a goal from
  hypotheses: the kernel compiles these equations itself, as it does a
  lemma table's, replays from the compiled hypotheses and checks the last
  claim against the compiled goal, so it reads neither the certificate's
  hypotheses nor its last claim.

This module is the only one that decides whether a certificate holds.
Besides the standard library it imports only `category` and `errors`, and
`category` only `errors`, so none of the producer's code, its term
compilers included, loads with it, and the three can be audited alone.
"""

from __future__ import annotations

from typing import Sequence, Union

from .category import (Comp, FPArrow, Gen, Proj, TupleArrow, arrows_equal,
                       flat_product)
from .errors import DeductionError, EndpointMismatch, Record

_set = object.__setattr__

# --- constraints and kernel steps -----------------------------------------------


class EqConstraint(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: FPArrow, right: FPArrow):
        if left.src is not right.src or left.dst is not right.dst:
            raise EndpointMismatch(
                "constraint sides have different endpoints")
        _set(self, "left", left)
        _set(self, "right", right)


def constraints_equal(x: EqConstraint, y: EqConstraint) -> bool:
    """Formal equality of two constraints, side by side; constraints over
    different endpoints are not equal."""
    try:
        return arrows_equal(x.left, y.left) and arrows_equal(x.right, y.right)
    except EndpointMismatch:
        return False


# A step refers to earlier steps of its proof by 0-based index (`of`,
# `first`, `second`) and to a premise by `hyp`; `arrow` is the arrow it
# composes with or reflects, and `src` the shared domain of a tuple.


class CiteHyp(Record):
    __slots__ = ("hyp",)


class Refl(Record):
    __slots__ = ("arrow",)


class Sym(Record):
    __slots__ = ("of",)


class Trans(Record):
    __slots__ = ("first", "second")


class ComposeLeft(Record):
    __slots__ = ("arrow", "of")


class ComposeRight(Record):
    __slots__ = ("arrow", "of")


class TupleCong(Record):
    __slots__ = ("src", "of")


KernelStep = Union[CiteHyp, Refl, Sym, Trans, ComposeLeft, ComposeRight,
                   TupleCong]

KernelProof = tuple[KernelStep, ...]


class Factorization(Record):
    """Hypothesis, claim and workspace constraints, and one kernel proof
    per claim, in order."""

    __slots__ = ("hyp", "claim", "wksp", "verif")
    __hash__ = None

    def __init__(self, hyp: tuple[EqConstraint, ...],
                 claim: tuple[EqConstraint, ...],
                 wksp: tuple[EqConstraint, ...],
                 verif: tuple[KernelProof, ...]):
        if len(verif) != len(claim):
            raise DeductionError(
                "verification must carry one kernel proof per claim")
        Record.__init__(self, hyp, claim, wksp, verif)


# --- replay ----------------------------------------------------------------------


class VerificationResult(Record):
    # a bool, a tuple of lines, and the index of the lemma `verify_lemmas`
    # rejects (None if it rejects none, and from `verify_factorization`)
    __slots__ = ("ok", "trace", "rejected")
    __hash__ = None


def _earlier(derived: list[EqConstraint], i: int) -> EqConstraint:
    """The constraint step `i` derived; only an earlier step of the same
    proof may be referred to, never one counted from the end."""
    if not 0 <= i < len(derived):
        raise IndexError(f"reference {i} is not an earlier step")
    return derived[i]


def _replay(hyp: Sequence[EqConstraint], proof: KernelProof,
            trace: list[str]) -> EqConstraint | None:
    derived: list[EqConstraint] = []
    for n, step in enumerate(proof):
        try:
            if isinstance(step, CiteHyp):
                if not 0 <= step.hyp < len(hyp):
                    trace.append(f"step {n}: citation of missing "
                                 f"hypothesis {step.hyp}")
                    return None
                derived.append(hyp[step.hyp])
            elif isinstance(step, Refl):
                derived.append(EqConstraint(step.arrow, step.arrow))
            elif isinstance(step, Sym):
                c = _earlier(derived, step.of)
                derived.append(EqConstraint(c.right, c.left))
            elif isinstance(step, Trans):
                c1 = _earlier(derived, step.first)
                c2 = _earlier(derived, step.second)
                if not arrows_equal(c1.right, c2.left):
                    trace.append(f"step {n}: transitivity middle terms are "
                                 "not formally equal")
                    return None
                derived.append(EqConstraint(c1.left, c2.right))
            elif isinstance(step, ComposeLeft):
                c = _earlier(derived, step.of)
                derived.append(EqConstraint(Comp(step.arrow, c.left),
                                            Comp(step.arrow, c.right)))
            elif isinstance(step, ComposeRight):
                c = _earlier(derived, step.of)
                derived.append(EqConstraint(Comp(c.left, step.arrow),
                                            Comp(c.right, step.arrow)))
            elif isinstance(step, TupleCong):
                cs = [_earlier(derived, i) for i in step.of]
                derived.append(EqConstraint(
                    TupleArrow(step.src, tuple(c.left for c in cs)),
                    TupleArrow(step.src, tuple(c.right for c in cs))))
            else:
                trace.append(f"step {n}: unknown kernel step {step!r}")
                return None
        except (EndpointMismatch, IndexError) as exc:
            trace.append(f"step {n}: {exc}")
            return None
    if not derived:
        trace.append("empty kernel proof derives nothing")
        return None
    return derived[-1]


def verify_factorization(f: Factorization) -> VerificationResult:
    """Replay every kernel proof and re-check every claimed equality."""
    trace: list[str] = []
    ok = True
    for k, (constraint, proof) in enumerate(zip(f.claim, f.verif)):
        got = _replay(f.hyp, proof, trace)
        if got is None:
            trace.append(f"claim {k}: kernel proof failed to replay")
            ok = False
        elif constraints_equal(got, constraint):
            trace.append(f"claim {k}: established")
        else:
            trace.append(f"claim {k}: derived constraint differs from the "
                         "claim")
            ok = False
    return VerificationResult(ok, tuple(trace), None)


# --- lemma tables -------------------------------------------------------------------


class Lemma(Record):
    """One deduction step: its elaborated `terms.Equation` `statement`, the
    `cites` of earlier lemmas, a `hypothesis` index or None, and a kernel
    `proof` that runs from the premise list: the statements of the `cites`
    lemmas in that order, then the `hypothesis` if there is one."""

    __slots__ = ("statement", "cites", "hypothesis", "proof")


def verify_lemmas(hypotheses: Sequence, lemmas: Sequence[Lemma],
                  goal) -> VerificationResult:
    """Replay a lemma table against the goal equation; stops at the first
    lemma that fails, and reports its index as `rejected`."""
    memo: dict = {}  # shared side expressions are compiled once
    statements: list[EqConstraint] = []
    compiled_hyps: dict[int, EqConstraint] = {}
    for k, lemma in enumerate(lemmas):
        trace: list[str] = []
        premises = []
        for i in lemma.cites:
            if not 0 <= i < k:
                return _rejected(k, f"citation {i} is not an earlier lemma")
            premises.append(statements[i])
        h = lemma.hypothesis
        if h is not None:
            if not 0 <= h < len(hypotheses):
                return _rejected(k, f"citation of missing hypothesis {h}")
            if h not in compiled_hyps:
                compiled_hyps[h] = _statement(hypotheses[h], memo)
            premises.append(compiled_hyps[h])
        statement = _statement(lemma.statement, memo)
        got = _replay(premises, lemma.proof, trace)
        if got is None:
            return _rejected(k, *trace, "kernel proof failed to replay")
        if not constraints_equal(got, statement):
            return _rejected(k, "derived constraint differs from the "
                                "statement")
        statements.append(statement)
    if not statements:
        return VerificationResult(False, ("empty lemma table proves "
                                          "nothing",), None)
    if not constraints_equal(statements[-1], _statement(goal, memo)):
        return VerificationResult(False, (
            f"goal: lemma {len(statements) - 1} is not the goal",), None)
    return VerificationResult(True, (
        f"goal: established by lemma {len(statements) - 1}",), None)


def verify_levelled(hypotheses: Sequence, f: Factorization,
                    goal) -> VerificationResult:
    """Check `f` as a certificate of the goal equation from the hypothesis
    equations, compiled here: every proof replays from the compiled
    hypotheses in their place, and the last one must derive the compiled
    goal in place of the last claim."""
    if not f.claim:
        return VerificationResult(False, ("empty certificate proves "
                                          "nothing",), None)
    memo: dict = {}  # shared side expressions are compiled once
    hyp = tuple(_statement(eq, memo) for eq in hypotheses)
    return verify_factorization(Factorization(
        hyp, f.claim[:-1] + (_statement(goal, memo),), f.wksp, f.verif))


def _statement(eq, memo: dict) -> EqConstraint:
    """The constraint of equation `eq`, by `_compile`."""
    return EqConstraint(_compile(eq.left, eq.vars, memo),
                        _compile(eq.right, eq.vars, memo))


def _compile(e, vs: tuple, memo: dict) -> FPArrow:
    """The arrow of expression `e` over the product P of the sorts of `vs`:
    a variable is its projection out of P, an application f(a1..an) is f
    after the tuple of its arguments' arrows.  It is formally equal to the
    paper's three-stage arrow.  `memo[vs]` holds P and one dict, with the
    arrow of each variable of `vs` and of each application compiled over
    it; an application is interned, so it is its own key."""
    entry = memo.get(vs)
    if entry is None:
        src = flat_product(v.sort for v in vs)
        entry = memo[vs] = (src, {v: Proj(src, k)
                                  for k, v in enumerate(vs, 1)})
    src, done = entry
    stack = [e]
    while stack:  # an application is built once its arguments are
        x = stack[-1]
        if x in done:
            stack.pop()
            continue
        todo = [a for a in x.args if a not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        done[x] = Comp(Gen(x.op), TupleArrow(src, tuple(
            done[a] for a in x.args)))
    return done[e]


def _rejected(k: int, *lines: str) -> VerificationResult:
    return VerificationResult(False, tuple(f"lemma {k}: {line}"
                                           for line in lines), k)
