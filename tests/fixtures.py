"""Shared concrete signatures, variable helpers and the certificate route
for the tests."""

from __future__ import annotations

from termcat.deduction import compile_to_factorization, normalize_deduction
from termcat.signature import Signature, Variable, validate_signature


def running_signature() -> Signature:
    """Five sorts; g : s1 s1 -> s2 and f : s1 s2 s2 -> s5."""
    return validate_signature(
        ["s1", "s2", "s3", "s4", "s5"],
        [("g", ["s1", "s1"], "s2"), ("f", ["s1", "s2", "s2"], "s5")])


def subst_signature() -> Signature:
    """The wide substitution example: f : s1 s4 s3 s1 s5 s2 -> s5,
    g : s1 s3 -> s5, h : s2 s3 -> s3."""
    return validate_signature(
        ["s1", "s2", "s3", "s4", "s5"],
        [("f", ["s1", "s4", "s3", "s1", "s5", "s2"], "s5"),
         ("g", ["s1", "s3"], "s5"),
         ("h", ["s2", "s3"], "s3")])


def unary_signature() -> Signature:
    """One sort, one unary operation, one constant; cheap to enumerate."""
    return validate_signature(["s"], [("f", ["s"], "s"), ("c", [], "s")])


def binary_signature() -> Signature:
    return validate_signature(["s"], [("m", ["s", "s"], "s"),
                                      ("c", [], "s")])


def v(sig: Signature, sort_index: int, num: int) -> Variable:
    return Variable(sig.sorts[sort_index - 1], num)


def certify(sig: Signature, tree, hyps):
    """The certificate `check-proof` builds: levelled form, then assembly."""
    return compile_to_factorization(sig, normalize_deduction(tree), hyps)
