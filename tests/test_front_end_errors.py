"""Every input error of the .msl front end, pinned byte for byte.

One case per place the scanner, the parser, the signature check,
elaboration and proof building raise, and for the order in which they
report: the exit code and the one output line of `termcat`, run on the
case's text.  Input errors go to stderr with exit 2; a proof that fails
to check prints its verdict on stdout with exit 1, and a step whose side
condition fails is named by line and column.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from termcat.cli import run

_HEAD = "sort s\nop f : s -> s\nop c : -> s\n"
_PROOF = _HEAD + "eq q [x:s] : f(x) = f(x)\n"
_UNITS = ("sort s t\nop m : s s -> s\nop e : -> s\nop f : s -> s\n"
          "eq lunit [x:s] : m(e, x) = x\neq runit [x:s] : m(x, e) = x\n"
          "eq fx [x:s, y:t] : f(x) = f(x)\n")
# `d` substitutes for y, which `c` has just removed: the producer, not the
# front end, refuses it, and names the step
_SUBST_ABSENT = ("sort s\nop m : s s -> s\nop e : -> s\n"
                 "eq lu [x:s] : m(e, x) = x\n"
                 "proof r from lu {\n"
                 "  a = hyp lu ;\n"
                 "  b = abs a y : s ;\n"
                 "  c = conc b y ;\n"
                 "  d = subst c y a ;\n"
                 "}\n")
# a term and an equation above the sort and the operations they use
_DECLARATIONS = "sort s\nop f : s -> s\nop g : s s -> s\nop c : -> s\n"
_USES = ("term t [x:s] : f(g(x, c))\n"
         "eq e [x:s] : g(x, c) = g(f(x), c)\n")
_LATER = _USES + _DECLARATIONS

# name: (text, argv, exit code, the stream written, what it holds)
GOLDEN = {
    "unexpected-character": (
        "sort s\n"
        "  op é\n",
        ["sketch"], 2, "err",
        "error: 2:6: unexpected character 'é'\n"),
    "unexpected-character-after-comment-and-crlf": (
        "sort s # (é\r\n"
        "\u2028"
        " op $ : -> s\n",
        ["sketch"], 2, "err",
        "error: 3:5: unexpected character '$'\n"),
    "unexpected-digit": (
        _HEAD + "term t : 1c\n",
        ["sketch"], 2, "err",
        "error: 4:10: unexpected character '1'\n"),
    "unexpected-lone-dash": (
        "sort s\n"
        "op c : - s\n",
        ["sketch"], 2, "err",
        "error: 2:8: unexpected character '-'\n"),
    "unexpected-after-arrow": (
        "sort s\n"
        "op c : ->> s\n",
        ["sketch"], 2, "err",
        "error: 2:10: unexpected character '>'\n"),
    "bad-character-beats-earlier-syntax-error": (
        "sort s\n"
        "op c c\n"
        "term t : $\n",
        ["sketch"], 2, "err",
        "error: 3:10: unexpected character '$'\n"),
    "expected-name-after-op": (
        "sort s\n"
        "op : -> s\n",
        ["sketch"], 2, "err",
        "error: 2:4: expected NAME, found ':'\n"),
    "expected-colon": (
        "sort s\n"
        "op c -> s\n",
        ["sketch"], 2, "err",
        "error: 2:6: expected COLON, found '->'\n"),
    "expected-arrow-at-eof": (
        "sort s\n"
        "op c : s",
        ["sketch"], 2, "err",
        "error: 2:9: unexpected 'NEWLINE'\n"),
    "unexpected-in-names": (
        "sort s\n"
        "op c : s ( -> s\n",
        ["sketch"], 2, "err",
        "error: 2:10: unexpected '('\n"),
    "expected-name-after-arrow-comment": (
        "sort s\n"
        "op c : -> # none\n",
        ["sketch"], 2, "err",
        "error: 2:11: expected NAME, found 'NEWLINE'\n"),
    "end-of-statement": (
        "sort s t u\n"
        "op c : -> s s\n",
        ["sketch"], 2, "err",
        "error: 2:13: unexpected 's' at end of statement\n"),
    "sort-list-symbol": (
        "sort s (\n",
        ["sketch"], 2, "err",
        "error: 1:8: unexpected '('\n"),
    "expected-rbrack": (
        _HEAD + "term t [x:s : c\n",
        ["sketch"], 2, "err",
        "error: 4:13: expected RBRACK, found ':'\n"),
    "expected-rparen-newline": (
        _HEAD + "term t [x:s] : f(x\n"
        "  x)\n",
        ["sketch"], 2, "err",
        "error: 5:3: expected RPAREN, found 'x'\n"),
    "expected-rparen-eof": (
        _HEAD + "term t [x:s] : f(x",
        ["sketch"], 2, "err",
        "error: 5:1: expected RPAREN, found 'EOF'\n"),
    "expected-name-in-call": (
        _HEAD + "term t [x:s] : f(,)\n",
        ["sketch"], 2, "err",
        "error: 4:18: expected NAME, found ','\n"),
    "expr-across-lines": (
        _HEAD + "term t [x:s] : f(\n"
        "  f(\n"
        " y))\n",
        ["sketch"], 2, "err",
        "error: 6:2: unknown name 'y'\n"),
    "expected-equals": (
        _HEAD + "eq e [x:s] : x ; x\n",
        ["sketch"], 2, "err",
        "error: 4:16: expected EQUALS, found ';'\n"),
    "expected-semi": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q b\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 6:13: expected SEMI, found 'b'\n"),
    "expected-lbrace": (
        _PROOF + "proof p from q\n"
        "  a = hyp q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 5:15: unexpected 'NEWLINE'\n"),
    "expected-from": (
        _PROOF + "proof p form q {\n"
        "  a = hyp q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 5:9: expected 'from'\n"),
    "expected-proof-name": (
        _PROOF + "proof { }\n",
        ["sketch"], 2, "err",
        "error: 5:7: expected NAME, found '{'\n"),
    "expected-step-equals": (
        _PROOF + "proof p from q {\n"
        "  a hyp q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 6:5: expected EQUALS, found 'hyp'\n"),
    "expected-abs-colon": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "  b = abs a w s ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 7:15: expected COLON, found 's'\n"),
    "expected-statement": (
        _HEAD + "; x\n",
        ["sketch"], 2, "err",
        "error: 4:1: expected a statement, found ';'\n"),
    "expected-statement-eof-in-proof": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;",
        ["sketch"], 2, "err",
        "error: 7:1: expected NAME, found 'EOF'\n"),
    "unknown-statement": (
        _HEAD + "lemma x\n",
        ["sketch"], 2, "err",
        "error: 4:1: unknown statement 'lemma'\n"),
    "unknown-rule": (
        _PROOF + "proof p from q {\n"
        "  a = axiom q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 6:7: unknown rule 'axiom'\n"),
    "empty-sort": (
        "sort s\n"
        "  sort  # nothing\n",
        ["sketch"], 2, "err",
        "error: 2:3: sort statement names no sorts\n"),
    "empty-proof": (
        _PROOF + "proof p from q {\n"
        "\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 5:7: proof 'p' has no steps\n"),
    "duplicate-sort": (
        "sort s t\n"
        "sort u t\n",
        ["sketch"], 2, "err",
        "error: 2:8: sort 't' declared twice\n"),
    "duplicate-operation": (
        "sort s\n"
        "op c : -> s\n"
        " op c : s -> s\n",
        ["sketch"], 2, "err",
        "error: 3:2: operation 'c' declared twice\n"),
    "unknown-sort-in-arity": (
        "sort s\n"
        "op c : -> s\n"
        "  op g : s r -> s\n",
        ["sketch"], 2, "err",
        "error: 3:3: operation 'g' mentions unknown sort 'r'\n"),
    "syntax-beats-signature": (
        "sort s s\n"
        "op c :\n",
        ["sketch"], 2, "err",
        "error: 2:7: unexpected 'NEWLINE'\n"),
    "bracket-twice": (
        _HEAD + "term t [x:s, x:s] : x\n",
        ["sketch"], 2, "err",
        "error: 4:1: variable 'x' declared twice in one bracket\n"),
    "bracket-shadows": (
        _HEAD + "  eq e [c:s] : c = c\n",
        ["sketch"], 2, "err",
        "error: 4:3: variable 'c' shadows an operation\n"),
    "bracket-unknown-sort": (
        _HEAD + "term t [x:q] : x\n",
        ["sketch"], 2, "err",
        "error: 4:1: unknown sort 'q'\n"),
    "unknown-name": (
        _HEAD + "term t [x:s] : f(f(y))\n",
        ["sketch"], 2, "err",
        "error: 4:20: unknown name 'y'\n"),
    "unknown-operation": (
        _HEAD + "term t [x:s] : f(g(x))\n",
        ["sketch"], 2, "err",
        "error: 4:18: unknown operation 'g'\n"),
    "unknown-variable-call": (
        _HEAD + "term t [x:s] : f(x())\n",
        ["sketch"], 2, "err",
        "error: 4:18: unknown operation 'x'\n"),
    "takes-arguments": (
        _HEAD + "term t [x:s] : f(f)\n",
        ["sketch"], 2, "err",
        "error: 4:18: operation 'f' takes arguments\n"),
    "arity": (
        _HEAD + "term t [x:s] : f(f(x, x))\n",
        ["sketch"], 2, "err",
        "error: 4:18: f expects 1 arguments, got 2\n"),
    "zero-argument-call": (
        _HEAD + "term t [x:s] : f(f())\n",
        ["sketch"], 2, "err",
        "error: 4:18: f expects 1 arguments, got 0\n"),
    "constant-call": (
        _HEAD + "term t : c()\n",
        ["sketch"], 0, "out",
        "nodes:\n"
        "  s\n"
        "  (s)\n"
        "  ()\n"
        "arrows:\n"
        "  f: (s) -> s\n"
        "  c: () -> s\n"
        "  p1: (s) -> s\n"
        "cones:\n"
        "  vertex (s): p1: (s) -> s\n"
        "  vertex (): (none)\n"),
    "sort-error": (
        "sort s u\n"
        "op f : s -> s\n"
        "op d : -> u\n"
        "term t : f(f(d))\n",
        ["sketch"], 2, "err",
        "error: 4:12: argument 1 of f has sort u, expected s\n"),
    "equation-sides": (
        "sort s u\n"
        "op c : -> s\n"
        "op d : -> u\n"
        "eq e : c = d\n",
        ["sketch"], 2, "err",
        "error: 4:1: equation sides have sorts s and u\n"),
    "operation-before-argument-name": (
        _HEAD + "term t [x:s] : g(y)\n",
        ["sketch"], 2, "err",
        "error: 4:16: unknown operation 'g'\n"),
    "argument-sort-before-later-name": (
        "sort s u\n"
        "op f : s s -> s\n"
        "op d : -> u\n"
        "term t : f(f(d, d), y)\n",
        ["sketch"], 2, "err",
        "error: 4:12: argument 1 of f has sort u, expected s\n"),
    "left-before-right": (
        _HEAD + "eq e [x:s] : f(y) = g(x)\n",
        ["sketch"], 2, "err",
        "error: 4:16: unknown name 'y'\n"),
    "term-before-equation": (
        _HEAD + "eq e : y = y\n"
        "term t : z\n",
        ["sketch"], 2, "err",
        "error: 5:10: unknown name 'z'\n"),
    "bracket-before-expression": (
        _HEAD + "term t [x:q] : y\n",
        ["sketch"], 2, "err",
        "error: 4:1: unknown sort 'q'\n"),
    # a name may be used above the line that declares it: the parser leaves
    # such a declaration to elaboration, which reports in the same order
    "uses-before-declarations": (
        _LATER,
        ["compile", "--term", "t"], 0, "out",
        "term t : (f(g(x1:s, c)) | {x1:s} : s)\n"
        "  input product: (s)\n"
        "  occurrences:   <p1> : -> (s)\n"
        "  regroup:       <<p1, <>>> : -> ((s x 1))\n"
        "  apply:         f . <g . <id[s] . p1, c . <> . p2> . p1> : -> s\n"
        "  normal form:   f(g(p1, c))\n"),
    "bracket-sort-declared-later": (
        "sort s\n"
        "op f : s -> s\n"
        "term t [x:u, y:s] : f(y)\n"
        "sort u\n",
        ["compile", "--term", "t"], 0, "out",
        "term t : (f(x1:s) | {x1:s, x1:u} : s)\n"
        "  input product: (s x u)\n"
        "  occurrences:   <p1> : -> (s)\n"
        "  regroup:       <p1> : -> (s)\n"
        "  apply:         f . <id[s] . p1> : -> s\n"
        "  normal form:   f(p1)\n"),
    "operation-sort-declared-later": (
        "op c : -> s\n"
        "term t : c\n"
        "sort s\n",
        ["compile", "--term", "t"], 0, "out",
        "term t : (c | {} : s)\n"
        "  input product: 1\n"
        "  occurrences:   <> : -> 1\n"
        "  regroup:       <> : -> 1\n"
        "  apply:         c . <> : -> s\n"
        "  normal form:   c\n"),
    "later-operation-arity": (
        "sort s\n"
        "term t [x:s] : g(x, x)\n"
        "op g : s -> s\n",
        ["sketch"], 2, "err",
        "error: 2:16: g expects 1 arguments, got 2\n"),
    "variable-shadows-later-operation": (
        "sort s\n"
        "term t [g:s] : g\n"
        "op g : -> s\n",
        ["sketch"], 2, "err",
        "error: 2:1: variable 'g' shadows an operation\n"),
    "later-duplicate-operation": (
        "sort s\n"
        "op c : -> s\n"
        "term t : c\n"
        " op c : -> s\n",
        ["sketch"], 2, "err",
        "error: 4:2: operation 'c' declared twice\n"),
    "sort-fault-before-later-syntax": (
        "sort s u\n"
        "op f : s -> s\n"
        "op d : -> u\n"
        "term t : f(d)\n"
        "op g :\n",
        ["sketch"], 2, "err",
        "error: 5:7: unexpected 'NEWLINE'\n"),
    "equation-sides-of-calls": (
        "sort s u\n"
        "op f : s -> s\n"
        "op h : s -> u\n"
        "eq e [x:s] : f(x) = h(x)\n",
        ["sketch"], 2, "err",
        "error: 4:1: equation sides have sorts s and u\n"),
    "duplicate-term": (
        _HEAD + "term t : c\n"
        "\n"
        " term t : c\n",
        ["sketch"], 2, "err",
        "error: 6:2: term 't' declared twice\n"),
    "duplicate-equation": (
        _HEAD + "eq e : c = c\n"
        "eq e : c = c\n",
        ["sketch"], 2, "err",
        "error: 5:1: equation 'e' declared twice\n"),
    "duplicate-proof": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "}\n"
        "proof p from q {\n"
        "  a = hyp q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 8:1: proof 'p' declared twice\n"),
    "duplicate-step": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;  a = sym a ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 6:16: step 'a' declared twice\n"),
    "unknown-step": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "  b = subst a x zz ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 7:3: step references unknown step 'zz'\n"),
    "unknown-hypothesis": (
        _PROOF + "eq r : c = c\n"
        "proof p from q {\n"
        "  a = hyp r ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 7:3: step cites 'r', which is not among the proof's "
        "hypotheses\n"),
    "unknown-equation": (
        _PROOF + "proof p from q nope {\n"
        "  a = hyp q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 5:1: proof 'p' cites undefined equation 'nope'\n"),
    # every syntax fault comes before every name fault, and a name fault in
    # an equation before one in a proof
    "later-syntax-before-earlier-step": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;  a = sym a ;\n"
        "}\n"
        "proof r from q {\n"
        "  a = hyp q b\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 9:13: expected SEMI, found 'b'\n"),
    "later-equation-before-earlier-proof": (
        _PROOF + "proof p from q nope {\n"
        "  a = hyp q ;\n"
        "}\n"
        "eq bad : c = f(c, c)\n",
        ["sketch"], 2, "err",
        "error: 8:14: f expects 1 arguments, got 2\n"),
    "earlier-step-before-later-duplicate": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;  a = sym a ;\n"
        "}\n"
        "proof p from q {\n"
        "  a = hyp q ;\n"
        "}\n",
        ["sketch"], 2, "err",
        "error: 6:16: step 'a' declared twice\n"),
    "unknown-variable": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "    b = conc a w ;\n"
        "}\n",
        ["check-proof"], 2, "err",
        "error: 7:5: unknown variable 'w'\n"),
    "ambiguous-variable": (
        "sort s t\n"
        "op m : s s -> s\n"
        "op f : t -> s\n"
        "eq E1 [x:s, y:s] : m(x, y) = m(y, x)\n"
        "eq E2 [x:t] : f(x) = f(x)\n"
        "proof P from E1 E2 {\n"
        "  a = hyp E1 ;\n"
        "  b = hyp E2 ;\n"
        "  u = subst a y b ;\n"
        "  w = conc u x ;\n"
        "}\n",
        ["check-proof"], 2, "err",
        "error: 10:3: variable name 'x' is ambiguous here\n"),
    "abs-unknown-sort": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "  b = abs a w : r ;\n"
        "}\n",
        ["check-proof"], 2, "err",
        "error: 7:3: unknown sort 'r'\n"),
    "refl-unknown-name": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "  b = refl [y:s] f(\n"
        " f(z)) ;\n"
        "}\n",
        ["check-proof"], 2, "err",
        "error: 8:4: unknown name 'z'\n"),
    "refl-unknown-sort": (
        _PROOF + "proof p from q {\n"
        "  b = refl [y:r] y ;\n"
        "}\n",
        ["check-proof"], 2, "err",
        "error: 6:3: unknown sort 'r'\n"),
    "refl-arity": (
        _PROOF + "proof p from q {\n"
        "  b = refl [y:s] f(y, y) ;\n"
        "}\n",
        ["normalize-proof", "--proof", "p"], 2, "err",
        "error: 6:18: f expects 1 arguments, got 2\n"),
    "conc-occurring": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "  b = conc a x ;\n"
        "  c = refl c ;\n"
        "  d = subst b x c ;\n"
        "}\n",
        ["check-proof"], 1, "out",
        "proof p: INVALID (7:3: step 'b': x1:s occurs in the equation and "
        "cannot be removed)\n"),
    "conc-occurring-normalize": (
        _PROOF + "proof p from q {\n"
        "  a = hyp q ;\n"
        "  b = conc a x ;\n"
        "}\n",
        ["normalize-proof", "--proof", "p"], 1, "err",
        "error: 7:3: step 'b': x1:s occurs in the equation and cannot be "
        "removed\n"),
    "formation-failure": (
        _UNITS + "proof bad from lunit runit {\n"
        "  a = hyp lunit ;\n"
        "  b = hyp runit ;\n"
        "  c = trans b a ;\n"
        "}\n",
        ["check-proof"], 1, "out",
        "proof bad: INVALID (11:3: step 'c': premises do not share a middle "
        "term: x1:s vs m(e, x1:s))\n"),
    "first-failing-step-in-declaration-order": (
        _UNITS + "proof bad from lunit runit {\n"
        "  a = hyp lunit ;\n"
        "  b = hyp runit ;\n"
        "  c = trans a b ;\n"
        "  d = conc a x ;\n"
        "}\n",
        ["check-proof", "--levelled"], 1, "out",
        "proof bad: INVALID (11:3: step 'c': premises do not share a middle "
        "term: x1:s vs m(x1:s, e))\n"),
    "side-condition-origin": (
        _UNITS + "proof bad from lunit runit fx {\n"
        "  a = hyp lunit ;\n"
        "\tb = hyp runit ;  c = trans a b ;\n"
        "}\n",
        ["check-proof"], 1, "out",
        "proof bad: INVALID (10:19: step 'c': premises do not share a middle "
        "term: x1:s vs m(x1:s, e))\n"),
    "side-condition-origin-crlf-comment": (
        "sort s t\r\n"
        "op m : s s -> s\r\n"
        "op e : -> s\r\n"
        "op f : s -> s\r\n"
        "eq lunit [x:s] : m(e, x) = x\r\n"
        "eq runit [x:s] : m(x, e) = x\r\n"
        "eq fx [x:s, y:t] : f(x) = f(x)\r\n"
        "# note\r\n"
        "proof bad from lunit fx {  # the proof\r\n"
        "  a = hyp fx ; b = sym a ;\r\n"
        "\x0c"
        "  c = conc b y ;\r\n"
        "}\r\n",
        ["check-proof", "--json"], 1, "out",
        "{\n"
        '  "proofs": [\n'
        "    {\n"
        '      "error": "12:3: step \'c\': sort t is empty; no closed filler '
        'exists",\n'
        '      "proof": "bad",\n'
        '      "valid": false\n'
        "    }\n"
        "  ]\n"
        "}\n"),
    "side-condition-second-proof": (
        _UNITS + "proof ok from lunit {\n"
        "  a = hyp lunit ;\n"
        "}\n"
        "proof bad from lunit runit {\n"
        "  a = hyp lunit ;\n"
        "  b = hyp runit ;\n"
        "     c = trans a b ;\n"
        "}\n",
        ["check-proof"], 1, "out",
        "proof ok: VALID\n"
        "  conclusion: m(e, x1:s) = x1:s  [x1:s]\n"
        "  hypotheses: 1, lemmas: 1, kernel steps: 1\n"
        "  goal: established by lemma 0\n"
        "proof bad: INVALID (14:6: step 'c': premises do not share a middle "
        "term: x1:s vs m(x1:s, e))\n"),
    "subst-variable-not-in-first-premise": (
        _SUBST_ABSENT,
        ["check-proof"], 1, "out",
        "proof r: INVALID (9:3: step 'd': x2:s is not among the first "
        "premise's variables)\n"),
    "subst-variable-not-in-first-premise-levelled": (
        _SUBST_ABSENT,
        ["check-proof", "--levelled"], 1, "out",
        "proof r: INVALID (9:3: step 'd': x2:s is not among the first "
        "premise's variables)\n"),
    "subst-variable-not-in-first-premise-normalize": (
        _SUBST_ABSENT,
        ["normalize-proof", "--proof", "r"], 1, "err",
        "error: 9:3: step 'd': x2:s is not among the first premise's "
        "variables\n"),
    "empty-file-proof": (
        "",
        ["check-proof", "--proof", "p"], 2, "err",
        "error: unknown proof 'p'\n"),
    "only-comment": (
        "# nothing",
        ["sketch"], 0, "out",
        "nodes:\n"
        "arrows:\n"
        "cones:\n"),

}


@pytest.mark.parametrize("text, argv, code, stream, expected",
                         GOLDEN.values(), ids=GOLDEN.keys())
def test_error_output_is_pinned(text, argv, code, stream, expected,
                                tmp_path):
    f = tmp_path / "case.msl"
    f.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = run(argv + [str(f)])
    written = {"out": out.getvalue(), "err": err.getvalue()}
    assert (got, written[stream]) == (code, expected)
    assert written["err" if stream == "out" else "out"] == ""


def _run(argv: list[str], text: str, tmp_path) -> tuple[int, str, str]:
    f = tmp_path / "case.msl"
    f.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = run(argv + [str(f)])
    return got, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["compile", "--term", "t"], ["compile", "--term", "t", "--json"],
    ["check-eq", "--equation", "e"], ["check-eq", "--equation", "e", "--json"],
    ["sketch"], ["sketch", "--json"],
], ids=" ".join)
def test_declarations_may_follow_their_uses(argv, tmp_path):
    first = _run(argv, _DECLARATIONS + _USES, tmp_path)
    assert first[0] in (0, 1) and first[1] and not first[2]
    assert _run(argv, _LATER, tmp_path) == first


# the cases whose fault is in a proof: its syntax, or the names its steps
# and hypotheses cite
IN_A_PROOF = [
    "expected-semi", "expected-lbrace", "expected-from", "expected-proof-name",
    "expected-step-equals", "expected-abs-colon",
    "expected-statement-eof-in-proof", "unknown-rule", "empty-proof",
    "duplicate-proof", "duplicate-step", "unknown-step", "unknown-hypothesis",
    "unknown-equation", "later-syntax-before-earlier-step",
    "later-equation-before-earlier-proof",
    "earlier-step-before-later-duplicate",
]
_OK = "proof ok from q {\n  a = hyp q ;\n}\n"


@pytest.mark.parametrize("argv", [["check-proof", "--proof", "ok"],
                                  ["normalize-proof", "--proof", "ok"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("case", IN_A_PROOF)
def test_a_fault_in_an_unread_proof_is_still_reported(case, argv, tmp_path):
    # a command builds the steps of the one proof it reads, but checks
    # every proof: with a valid proof `ok` put before the first proof, the
    # fault is the whole file's, three lines further on
    text, _, code, stream, expected = GOLDEN[case]
    assert (code, stream) == (2, "err")
    first = text.index("proof ")
    f = tmp_path / "case.msl"
    f.write_text(text[:first] + _OK + text[first:])
    line, rest = expected.removeprefix("error: ").split(":", 1)
    expected = f"error: {int(line) + 3}:{rest}"
    for command in (argv, ["check-proof"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = run(command + [str(f)])
        assert (got, out.getvalue(), err.getvalue()) == (2, "", expected)
