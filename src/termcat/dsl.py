"""The .msl front end: parsing and proof elaboration.

The format is line-oriented:

    sort <name>+
    op <name> : <sort>* -> <sort>
    term <name> [<var>:<sort>, ...] : <expr>
    eq <name> [<var>:<sort>, ...] : <expr> = <expr>
    proof <name> from <eqname>* {
      <step> = hyp <eqname> ;
      <step> = refl [<var>:<sort>, ...] <expr> ;
      <step> = sym <step> ;
      <step> = trans <step> <step> ;
      <step> = conc <step> <var> ;
      <step> = abs <step> <var> : <sort> ;
      <step> = subst <step> <var> <step> ;
    }

Comments run from `#` to end of line.  Variables are scoped to their
declaration bracket; the subscript of a variable is its rank among the
bracket's variables of the same sort, counted in bracket order, so the
canonical variable order (and with it every projection index) is fixed by
the text alone.  Within a proof, variable names travel with the derived
equations: cited equations contribute their bracket names, merges drop
ambiguous names, and `abs` binds its name to the variable it introduces.
A step only resolves its names to a rule instance; `deduction.derive`
checks the rule's side conditions and builds the step.

One pass, no recursion: the scanner pads each symbol with blanks and
splits each line on blanks, with C-level string methods, and checks each
distinct piece once; the token regex `_TOKEN_RE` only finds a stray
character's place and a token's column.  The parser writes each expression
as its names in prefix order, with argument counts; elaboration turns
those into expressions with an explicit stack.  A token's line and
column are computed from the text only when an error or a proof step's
origin needs them.

The walk that reads a term or an equation checks it, resolving each name
against the bracket and the operations above by sort name, and builds
nothing; what it cannot settle is elaborated once the signature is known.
Proofs are checked on syntax and names; their steps, a file's terms and its
equations are built when a command first reads them, so a command checks
the whole file and builds only what it reads.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from itertools import islice
from typing import Callable, Optional

from .deduction import (Abstraction, Concretion, Hypothesis, Reflexivity,
                        Step, Substitutivity, Symmetry, Transitivity, derive)
from .errors import (DeductionError, DslError, DuplicateSort, Record,
                     SignatureError, TermcatError)
from .signature import Signature, Variable, ordered_vars, validate_signature
from .terms import App, Equation, Expression, Term

# --- tokens ------------------------------------------------------------------

# the line breaks `str.splitlines` honours, besides "\n"; the ASCII ones
_OTHER_BREAKS = re.compile(r"[\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_ASCII_BREAKS = "\r\v\f\x1c\x1d\x1e"
_COMMENT_RE = re.compile(r"#[^\n]*")
# The token grammar: blanks, then a token as group 1: "\n", a symbol or a
# name.  Any other character matches outside the group, so `findall` gives
# "" for it.  The scanner splits on blanks instead, and reads this only to
# place a token or a stray character.
_TOKEN_RE = re.compile(r"[^\S\n]*(?:(->|[()\[\]{}:,;=\n]|[A-Za-z_][A-Za-z0-9_]*)"
                       r"|\S)")
EOF = ""  # ends the token list; the scanner lets no other "" through

_SYMBOLS = ("->", "(", ")", "[", "]", "{", "}", ":", ",", ";", "=")
_SPACED = tuple((s, f" {s} ") for s in _SYMBOLS)
_NOT_NAME = frozenset(_SYMBOLS + ("\n", EOF))
# how messages name a symbol the parser expected, or a token without text
_KINDS = {":": "COLON", ";": "SEMI", "=": "EQUALS"}
_SHOWN = {"\n": "NEWLINE", EOF: "EOF"}


def _scan(text: str) -> tuple[str, list[str]]:
    """The text with every line break made "\\n", a final one added and the
    comments cut, which moves no token to another line or column; and its
    tokens, "\\n" ending each line, then EOF.

    `str.split()` splits on the blanks `_TOKEN_RE`'s `\\s` matches.  A
    piece that is neither a symbol nor an ASCII identifier, which is
    exactly a name `[A-Za-z_][A-Za-z0-9_]*`, holds a stray character, and
    `_TOKEN_RE` finds the first one."""
    if (not text.isascii() or any(map(text.__contains__, _ASCII_BREAKS))) \
            and _OTHER_BREAKS.search(text):
        lines = text.splitlines()
        text = "\n".join(lines) + "\n" if lines else ""
    elif text and text[-1] != "\n":
        text += "\n"
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    padded = text
    for symbol, spaced in _SPACED:
        padded = padded.replace(symbol, spaced)
    tokens: list[str] = []
    for line in padded.split("\n")[:-1]:  # the text ends with "\n"
        tokens += line.split()
        tokens.append("\n")
    for token in set(tokens).difference(_NOT_NAME):
        if not (token.isascii() and token.isidentifier()):
            tokens = _TOKEN_RE.findall(text)
            (line, col), = _positions(text, tokens, (tokens.index(EOF),))
            char = text.split("\n")[line - 1][col - 1]
            raise DslError(f"unexpected character {char!r}", line, col)
    tokens.append(EOF)
    return text, tokens


def _positions(text: str, tokens: list[str], indices) -> list[tuple[int, int]]:
    """The line and column of each token in `indices`, which ascend; `text`
    and `tokens` are what `_scan` returned.  The column of a "\\n" is the
    one after its line's last character, EOF's is 1 on the line after the
    last."""
    lines = text.split("\n")
    out = []
    line = done = 0
    for i in indices:
        line += tokens[done:i].count("\n")
        done = first = i
        while first and tokens[first - 1] != "\n":
            first -= 1
        text_of_line = lines[line]
        if first == i:  # only blanks come before it on its line
            col = len(text_of_line) - len(text_of_line.lstrip()) + 1
        else:
            match = next(islice(_TOKEN_RE.finditer(text_of_line + "\n"),
                                i - first, None))
            col = match.start(1) + 1 if match.lastindex else match.end()
        out.append((line + 1, col))
    return out


def end_position(text: str) -> tuple[int, int]:
    """The line and column of the character that follows `text`, counting
    lines as the scanner does; the sentinel stands for that character."""
    lines = (text + "x").splitlines()
    return len(lines), len(lines[-1])


class _Fault(Exception):
    """An input error, raised as a `DslError` at the line and column of
    token `at`, or of the `skip`-th name token after it, once the text is
    at hand."""

    def __init__(self, message: str, at: int, skip: int = 0):
        super().__init__(message)
        self.message, self.at, self.skip = message, at, skip

    def located(self, text: str, tokens: list[str]) -> DslError:
        i, skip = self.at, self.skip
        while skip:
            i += 1
            skip -= tokens[i] not in _NOT_NAME
        return DslError(self.message, *_positions(text, tokens, (i,))[0])


# --- raw syntax ----------------------------------------------------------------

# An expression's names in prefix order, each with its argument count: -1
# for a bare name, so `c` and `c()` differ.  `m(x, e)` is
# (("m", 2), ("x", -1), ("e", -1)).
RawExpr = tuple[tuple[str, int], ...]

Bracket = tuple[tuple[str, str], ...]  # (variable name, sort name) pairs

# `at` is the index of a declaration's first token, and of a step's name;
# it takes no part in `==`


class StepDef(Record):
    # operands: what follows its rule, as `_RULES` spells it, but symbols
    __slots__ = ("name", "rule", "operands", "at")
    _compared = __slots__[:-1]


class ProofDef(Record):
    # hypotheses: equation names, in citation order
    __slots__ = ("name", "hypotheses", "steps", "at")
    _compared = __slots__[:-1]


class TermDecl(Record):
    __slots__ = ("name", "bracket", "expr", "at")
    _compared = __slots__[:-1]


class EqDecl(Record):
    __slots__ = ("name", "bracket", "left", "right", "at")
    _compared = __slots__[:-1]


class SpecFile(Record):
    """A parsed file: its declarations as written, and the terms,
    equations and variable bindings they elaborate to, by name; and the
    scanned text and tokens, from which positions are computed.  Two files
    are equal when their declarations are.  `terms`, `equations` and
    `proofs` are `_OnDemand` mappings."""

    __slots__ = ("signature", "sort_names", "op_decls", "term_decls",
                 "eq_decls", "proofs", "terms", "equations", "term_bindings",
                 "eq_bindings", "text", "tokens")
    _compared = __slots__[1:6]
    __hash__ = None


class _OnDemand(Mapping):
    """Declared names, or positions, in declaration order, to what `build`
    makes of their checked declarations; each is built on first access and
    kept.  A copy or a pickle is a dict, with every value built."""

    __slots__ = ("_build", "_args", "_done")

    def __init__(self, build: Callable, args: dict):
        self._build, self._args, self._done = build, args, {}

    def __getitem__(self, name: str):
        done = self._done
        if name not in done:
            done[name] = self._build(*self._args[name])
        return done[name]

    def __contains__(self, name) -> bool:
        return name in self._args

    def __iter__(self):
        return iter(self._args)

    def __len__(self) -> int:
        return len(self._args)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return dict, (dict(self),)


class _Values(Sequence):
    """The values of a mapping at the given keys, in order, each read when
    accessed: a file's declarations, or a proof's hypotheses.  Equal to the
    tuple of them, which is what a copy or a pickle makes."""

    __slots__ = ("_mapping", "_keys")
    __hash__ = None

    def __init__(self, mapping: Mapping, keys: Sequence):
        self._mapping, self._keys = mapping, keys

    def __getitem__(self, i: int):
        return self._mapping[self._keys[i]]

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other):
        other = tuple(other) if isinstance(other, _Values) else other
        return tuple(self) == other

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


# --- parser --------------------------------------------------------------------


# What follows `<step> = <rule>` in a step, per rule, as `_Parser.read`
# spells it; "s" is the name of a cited step
_RULES = {"hyp": "n;", "refl": "[x;", "sym": "s;", "trans": "ss;",
          "conc": "sn;", "abs": "sn:n;", "subst": "sns;"}
# where a step's operands, the values its shape reads, hold the steps it
# cites; a shape's ":" gives no value, and its ";" comes last
_CITED = {rule: tuple(k for k, kind in enumerate(shape.replace(":", ""))
                      if kind == "s") for rule, shape in _RULES.items()}


def _expected(kind: str, tokens: list[str], i: int) -> _Fault:
    tok = tokens[i]
    return _Fault(f"expected {kind}, found {_SHOWN.get(tok, tok)!r}", i)


class _Parser:
    """Reads statements from the token list; `pos` is the next token.
    Newlines end statements, except inside an expression's parentheses
    and between a proof's steps."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def read(self, shape: str) -> list:
        """The values of what `shape` spells from `pos` on: a name per "n" or
        "s", a bracket per "[", an expression per "x"; any other character is
        that symbol ("\\n" ends a statement) and gives no value."""
        tokens, i = self.tokens, self.pos
        values: list = []
        for kind in shape:
            tok = tokens[i]
            if kind == "n" or kind == "s":
                if tok in _NOT_NAME:
                    raise _expected("NAME", tokens, i)
                values.append(tok)
            elif kind == "[" or kind == "x":
                value, i = (_bracket(tokens, i) if kind == "["
                            else _expr(tokens, i))
                values.append(value)
                continue
            elif tok != kind:
                if kind == "\n":
                    raise _Fault(f"unexpected {tok!r} at end of statement", i)
                raise _expected(_KINDS[kind], tokens, i)
            i += 1
        self.pos = i
        return values

    def names_until(self, stops: tuple[str, ...]) -> list[str]:
        """The names from `pos` on; the token after them must be one of
        `stops`, and `pos` moves past it."""
        tokens, start = self.tokens, self.pos
        i = start
        while tokens[i] not in _NOT_NAME:
            i += 1
        if tokens[i] not in stops:
            tok = tokens[i]
            raise _Fault(f"unexpected {_SHOWN.get(tok, tok)!r}", i)
        self.pos = i + 1
        return tokens[start:i]


def _bracket(tokens: list[str], i: int) -> tuple[Bracket, int]:
    """The bracket `[v:s, ...]` starting at token `i`, or the empty one if
    none does, and the index after it."""
    if tokens[i] != "[":
        return (), i
    entries: list[tuple[str, str]] = []
    i += 1
    if tokens[i] != "]":
        while True:
            if tokens[i] in _NOT_NAME:
                raise _expected("NAME", tokens, i)
            if tokens[i + 1] != ":":
                raise _expected("COLON", tokens, i + 1)
            if tokens[i + 2] in _NOT_NAME:
                raise _expected("NAME", tokens, i + 2)
            entries.append((tokens[i], tokens[i + 2]))
            i += 3
            if tokens[i] != ",":
                break
            i += 1
    if tokens[i] != "]":
        raise _expected("RBRACK", tokens, i)
    return tuple(entries), i + 1


def _expr(tokens: list[str], i: int) -> tuple[RawExpr, int]:
    """The expression starting at token `i`, and the index after it."""
    out: list = []
    calls: list[list[int]] = []  # per open call: its entry, its arguments
    while True:
        tok = tokens[i]
        while tok == "\n":
            i += 1
            tok = tokens[i]
        if tok in _NOT_NAME:
            raise _expected("NAME", tokens, i)
        i += 1
        if tokens[i] != "(":
            out.append((tok, -1))
        else:
            i += 1
            while tokens[i] == "\n":
                i += 1
            if tokens[i] != ")":
                calls.append([len(out), 1])
                out.append(tok)  # its count is known at its ")"
                continue  # with the first argument
            i += 1
            out.append((tok, 0))
        # an expression is complete: a comma starts the next argument of
        # the innermost open call, a ")" completes that call
        while calls:
            while tokens[i] == "\n":
                i += 1
            if tokens[i] == ",":
                i += 1
                calls[-1][1] += 1
                break
            if tokens[i] != ")":
                raise _expected("RPAREN", tokens, i)
            i += 1
            entry, argc = calls.pop()
            out[entry] = (out[entry], argc)
        else:
            return tuple(out), i


def _walk(tokens: list[str], i: int, scope: dict[str, tuple]
          ) -> tuple[Optional[str], int]:
    """The sort name of the expression at token `i`, or None where this
    walk cannot tell, and the index after it: `_expr` then reads it again.
    `scope` maps each operation above and each bracket variable to its
    sort, its first input sort or None, and ")" then its other input
    sorts, last first; a variable has None for the last two."""
    start, todo = i, []  # todo: per open call, ")" and the sorts to come
    want = top = None  # the sort the next name must have; None at the top
    while True:
        entry = scope.get(tokens[i])
        if entry is None:
            break
        sort, first, rest = entry
        if sort != want:
            if want is not None:
                break
            top = sort
        i += 1
        if tokens[i] == "(":
            if rest is None:
                break  # a variable is not called
            i += 1
            todo += rest
            if first is not None:
                want = first
                continue  # with its first argument
        elif first is not None:
            break  # an operation with inputs is not written bare
        while todo:  # an expression is complete
            want = todo.pop()
            more = want != ")"  # a "," starts the call's next argument
            if tokens[i] != ("," if more else ")"):
                return None, _expr(tokens, start)[1]
            i += 1
            if more:
                break
        else:
            return top, i
    return None, _expr(tokens, start)[1]


def _parse_raw(tokens: list[str]):
    p = _Parser(tokens)
    sort_names: list[str] = []
    op_decls: list[tuple[str, tuple[str, ...], str]] = []
    sort_at: list[int] = []
    op_at: list[int] = []
    ops: dict[str, tuple] = {}  # what `_walk` reads
    # per term and equation: `_decl`'s arguments, and if the walk settled it
    heads: dict[str, list[tuple]] = {"term": [], "eq": []}
    proofs: list[tuple] = []  # what `_parse_proof` returns

    while True:
        while tokens[p.pos] == "\n":
            p.pos += 1
        at = p.pos
        word = tokens[at]
        if word == EOF:
            break
        p.pos += 1
        if word in _NOT_NAME:
            raise _Fault(f"expected a statement, found {word!r}", at)
        if word == "sort":
            names = p.names_until(("\n", EOF))
            if not names:
                raise _Fault("sort statement names no sorts", at)
            sort_names.extend(names)
            sort_at.extend(range(at + 1, p.pos - 1))
        elif word == "op":
            name, = p.read("n:")
            inputs = tuple(p.names_until(("->",)))
            output, = p.read("n\n")
            op_decls.append((name, inputs, output))
            op_at.append(at)
            ops[name] = output, inputs[0] if inputs else None, \
                (")",) + inputs[:0:-1]
        elif word in heads:
            name, bracket = p.read("n[:")
            scope = ops | {v: (s, None, None) for v, s in bracket}
            sort, p.pos = _walk(tokens, start := p.pos, scope)
            if word == "eq":
                p.read("=")
                right, p.pos = _walk(tokens, p.pos, scope)
                sort = sort if sort == right else None
            p.read("\n")
            heads[word].append((name, bracket, at, start, sort is not None))
        elif word == "proof":
            proofs.append(_parse_proof(p, at))
        else:
            raise _Fault(f"unknown statement {word!r}", at)
    return (tuple(sort_names), tuple(op_decls), heads["term"], heads["eq"],
            tuple(proofs), sort_at, op_at)


def _parse_proof(p: _Parser, at: int) -> tuple:
    """The name, hypotheses, step indices and index of the proof at token
    `at`, and the first fault in the names its steps cite, or None.  A
    syntax fault is raised; a name fault waits for `_resolve`, which
    reports the signature's, the terms' and the equations' first."""
    tokens = p.tokens
    name, word = p.read("nn")
    if word != "from":
        raise _Fault("expected 'from'", p.pos - 1)
    hyps = tuple(p.names_until(("{",)))
    steps_at: list[int] = []
    known: set[str] = set()
    fault = None
    while True:
        while tokens[p.pos] == "\n":
            p.pos += 1
        if tokens[p.pos] == "}":
            p.pos += 1
            break
        step_at = p.pos
        if (tokens[step_at] in _NOT_NAME or tokens[step_at + 1] != "="
                or tokens[step_at + 2] not in _RULES):
            _, rule = p.read("n=n")  # raises the first fault in the head
            raise _Fault(f"unknown rule {rule!r}", step_at + 2)
        sname, rule = tokens[step_at], tokens[step_at + 2]
        p.pos = step_at + 3
        operands = p.read(_RULES[rule])
        steps_at.append(step_at)
        if fault:
            continue
        if sname in known:
            fault = _Fault(f"step {sname!r} declared twice", step_at)
        elif rule == "hyp" and operands[0] not in hyps:
            fault = _Fault(f"step cites {operands[0]!r}, which is not among "
                           "the proof's hypotheses", step_at)
        for k in _CITED[rule]:
            if operands[k] not in known and not fault:
                fault = _Fault(f"step references unknown step "
                               f"{operands[k]!r}", step_at)
        known.add(sname)
    if not steps_at:
        raise _Fault(f"proof {name!r} has no steps", at + 1)
    return name, hyps, steps_at, at, fault


def _proof(tokens: list[str], name: str, hyps: tuple[str, ...],
           steps_at: list[int], at: int) -> ProofDef:
    """The proof that `_parse_proof` checked, its steps read again."""
    p = _Parser(tokens)
    steps = []
    for i in steps_at:  # the step's name; its rule is two tokens on
        rule = tokens[i + 2]
        p.pos = i + 3
        steps.append(StepDef(tokens[i], rule, tuple(p.read(_RULES[rule])), i))
    return ProofDef(name, hyps, tuple(steps), at)


# --- elaboration ----------------------------------------------------------------


def _bind_bracket(sig: Signature, bracket: Bracket, at: int
                  ) -> tuple[dict[str, Variable], tuple[Variable, ...]]:
    """The bracket's variables by name, each the one expression its name
    stands for in the expressions the bracket scopes, and the variables in
    canonical order."""
    binding: dict[str, Variable] = {}
    per_sort: dict[str, int] = {}  # by sort name, which names one sort
    for vname, sname in bracket:
        if vname in binding:
            raise _Fault(f"variable {vname!r} declared twice in one bracket",
                         at)
        if vname in sig.operation_named:
            raise _Fault(f"variable {vname!r} shadows an operation", at)
        sort = sig.sort_named.get(sname)
        if sort is None:
            raise _Fault(f"unknown sort {sname!r}", at)
        num = per_sort[sname] = per_sort.get(sname, 0) + 1
        binding[vname] = Variable(sort, num)
    return binding, ordered_vars(binding.values())


def _first_name(bracket: Bracket) -> int:
    """Which name token after a declaration's first token, or after a step's
    name, is the first name of its expression: the one after the declared
    name (or `refl`) and the two names of each bracket entry."""
    return 2 + 2 * len(bracket)


def _elaborate(sig: Signature, binding: dict[str, Variable], raw: RawExpr,
               at: int, skip: int) -> Expression:
    """The expression `raw` spells, whose first name is the `skip`-th name
    token after token `at`.  An operation is looked up when its name comes
    and applied once its last argument is built, so the checks run in the
    order of a left-to-right reading."""
    ops = sig.operation_named
    done: list[Expression] = []  # built expressions, innermost last
    # open calls: operation, its first argument's place in `done`, its
    # entry, and how many expressions the enclosing call still needs
    calls: list[tuple] = []
    need = 1  # how many expressions the innermost open call still needs
    entry = 0
    try:
        for k, (name, argc) in enumerate(raw):
            if argc < 0:
                e = binding.get(name)
                if e is None:
                    op = ops.get(name)
                    if op is None:
                        raise _Fault(f"unknown name {name!r}", at, skip + k)
                    if op.inputs:
                        raise _Fault(f"operation {name!r} takes arguments",
                                     at, skip + k)
                    e = App(op, ())
            else:
                op = ops.get(name)
                if op is None:
                    raise _Fault(f"unknown operation {name!r}", at, skip + k)
                if argc:
                    calls.append((op, len(done), k, need))
                    need = argc
                    continue
                entry = k
                e = App(op, ())
            done.append(e)
            need -= 1
            while not need and calls:
                op, first, entry, need = calls.pop()
                args = tuple(done[first:])
                del done[first:]
                done.append(App(op, args))
                need -= 1
    except TermcatError as exc:
        raise _Fault(str(exc), at, skip + entry) from None
    return done[0]


def _term(sig: Signature, binding: dict[str, Variable],
          vs: tuple[Variable, ...], decls: Mapping, k: int) -> Term:
    td = decls[k]
    e = _elaborate(sig, binding, td.expr, td.at, _first_name(td.bracket))
    return Term(e, vs, e.sort)


def _equation(sig: Signature, binding: dict[str, Variable],
              vs: tuple[Variable, ...], decls: Mapping, k: int
              ) -> Equation:
    ed = decls[k]
    skip = _first_name(ed.bracket)
    left = _elaborate(sig, binding, ed.left, ed.at, skip)
    right = _elaborate(sig, binding, ed.right, ed.at, skip + len(ed.left))
    try:
        return Equation(left, right, vs)
    except TermcatError as exc:
        raise _Fault(str(exc), ed.at)


def _decl(tokens: list[str], name: str, bracket: Bracket, at: int, i: int):
    """The declaration at token `at`, its expressions read from token `i`."""
    left, i = _expr(tokens, i)
    if tokens[at] == "term":
        return TermDecl(name, bracket, left, at)
    return EqDecl(name, bracket, left, _expr(tokens, i + 1)[0], at)


def parse_spec(text: str) -> SpecFile:
    """Parse and resolve a .msl file; every name must resolve and every
    declaration must elaborate, but a term or equation is built only when
    it is read."""
    text, tokens = _scan(text)
    try:
        return _resolve(text, tokens)
    except _Fault as fault:
        raise fault.located(text, tokens) from None


def _resolve(text: str, tokens: list[str]) -> SpecFile:
    (sort_names, op_decls, term_heads, eq_heads, proofs, sort_at,
     op_at) = _parse_raw(tokens)
    try:
        sig = validate_signature(sort_names, op_decls)
    except DuplicateSort as exc:
        raise _Fault(str(exc), sort_at[exc.index])
    except SignatureError as exc:
        raise _Fault(str(exc), op_at[exc.index])

    # declarations repeat their brackets, so each distinct bracket is bound
    # once; the bindings are shared and never changed
    bound: dict[Bracket, tuple] = {}

    # the walk settled most declarations against the operations above
    # them; any other is elaborated now, which raises its error or keeps it
    read: list = []
    for kind, heads, build in (("term", term_heads, _term),
                               ("equation", eq_heads, _equation)):
        decls = _OnDemand(_decl, {k: (tokens, *head[:4])
                                  for k, head in enumerate(heads)})
        args: dict[str, tuple] = {}
        bindings: dict[str, dict[str, Variable]] = {}
        made = _OnDemand(build, args)
        for k, (name, bracket, at, _, settled) in enumerate(heads):
            if name in args:
                raise _Fault(f"{kind} {name!r} declared twice", at)
            if bracket not in bound:
                bound[bracket] = _bind_bracket(sig, bracket, at)
            bindings[name], vs = bound[bracket]
            args[name] = (sig, bindings[name], vs, decls, k)
            if not settled:
                made[name]  # raises its error, or is built and kept
        read += _Values(decls, range(len(heads))), made, bindings
    term_decls, terms, term_bindings, eq_decls, equations, eq_bindings = read

    proof_args: dict[str, tuple] = {}
    for name, hyps, steps_at, at, fault in proofs:
        if name in proof_args:
            raise _Fault(f"proof {name!r} declared twice", at)
        if fault:
            raise fault
        for h in hyps:
            if h not in equations:
                raise _Fault(f"proof {name!r} cites undefined equation "
                             f"{h!r}", at)
        proof_args[name] = (tokens, name, hyps, steps_at, at)
    return SpecFile(sig, sort_names, op_decls, term_decls, eq_decls,
                    _OnDemand(_proof, proof_args), terms, equations,
                    term_bindings, eq_bindings, text, tokens)


# --- proofs to deduction steps -------------------------------------------------------


def _merge_names(a: dict[str, Optional[Variable]],
                 b: dict[str, Optional[Variable]]):
    out = dict(a)
    for k, v in b.items():
        if k in out and out[k] != v:
            out[k] = None  # ambiguous
        else:
            out[k] = v
    return out


def _resolve_var(names: dict[str, Optional[Variable]], name: str,
                 step: StepDef) -> Variable:
    if name not in names:
        raise _Fault(f"unknown variable {name!r}", step.at)
    v = names[name]
    if v is None:
        raise _Fault(f"variable name {name!r} is ambiguous here", step.at)
    return v


def build_proof(sf: SpecFile, proof: ProofDef
                ) -> tuple[tuple[Step, ...], Sequence[Equation]]:
    """Turn a named proof into its steps, in declaration order, plus its
    hypotheses, whose equations are built when read.  Each step cites the
    earlier steps it names by their indices; the last step is the proof's
    conclusion.

    Each step is the one `deduction.derive` builds from its rule, which
    checks the rule's side conditions first.  The first step in declaration
    order that fails one raises its `DeductionError`, not a parse error,
    with its `step` set, so that the caller can name the step and its
    line:column.
    """
    sig = sf.signature
    hypotheses = _Values(sf.equations, proof.hypotheses)
    index = {s.name: k for k, s in enumerate(proof.steps)}
    steps: list[Step] = []
    # each step's variable names -> Variable, or None where ambiguous;
    # shared between steps and with the brackets' bindings, so copied to
    # change
    names: list[dict[str, Optional[Variable]]] = []
    try:
        for k, s in enumerate(proof.steps):
            cites = tuple(index[s.operands[j]] for j in _CITED[s.rule])
            rule, bound = _build_step(sf, sig, proof, s, steps, cites,
                                      [names[i] for i in cites])
            try:
                steps.append(derive(sig, rule, cites, steps, hypotheses))
            except DeductionError as exc:
                exc.step = k
                raise
            names.append(bound)
    except _Fault as fault:
        raise fault.located(sf.text, sf.tokens) from None
    return tuple(steps), hypotheses


def step_origin(sf: SpecFile, proof: ProofDef, k: Optional[int]) -> str:
    """Where step k of `proof` is declared, as the prefix of a message
    about it, e.g. "7:3: step 'c': "; "" if k is None."""
    if k is None:
        return ""
    s = proof.steps[k]
    (line, col), = _positions(sf.text, sf.tokens, (s.at,))
    return f"{line}:{col}: step {s.name!r}: "


def _build_step(sf: SpecFile, sig: Signature, proof: ProofDef, s: StepDef,
                steps: list[Step], cites: tuple[int, ...],
                premise_names: list[dict[str, Optional[Variable]]]):
    """The rule and variable names of step `s`, which cites `cites` among
    the earlier `steps`."""
    if s.rule == "hyp":
        idx = proof.hypotheses.index(s.operands[0])
        return Hypothesis(idx), sf.eq_bindings[s.operands[0]]
    if s.rule == "refl":
        bracket, expr = s.operands
        binding, vs = _bind_bracket(sig, bracket, s.at)
        e = _elaborate(sig, binding, expr, s.at, _first_name(bracket))
        return Reflexivity(Term(e, vs, e.sort)), binding
    names = premise_names[0]
    if s.rule == "sym":
        rule = Symmetry()
    elif s.rule == "trans":
        rule = Transitivity()
        names = _merge_names(names, premise_names[1])
    elif s.rule == "conc":
        rule = Concretion(_resolve_var(names, s.operands[1], s))
    elif s.rule == "abs":
        _, var_name, sort_name = s.operands
        vs = steps[cites[0]].equation.vars
        sort = sig.sort_named.get(sort_name)
        if sort is None:
            raise _Fault(f"unknown sort {sort_name!r}", s.at)
        x = names.get(var_name)
        if x is None or x.sort != sort or x in vs:
            num = 1
            while Variable(sort, num) in vs:
                num += 1
            x = Variable(sort, num)
        rule = Abstraction(x)
        names = dict(names)
        names[var_name] = x
    else:  # the parser admits no other rule
        rule = Substitutivity(_resolve_var(names, s.operands[1], s))
        names = _merge_names(names, premise_names[1])
    return rule, names
