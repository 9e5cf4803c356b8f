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
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .deduction import (Abstraction, Concretion, DeductionTree,
                        Hypothesis, Reflexivity, Substitutivity, Symmetry,
                        Transitivity)
from .errors import (DeductionError, DslSyntaxError, DuplicateSort,
                     NameResolutionError, Record, SideConditionViolated,
                     SignatureError, TermcatError)
from .signature import Signature, Sort, Variable, ordered_vars, validate_signature
from .subst import subst_expr
from .terms import (App, Equation, Expression, Var, make_equation,
                    make_term)

# --- tokens ------------------------------------------------------------------

# leading blanks, then one token: a symbol, a name, or any other
# character.  `findall` hands back both as plain strings, so a column is
# a running sum and no match object is built per token.
_TOKEN_RE = re.compile(r"(\s*)(?:(->|[()\[\]{}:,;=])|([A-Za-z_][A-Za-z0-9_]*)"
                       r"|(\S))")
_SYMBOLS = {"->": "ARROW", "(": "LPAREN", ")": "RPAREN", "[": "LBRACK",
            "]": "RBRACK", "{": "LBRACE", "}": "RBRACE", ":": "COLON",
            ",": "COMMA", ";": "SEMI", "=": "EQUALS"}

# (kind, text, line, col); plain tuples, as the parser reads them by index
Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    add = out.append
    lines = text.splitlines()
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0]
        col = 1
        for blanks, symbol, name, other in _TOKEN_RE.findall(line):
            col += len(blanks)
            if name:
                add(("NAME", name, ln, col))
                col += len(name)
            elif symbol:
                add((_SYMBOLS[symbol], symbol, ln, col))
                col += len(symbol)
            else:
                raise DslSyntaxError(f"unexpected character {other!r}",
                                     ln, col)
        add(("NEWLINE", "", ln, len(line) + 1))
    add(("EOF", "", len(lines) + 1, 1))
    return out


def end_position(text: str) -> tuple[int, int]:
    """The line and column of the character that follows `text`, counting
    lines as `_tokenize` does; the sentinel stands for that character."""
    lines = (text + "x").splitlines()
    return len(lines), len(lines[-1])


# --- raw syntax ----------------------------------------------------------------


# A raw node's line and column take no part in `==`.  Raw nodes are not
# frozen: an assignment in `__init__` costs a third of an
# `object.__setattr__` call, and these are the nodes a file has most of.
# Nothing assigns to them after parsing.


class RawName(Record):
    __slots__ = ("name", "line", "col")
    _compared = ("name",)
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, name: str, line: int, col: int):
        self.name = name
        self.line = line
        self.col = col


class RawCall(Record):
    __slots__ = ("name", "args", "line", "col")
    _compared = ("name", "args")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, name: str, args: tuple["RawExpr", ...], line: int,
                 col: int):
        self.name = name
        self.args = args
        self.line = line
        self.col = col


RawExpr = Union[RawName, RawCall]

Bracket = tuple[tuple[str, str], ...]  # (variable name, sort name) pairs

# a declaration's line and column take no part in `==`


class StepDef(Record):
    __slots__ = ("name", "rule", "eq_name", "steps", "var_name",
                 "sort_name", "bracket", "expr", "line", "col")
    _compared = __slots__[:-2]


class ProofDef(Record):
    # hypotheses: equation names, in citation order
    __slots__ = ("name", "hypotheses", "steps", "line", "col")
    _compared = __slots__[:-2]


class TermDecl(Record):
    __slots__ = ("name", "bracket", "expr", "line", "col")
    _compared = __slots__[:-2]


class EqDecl(Record):
    __slots__ = ("name", "bracket", "left", "right", "line", "col")
    _compared = __slots__[:-2]


class SpecFile(Record):
    """A parsed file: its declarations as written, and the terms,
    equations and variable bindings they elaborate to, by name.  Two
    files are equal when their declarations are."""

    __slots__ = ("signature", "sort_names", "op_decls", "term_decls",
                 "eq_decls", "proofs", "terms", "equations", "term_bindings",
                 "eq_bindings")
    _compared = __slots__[1:6]
    __hash__ = None

    def proof(self, name: str) -> ProofDef:
        for p in self.proofs:
            if p.name == name:
                return p
        raise KeyError(name)


# --- parser --------------------------------------------------------------------


def _expected(kind: str, tok: Token) -> DslSyntaxError:
    return DslSyntaxError(f"expected {kind}, found {tok[1] or tok[0]!r}",
                          tok[2], tok[3])


class _Parser:
    """Recursive descent over the token list; `pos` is the next token.
    Newlines end statements, except inside an expression's parentheses
    and between a proof's steps."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def skip_newlines(self) -> None:
        while self.tokens[self.pos][0] == "NEWLINE":
            self.pos += 1

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise _expected(kind, tok)
        self.pos += 1
        return tok

    def name(self) -> str:
        return self.expect("NAME")[1]

    def end_line(self):
        tok = self.next()
        if tok[0] not in ("NEWLINE", "EOF"):
            raise DslSyntaxError(
                f"unexpected {tok[1]!r} at end of statement", tok[2], tok[3])

    def names_until(self, stop_kinds: tuple[str, ...]) -> list[Token]:
        out = []
        while self.kind() == "NAME":
            out.append(self.next())
        if self.kind() not in stop_kinds:
            tok = self.tokens[self.pos]
            raise DslSyntaxError(f"unexpected {tok[1] or tok[0]!r}",
                                 tok[2], tok[3])
        return out

    def bracket(self) -> Bracket:
        """`[v:s, ...]` if one comes next, else the empty bracket."""
        entries: list[tuple[str, str]] = []
        if self.kind() != "LBRACK":
            return ()
        self.pos += 1
        if self.kind() != "RBRACK":
            while True:
                name = self.name()
                self.expect("COLON")
                entries.append((name, self.name()))
                if self.kind() != "COMMA":
                    break
                self.pos += 1
        self.expect("RBRACK")
        return tuple(entries)

    def expr(self) -> RawExpr:
        raw, self.pos = _expr(self.tokens, self.pos)
        return raw


def _expr(toks: list[Token], i: int) -> tuple[RawExpr, int]:
    """The expression starting at token `i`, and the index after it."""
    while toks[i][0] == "NEWLINE":
        i += 1
    kind, name, line, col = toks[i]
    if kind != "NAME":
        raise _expected("NAME", toks[i])
    i += 1
    if toks[i][0] != "LPAREN":
        return RawName(name, line, col), i
    i += 1
    args: list[RawExpr] = []
    while toks[i][0] == "NEWLINE":
        i += 1
    if toks[i][0] != "RPAREN":
        while True:
            arg, i = _expr(toks, i)
            args.append(arg)
            while toks[i][0] == "NEWLINE":
                i += 1
            if toks[i][0] != "COMMA":
                break
            i += 1
        if toks[i][0] != "RPAREN":
            raise _expected("RPAREN", toks[i])
    return RawCall(name, tuple(args), line, col), i + 1


def _parse_raw(text: str):
    p = _Parser(_tokenize(text))
    sort_names: list[str] = []
    op_decls: list[tuple[str, tuple[str, ...], str]] = []
    sort_locs: list[tuple[int, int]] = []
    op_locs: list[tuple[int, int]] = []
    term_decls: list[TermDecl] = []
    eq_decls: list[EqDecl] = []
    proofs: list[ProofDef] = []

    while True:
        p.skip_newlines()
        kind, word, line, col = p.next()
        if kind == "EOF":
            break
        if kind != "NAME":
            raise DslSyntaxError(f"expected a statement, found {word!r}",
                                 line, col)
        if word == "sort":
            names = p.names_until(("NEWLINE", "EOF"))
            if not names:
                raise DslSyntaxError("sort statement names no sorts",
                                     line, col)
            sort_names.extend(n[1] for n in names)
            sort_locs.extend((n[2], n[3]) for n in names)
            p.end_line()
        elif word == "op":
            name = p.name()
            p.expect("COLON")
            inputs = tuple(t[1] for t in p.names_until(("ARROW",)))
            p.expect("ARROW")
            output = p.name()
            p.end_line()
            op_decls.append((name, inputs, output))
            op_locs.append((line, col))
        elif word == "term":
            name = p.name()
            bracket = p.bracket()
            p.expect("COLON")
            expr = p.expr()
            p.end_line()
            term_decls.append(TermDecl(name, bracket, expr, line, col))
        elif word == "eq":
            name = p.name()
            bracket = p.bracket()
            p.expect("COLON")
            left = p.expr()
            p.expect("EQUALS")
            right = p.expr()
            p.end_line()
            eq_decls.append(EqDecl(name, bracket, left, right, line, col))
        elif word == "proof":
            proofs.append(_parse_proof(p, line, col))
        else:
            raise DslSyntaxError(f"unknown statement {word!r}", line, col)
    return (tuple(sort_names), tuple(op_decls), tuple(term_decls),
            tuple(eq_decls), tuple(proofs), sort_locs, op_locs)


def _parse_proof(p: _Parser, line: int, col: int) -> ProofDef:
    name = p.expect("NAME")
    kw = p.expect("NAME")
    if kw[1] != "from":
        raise DslSyntaxError("expected 'from'", kw[2], kw[3])
    hyps = tuple(t[1] for t in p.names_until(("LBRACE",)))
    p.expect("LBRACE")
    steps: list[StepDef] = []
    while True:
        p.skip_newlines()
        if p.kind() == "RBRACE":
            p.pos += 1
            break
        _, sname, sline, scol = p.expect("NAME")
        p.expect("EQUALS")
        rule = p.expect("NAME")
        kind = rule[1]
        eq_name = var_name = sort_name = bracket = expr = None
        refs: tuple[str, ...] = ()
        if kind == "hyp":
            eq_name = p.name()
        elif kind == "refl":
            bracket = p.bracket()
            expr = p.expr()
        elif kind == "sym":
            refs = (p.name(),)
        elif kind == "trans":
            refs = (p.name(), p.name())
        elif kind == "conc":
            refs = (p.name(),)
            var_name = p.name()
        elif kind == "abs":
            refs = (p.name(),)
            var_name = p.name()
            p.expect("COLON")
            sort_name = p.name()
        elif kind == "subst":
            first = p.name()
            var_name = p.name()
            refs = (first, p.name())
        else:
            raise DslSyntaxError(f"unknown rule {kind!r}", rule[2], rule[3])
        p.expect("SEMI")
        steps.append(StepDef(sname, kind, eq_name, refs, var_name, sort_name,
                             bracket, expr, sline, scol))
    if not steps:
        raise DslSyntaxError(f"proof {name[1]!r} has no steps",
                             name[2], name[3])
    return ProofDef(name[1], hyps, tuple(steps), line, col)


# --- elaboration ----------------------------------------------------------------


def _bind_bracket(sig: Signature, bracket: Bracket, line: int,
                  col: int) -> dict[str, Variable]:
    binding: dict[str, Variable] = {}
    per_sort: dict[Sort, int] = {}
    for vname, sname in bracket:
        if vname in binding:
            raise NameResolutionError(
                f"variable {vname!r} declared twice in one bracket", line, col)
        if vname in sig.operation_named:
            raise NameResolutionError(
                f"variable {vname!r} shadows an operation", line, col)
        try:
            sort = sig.sort(sname)
        except KeyError:
            raise NameResolutionError(f"unknown sort {sname!r}", line, col)
        per_sort[sort] = per_sort.get(sort, 0) + 1
        binding[vname] = Variable(sort, per_sort[sort])
    return binding


def _elab_expr(sig: Signature, binding: dict[str, Variable],
               raw: RawExpr) -> Expression:
    ops = sig.operation_named
    if isinstance(raw, RawName):
        var = binding.get(raw.name)
        if var is not None:
            return Var(var)
        op = ops.get(raw.name)
        if op is None:
            raise NameResolutionError(f"unknown name {raw.name!r}",
                                      raw.line, raw.col)
        if op.inputs:
            raise DslSyntaxError(
                f"operation {raw.name!r} takes arguments", raw.line, raw.col)
        return App(op, ())
    op = ops.get(raw.name)
    if op is None:
        raise NameResolutionError(f"unknown operation {raw.name!r}",
                                  raw.line, raw.col)
    args = tuple([_elab_expr(sig, binding, a) for a in raw.args])
    try:
        return App(op, args)
    except TermcatError as exc:
        raise DslSyntaxError(str(exc), raw.line, raw.col)


def parse_spec(text: str) -> SpecFile:
    """Parse and resolve a .msl file; every name must resolve."""
    (sort_names, op_decls, term_decls, eq_decls, proofs, sort_locs,
     op_locs) = _parse_raw(text)
    try:
        sig = validate_signature(sort_names, op_decls)
    except DuplicateSort as exc:
        raise DslSyntaxError(str(exc), *sort_locs[exc.index])
    except SignatureError as exc:
        raise DslSyntaxError(str(exc), *op_locs[exc.index])

    sf = SpecFile(sig, sort_names, op_decls, term_decls, eq_decls, proofs,
                  {}, {}, {}, {})
    for td in term_decls:
        if td.name in sf.terms:
            raise NameResolutionError(f"term {td.name!r} declared twice",
                                      td.line, td.col)
        binding = _bind_bracket(sig, td.bracket, td.line, td.col)
        e = _elab_expr(sig, binding, td.expr)
        try:
            sf.terms[td.name] = make_term(e, binding.values(), e.sort)
        except TermcatError as exc:
            raise DslSyntaxError(str(exc), td.line, td.col)
        sf.term_bindings[td.name] = binding
    for ed in eq_decls:
        if ed.name in sf.equations:
            raise NameResolutionError(f"equation {ed.name!r} declared twice",
                                      ed.line, ed.col)
        binding = _bind_bracket(sig, ed.bracket, ed.line, ed.col)
        left = _elab_expr(sig, binding, ed.left)
        right = _elab_expr(sig, binding, ed.right)
        try:
            sf.equations[ed.name] = make_equation(left, right,
                                                  binding.values())
        except TermcatError as exc:
            raise DslSyntaxError(str(exc), ed.line, ed.col)
        sf.eq_bindings[ed.name] = binding

    seen_proofs: set[str] = set()
    for proof in proofs:
        if proof.name in seen_proofs:
            raise NameResolutionError(
                f"proof {proof.name!r} declared twice", proof.line, proof.col)
        seen_proofs.add(proof.name)
        known: set[str] = set()
        for s in proof.steps:
            if s.name in known:
                raise NameResolutionError(f"step {s.name!r} declared twice",
                                          s.line, s.col)
            if s.rule == "hyp" and s.eq_name not in proof.hypotheses:
                raise NameResolutionError(
                    f"step cites {s.eq_name!r}, which is not among the "
                    "proof's hypotheses", s.line, s.col)
            for ref in s.steps:
                if ref not in known:
                    raise NameResolutionError(
                        f"step references unknown step {ref!r}",
                        s.line, s.col)
            known.add(s.name)
        for h in proof.hypotheses:
            if h not in sf.equations:
                raise NameResolutionError(
                    f"proof {proof.name!r} cites undefined equation {h!r}",
                    proof.line, proof.col)
    return sf


# --- proofs to deduction trees -------------------------------------------------------


class _StepResult(Record):
    __slots__ = ("tree", "names")  # names: variable name -> Variable or None
    __hash__ = None


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
        raise NameResolutionError(f"unknown variable {name!r}",
                                  step.line, step.col)
    v = names[name]
    if v is None:
        raise NameResolutionError(
            f"variable name {name!r} is ambiguous here", step.line, step.col)
    return v


def build_proof(sf: SpecFile, proof: ProofDef
                ) -> tuple[DeductionTree, list[Equation]]:
    """Turn a named proof into a deduction tree plus its hypothesis list.

    Conclusions are computed rule by rule; side-condition failures surface
    as deduction errors, not parse errors.
    """
    sig = sf.signature
    hypotheses = [sf.equations[h] for h in proof.hypotheses]
    results: dict[str, _StepResult] = {}
    for s in proof.steps:
        try:
            results[s.name] = _build_step(sf, sig, proof, hypotheses,
                                          results, s)
        except (DeductionError, DslSyntaxError, NameResolutionError):
            raise
        except TermcatError as exc:
            # a conclusion failed to form: the rule application is invalid
            raise SideConditionViolated(
                f"step {s.name!r}: {exc}") from exc
    # the last step is the conclusion
    return results[proof.steps[-1].name].tree, hypotheses


def _build_step(sf: SpecFile, sig: Signature, proof: ProofDef,
                hypotheses: list[Equation],
                results: dict[str, "_StepResult"],
                s: StepDef) -> "_StepResult":
    where = f"{s.line}:{s.col}: step {s.name!r}"
    if s.rule == "hyp":
        idx = proof.hypotheses.index(s.eq_name)
        eq = hypotheses[idx]
        return _StepResult(DeductionTree(eq, Hypothesis(idx), (), where),
                           dict(sf.eq_bindings[s.eq_name]))
    if s.rule == "refl":
        binding = _bind_bracket(sig, s.bracket or (), s.line, s.col)
        e = _elab_expr(sig, binding, s.expr)
        term = make_term(e, binding.values(), e.sort)
        eq = make_equation(e, e, term.vars)
        return _StepResult(DeductionTree(eq, Reflexivity(term), (), where),
                           dict(binding))
    if s.rule == "sym":
        prem = results[s.steps[0]]
        eq = make_equation(prem.tree.conclusion.right,
                           prem.tree.conclusion.left,
                           prem.tree.conclusion.vars)
        return _StepResult(DeductionTree(eq, Symmetry(), (prem.tree,),
                                         where),
                           dict(prem.names))
    if s.rule == "trans":
        p1, p2 = results[s.steps[0]], results[s.steps[1]]
        c1, c2 = p1.tree.conclusion, p2.tree.conclusion
        eq = make_equation(c1.left, c2.right, c1.vars)
        return _StepResult(
            DeductionTree(eq, Transitivity(), (p1.tree, p2.tree), where),
            _merge_names(p1.names, p2.names))
    if s.rule == "conc":
        prem = results[s.steps[0]]
        x = _resolve_var(prem.names, s.var_name, s)
        c = prem.tree.conclusion
        eq = make_equation(c.left, c.right,
                           tuple(v for v in c.vars if v != x))
        return _StepResult(DeductionTree(eq, Concretion(x), (prem.tree,),
                                         where),
                           dict(prem.names))
    if s.rule == "abs":
        prem = results[s.steps[0]]
        c = prem.tree.conclusion
        try:
            sort = sig.sort(s.sort_name)
        except KeyError:
            raise NameResolutionError(f"unknown sort {s.sort_name!r}",
                                      s.line, s.col)
        existing = prem.names.get(s.var_name)
        if existing is not None and existing.sort == sort \
                and existing not in c.vars:
            x = existing
        else:
            num = 1
            while Variable(sort, num) in c.vars:
                num += 1
            x = Variable(sort, num)
        eq = make_equation(c.left, c.right, c.vars + (x,))
        names = dict(prem.names)
        names[s.var_name] = x
        return _StepResult(DeductionTree(eq, Abstraction(x), (prem.tree,),
                                         where),
                           names)
    if s.rule == "subst":
        p1, p2 = results[s.steps[0]], results[s.steps[1]]
        x = _resolve_var(p1.names, s.var_name, s)
        c1, c2 = p1.tree.conclusion, p2.tree.conclusion
        if x not in c1.vars:
            raise SideConditionViolated(
                f"{x} is not among the variables of step {s.steps[0]!r}")
        left = subst_expr(c1.left, x, c2.left)
        right = subst_expr(c1.right, x, c2.right)
        kept = tuple(v for v in c1.vars if v != x)
        eq = make_equation(left, right, ordered_vars(kept + c2.vars))
        return _StepResult(
            DeductionTree(eq, Substitutivity(x), (p1.tree, p2.tree),
                          where),
            _merge_names(p1.names, p2.names))
    raise NameResolutionError(f"unknown rule {s.rule!r}", s.line, s.col)
