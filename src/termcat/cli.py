"""Command-line surface.

Commands: sketch, compile, check-eq, subst, check-proof, normalize-proof,
oracle.  Human-readable text by default; `--json` switches to a stable JSON
schema, schema 2 (identical inputs give byte-identical output): a payload
that holds arrows writes each object and arrow once, as a row of its
`objects` and `arrows` tables, and names it by row index.  Exit codes: 0 on
success, 1 on verification failure, 2 on input errors (unreadable or
undecodable files included); no walker recurses, so depth is no error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import arrows, deduction, kernel, models, sketch
from .category import (Comp, Gen, GenApp, Id, Leaf, NormalArrow, NTuple,
                       Prod, Proj, TupleArrow)
from .category import Path as NPath
from .dsl import (ProofDef, SpecFile, build_proof, end_position, parse_spec,
                  step_origin)
from .errors import DeductionError, TermcatError
from .signature import Variable
from .subst import SubstInstance, subst_arrow_direct, subst_term
from .terms import App, Expression, Term


# --- JSON encoding -----------------------------------------------------------
#
# A payload that holds arrows (`compile`, `check-proof`) is schema 2: it has
# "schema": 2 and two tables, "objects" and "arrows", with one row per
# distinct object or arrow it holds, and every field that names an object or
# an arrow holds its row index.  Objects and arrows are hash-consed, so the
# rows are their interned nodes one to one: the maximal sharing of the ATerm
# exchange format (van den Brand, de Jong, Klint & Olivier, "Efficient
# annotated terms", 2000).  A row refers only to earlier rows.
#
# A payload is plain dicts, lists and scalars with nodes among them, and
# `json_text` writes each node straight from its fields, as ATerm's writer
# does: an expression (`App` or `Variable`), a normal form or body, an
# object inside a normal form, and a table's rows.  No dict is built per
# node; tests/fixtures.py keeps the dicts the nodes stand for, as the
# reference the writer is checked against.


class Rows:
    """One table of a schema-2 payload: its nodes in row order, and
    `index`, the row index of every node of the payload."""

    __slots__ = ("nodes", "index")

    def __init__(self, nodes: list, index: dict):
        self.nodes = nodes
        self.index = index


class Tables:
    """The `objects` and `arrows` tables of one schema-2 payload, each a
    list of nodes in row order; `rows` maps each node written so far to its
    row index in its table."""

    __slots__ = ("objects", "arrows", "rows")

    def __init__(self):
        self.objects: list = []
        self.arrows: list = []
        self.rows: dict = {}

    def payload(self, fields: dict) -> dict:
        """`fields` with the tables and "schema": 2; without them if no
        row was written, as a payload that holds no arrow stays schema 1."""
        if not self.rows:
            return fields
        return {"schema": 2, "objects": Rows(self.objects, self.rows),
                "arrows": Rows(self.arrows, self.rows), **fields}


def arrow_json(node, tables: Tables) -> int:
    """The row index of `node`, an arrow or an object, in its table.  A
    node without a row gets one after the nodes it refers to, in the order
    the walk first reaches them; the walk keeps an explicit stack."""
    rows = tables.rows
    stack = [node]
    while stack:
        x = stack.pop()
        if x in rows:
            continue
        missing = [k for k in _refers_to(x) if k not in rows]
        if missing:
            stack.append(x)
            stack.extend(reversed(missing))
            continue
        table = tables.objects if isinstance(x, (Leaf, Prod)) \
            else tables.arrows
        rows[x] = len(table)
        table.append(x)
    return rows[node]


def _refers_to(x) -> tuple:
    """The nodes that the row of `x` names, in the order it names them."""
    if isinstance(x, Comp):
        return x.after, x.before
    if isinstance(x, TupleArrow):
        return (x.src, *x.parts)
    if isinstance(x, Proj):
        return x.src,
    if isinstance(x, Prod):
        return x.factors
    if isinstance(x, Id):
        return x.obj,
    return ()


def normal_json(n: NormalArrow) -> NormalArrow:
    """The payload value of a normal form: the node, which `json_text`
    writes with its `dom` and `cod` objects inline."""
    return n


def variable_json(v: Variable) -> dict:
    return {"sort": v.sort.name, "num": v.num}


def expr_json(e: Expression) -> Expression:
    """The payload value of an expression: the node, which `json_text`
    writes."""
    return e


def equation_json(eq) -> dict:
    return {"left": expr_json(eq.left), "right": expr_json(eq.right),
            "vars": [variable_json(v) for v in eq.vars],
            "sort": eq.sort.name}


def term_json(t: Term) -> dict:
    return {"expr": expr_json(t.expr),
            "vars": [variable_json(v) for v in t.vars],
            "sort": t.sort.name}


def constraint_json(c: kernel.EqConstraint, tables: Tables) -> dict:
    return {"left": arrow_json(c.left, tables),
            "right": arrow_json(c.right, tables)}


def kernel_step_json(s: kernel.KernelStep, tables: Tables) -> dict:
    if isinstance(s, kernel.CiteHyp):
        return {"step": "cite", "hyp": s.hyp}
    if isinstance(s, kernel.Refl):
        return {"step": "refl", "arrow": arrow_json(s.arrow, tables)}
    if isinstance(s, kernel.Sym):
        return {"step": "sym", "of": s.of}
    if isinstance(s, kernel.Trans):
        return {"step": "trans", "first": s.first, "second": s.second}
    if isinstance(s, kernel.ComposeLeft):
        return {"step": "compose-left", "arrow": arrow_json(s.arrow, tables),
                "of": s.of}
    if isinstance(s, kernel.ComposeRight):
        return {"step": "compose-right",
                "arrow": arrow_json(s.arrow, tables), "of": s.of}
    return {"step": "tuple", "source": arrow_json(s.src, tables),
            "of": list(s.of)}


def factorization_json(f: kernel.Factorization,
                       ld: deduction.LevelledDeduction,
                       tables: Tables) -> dict:
    """The certificate `f` assembled from `ld`; "meta" records how the
    levelled form was read."""
    return {
        "hypotheses": [constraint_json(c, tables) for c in f.hyp],
        "claims": [constraint_json(c, tables) for c in f.claim],
        "workspace": [constraint_json(c, tables) for c in f.wksp],
        "verification": [[kernel_step_json(s, tables) for s in proof]
                         for proof in f.verif],
        "meta": {"level_partitions": [[list(s.premises) for s in level]
                                      for level in ld.levels[1:]],
                 "hypothesis_reading":
                     "repeated hypothesis uses cite one shared entry"},
    }


def lemma_table_json(lemmas: tuple[kernel.Lemma, ...],
                     tables: Tables) -> dict:
    return {"lemmas": [{"statement": equation_json(x.statement),
                        "cites": list(x.cites),
                        "hypothesis": x.hypothesis,
                        "proof": [kernel_step_json(s, tables)
                                  for s in x.proof]}
                       for x in lemmas]}


def levelled_json(ld: deduction.LevelledDeduction) -> dict:
    return {"levels": [[{
        "equation": equation_json(s.equation),
        "rule": deduction.RULE_NAMES[type(s.rule)],
        "premises": list(s.premises),
    } for s in level] for level in ld.levels]}


def _emit(payload: dict) -> None:
    print(json_text(payload))


def json_text(payload) -> str:
    """What `json.dumps(plain, indent=2, sort_keys=True)` returns, where
    `plain` is `payload` with each node as the dict it stands for, for
    payloads of dicts with str keys, lists, str, int, bool, None, `Rows`,
    expressions, normal forms and bodies, and objects; any other value
    raises TypeError.  The standard library writes indented JSON with its
    pure-Python encoder, several times slower than this.

    One explicit stack holds what is still to write, so a payload of any
    depth is written: text as it is, and (value, depth, lead) triples,
    where `lead` is the text that goes before the value.  A node writes
    its keys as literals, in the sorted order."""
    out: list[str] = []
    put = out.append
    # pads[d] is a line break and the indent of depth d; a value of depth
    # up to `deepest` finds the pads it writes, down to `deepest + 3`
    pads = ["\n", "\n  ", "\n    ", "\n      "]
    deepest = 0
    stack: list = [(payload, 0, "")]
    push = stack.append
    while stack:
        x = stack.pop()
        if type(x) is str:
            put(x)
            continue
        o, d, lead = x
        if d > deepest:  # a child is at most two deeper than its parent
            pads += (pads[-1] + "  ", pads[-1] + "    ")
            deepest += 2
        pad, p1 = pads[d], pads[d + 1]
        kind = type(o)
        # a kind that holds a list of values sets `items`, their depth `e`,
        # and the text before and after the list
        if kind is App or kind is GenApp:
            items, e, head = o.args, d + 2, "{" + p1 + '"args": '
            tail = (f',{p1}"kind": "{"app" if kind is App else "gen"}",'
                    f'{p1}"op": {encode_basestring_ascii(o.op.name)}{pad}}}')
        elif kind is Variable:
            p2 = pads[d + 2]
            put(f'{lead}{{{p1}"kind": "var",{p1}"var": {{{p2}"num": '
                f'{o.num},{p2}"sort": {encode_basestring_ascii(o.sort.name)}'
                f'{p1}}}{pad}}}')
            continue
        elif kind is NPath:
            p2 = pads[d + 2]
            steps = (f"[{p2}{(',' + p2).join(map(str, o.steps))}{p1}]"
                     if o.steps else "[]")
            put(f'{lead}{{{p1}"kind": "path",{p1}"steps": {steps}{pad}}}')
            continue
        elif kind is NTuple:
            items, e = o.parts, d + 2
            head, tail = f'{{{p1}"kind": "tuple",{p1}"parts": ', pad + "}"
        elif kind is NormalArrow:
            push(pad + "}")
            push((o.src, d + 1, f',{p1}"dom": '))
            push((o.dst, d + 1, f',{p1}"cod": '))
            push((o.body, d + 1, f'{lead}{{{p1}"body": '))
            continue
        elif kind is Leaf:
            put(f'{lead}{{{p1}"kind": "sort",{p1}"name": '
                f'{encode_basestring_ascii(o.sort.name)}{pad}}}')
            continue
        elif kind is Prod:
            items, e, head = o.factors, d + 2, "{" + p1 + '"factors": '
            tail = f',{p1}"kind": "product"{pad}}}'
        elif kind is Rows:
            put(lead + _rows_text(o, d, pads))
            continue
        elif isinstance(o, str):
            put(lead + encode_basestring_ascii(o))
            continue
        elif isinstance(o, dict):
            if not o:
                put(lead + "{}")
                continue
            # a str or int value goes into the text around the others
            text, sep, comma, kids = lead, "{" + p1, "," + p1, []
            for k, v in sorted(o.items()):
                text += sep + encode_basestring_ascii(k) + ": "
                sep = comma
                if type(v) is int:
                    text += int.__repr__(v)
                elif type(v) is str:
                    text += encode_basestring_ascii(v)
                else:
                    kids.append((v, d + 1, text))
                    text = ""
            push(text + pad + "}")
            stack.extend(reversed(kids))
            continue
        elif isinstance(o, list):
            items, e, head, tail = o, d + 1, "", ""
        elif o is None:
            put(lead + "null")
            continue
        elif o is True:
            put(lead + "true")
            continue
        elif o is False:
            put(lead + "false")
            continue
        elif isinstance(o, int):
            put(lead + int.__repr__(o))
            continue
        else:
            raise TypeError(f"Object of type {type(o).__name__} "
                            "is not JSON serializable")
        if not items:
            put(lead + head + "[]" + tail)
            continue
        inner = pads[e]
        comma = "," + inner
        push(pads[e - 1] + "]" + tail)
        # an int item goes out as text, with the text before it
        for v in items[:0:-1]:
            push(comma + int.__repr__(v) if type(v) is int else (v, e, comma))
        v = items[0]
        lead += head + "[" + inner
        push(lead + int.__repr__(v) if type(v) is int else (v, e, lead))
    return "".join(out)


def _rows_text(rows: Rows, d: int, pads: list[str]) -> str:
    """The table `rows` at depth `d`: one flat row per node, written from
    the node's fields and the row indices of the nodes it names."""
    nodes, index = rows.nodes, rows.index
    if not nodes:
        return "[]"
    # the indents of a row's keys, of a list in a row, and of its end
    p, q, end = pads[d + 2], pads[d + 3], pads[d + 1] + "}"
    comma = "," + q
    texts = []
    put = texts.append
    for x in nodes:
        kind = type(x)
        if kind is Comp:
            put(f'{{{p}"after": {index[x.after]},{p}"before": '
                f'{index[x.before]},{p}"kind": "comp"{end}')
        elif kind is TupleArrow:
            parts = (f"[{q}{comma.join([str(index[a]) for a in x.parts])}"
                     f"{p}]" if x.parts else "[]")
            put(f'{{{p}"kind": "tuple",{p}"parts": {parts},{p}"source": '
                f'{index[x.src]}{end}')
        elif kind is Proj:
            put(f'{{{p}"index": {x.index},{p}"kind": "proj",{p}"source": '
                f'{index[x.src]}{end}')
        elif kind is Id:
            put(f'{{{p}"kind": "id",{p}"object": {index[x.obj]}{end}')
        elif kind is Gen:
            put(f'{{{p}"kind": "gen",{p}"op": '
                f'{encode_basestring_ascii(x.op.name)}{end}')
        elif kind is Leaf:
            put(f'{{{p}"kind": "sort",{p}"name": '
                f'{encode_basestring_ascii(x.sort.name)}{end}')
        else:  # a Prod
            factors = (f"[{q}{comma.join([str(index[f]) for f in x.factors])}"
                       f"{p}]" if x.factors else "[]")
            put(f'{{{p}"factors": {factors},{p}"kind": "product"{end}')
    return f"[{pads[d + 1]}{(',' + pads[d + 1]).join(texts)}{pads[d]}]"


def _print(lines: list[str]) -> None:
    """Text output goes out in one piece once every line is built, so a
    command that fails part-way prints nothing."""
    sys.stdout.write("".join(line + "\n" for line in lines))


# --- commands -------------------------------------------------------------------


def _load(path: str) -> SpecFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TermcatError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    return parse_spec(text)


def _undecodable(path: str, exc: UnicodeDecodeError) -> TermcatError:
    """Name the file and the line:column of the first undecodable byte,
    counting lines as the parser does."""
    line, col = end_position(exc.object[:exc.start].decode(exc.encoding))
    return TermcatError(f"{path}:{line}:{col}: {exc.encoding!r} codec can't "
                        f"decode byte 0x{exc.object[exc.start]:02x}: "
                        f"{exc.reason}")


def _lookup(table, name: str, error: str):
    """`table[name]`; a name the table lacks is an input error."""
    if name not in table:
        raise TermcatError(error)
    return table[name]


def cmd_sketch(args) -> int:
    sf = _load(args.file)
    sk = sketch.sketch_of_signature(sf.signature)
    if args.json:
        _emit({"nodes": [str(n) for n in sk.nodes],
               "arrows": [str(a) for a in sk.arrows],
               "cones": [{"vertex": str(c.vertex),
                          "legs": [str(l) for l in c.legs]}
                         for c in sk.cones]})
        return 0
    lines = ["nodes:", *(f"  {n}" for n in sk.nodes),
             "arrows:", *(f"  {a}" for a in sk.arrows), "cones:"]
    for c in sk.cones:
        legs = ", ".join(str(l) for l in c.legs) or "(none)"
        lines.append(f"  vertex {c.vertex}: {legs}")
    _print(lines)
    return 0


def cmd_compile(args) -> int:
    sf = _load(args.file)
    t = _lookup(sf.terms, args.term, f"unknown term {args.term!r}")
    stages = arrows.term_arrow(t.expr, t.vars)
    app, reg, occ = stages.after, stages.before.after, stages.before.before
    normal = arrows.term_normal(t.expr, t.vars)
    if args.json:
        tables = Tables()
        _emit(tables.payload({
            "term": term_json(t),
            "input_product": arrow_json(arrows.input_product(t.vars), tables),
            "occurrences": arrow_json(occ, tables),
            "regroup": arrow_json(reg, tables),
            "apply": arrow_json(app, tables),
            "normal": normal_json(normal)}))
        return 0
    _print([f"term {args.term} : {t}",
            f"  input product: {arrows.input_product(t.vars)}",
            f"  occurrences:   {occ} : -> {occ.dst}",
            f"  regroup:       {reg} : -> {reg.dst}",
            f"  apply:         {app} : -> {app.dst}",
            f"  normal form:   {normal}"])
    return 0


def cmd_check_eq(args) -> int:
    sf = _load(args.file)
    eq = _lookup(sf.equations, args.equation,
                 f"unknown equation {args.equation!r}")
    # both sides share the equation's variable product and sort, so equal
    # normal forms are formal equality
    left, right = (arrows.term_normal(side, eq.vars)
                   for side in (eq.left, eq.right))
    equal = left == right
    if args.json:
        _emit({"equation": equation_json(eq),
               "left": normal_json(left),
               "right": normal_json(right),
               "formally_equal": equal})
    else:
        _print([f"equation {args.equation}: {eq}",
                f"  left arrow:  {left}",
                f"  right arrow: {right}",
                f"  formally equal: {'yes' if equal else 'no'}"])
    return 0 if equal else 1


def cmd_subst(args) -> int:
    sf = _load(args.file)
    target = _lookup(sf.terms, args.term, f"unknown term {args.term!r}")
    replacement = _lookup(sf.terms, args.with_term,
                          f"unknown term {args.with_term!r}")
    # resolve --var by its name in the term's declaration bracket, or by
    # the canonical rendering "x<num>:<sort>"
    names = {str(v): v for v in target.vars} | sf.term_bindings[args.term]
    var = _lookup(names, args.var, f"{args.var!r} does not name a variable "
                                   f"of {args.term!r}")
    inst = SubstInstance(target, var, replacement)
    rec = subst_term(inst)
    # both routes run from the substituted term's variable product to its
    # sort, so equal normal forms are equal arrows
    rec_normal = arrows.term_normal(rec.expr, rec.vars)
    direct = arrows.normalize(subst_arrow_direct(inst))
    equal = rec_normal == direct
    if args.json:
        _emit({"target": term_json(target), "var": variable_json(var),
               "replacement": term_json(replacement),
               "recursive": {"term": term_json(rec),
                             "normal": normal_json(rec_normal)},
               "direct": {"normal": normal_json(direct)},
               "arrows_equal": equal})
    else:
        _print([f"substituting {args.with_term} for {var} in {args.term}",
                f"  recursive route: {rec}",
                f"    arrow: {rec_normal}",
                f"  direct route arrow: {direct}",
                f"  arrows equal: {'yes' if equal else 'no'}"])
    return 0 if equal else 1


def _check_one_proof(sf: SpecFile, proof: ProofDef, tables: Tables | None,
                     levelled: bool) -> tuple[int, dict | list[str]]:
    """Check one proof, by its lemma table or, with `levelled`, by the
    levelled certificate pasted from the lemma table's codings; returns the
    exit code and either the json fields, whose arrows go into `tables`, or,
    if `tables` is None, the text lines."""
    name = proof.name
    try:
        steps, hyps = build_proof(sf, proof)
        lemmas = deduction.lemma_table(sf.signature, steps)
        if levelled:
            ld = deduction.normalize_deduction(steps)
            cert = deduction.compile_to_factorization(ld, lemmas, hyps)
            result = kernel.verify_levelled(hyps, cert, steps[-1].equation)
        else:
            result = kernel.verify_lemmas(hyps, lemmas, steps[-1].equation)
    except DeductionError as exc:
        reason = step_origin(sf, proof, exc.step) + str(exc)
        if tables is not None:
            return 1, {"proof": name, "valid": False, "error": reason}
        return 1, [f"proof {name}: INVALID ({reason})"]
    conclusion = steps[-1].equation
    code = 0 if result.ok else 1
    where = step_origin(sf, proof, result.rejected)  # lemma k is step k
    trace = [where + line for line in result.trace]
    if tables is not None:
        return code, {"proof": name,
                      "conclusion": equation_json(conclusion),
                      "valid": result.ok,
                      "certificate": factorization_json(cert, ld, tables)
                      if levelled else lemma_table_json(lemmas, tables),
                      "trace": trace}
    if levelled:
        sizes = (f"hypotheses: {len(cert.hyp)}, claims: {len(cert.claim)}, "
                 f"workspace: {len(cert.wksp)}")
    else:
        sizes = (f"hypotheses: {len(hyps)}, lemmas: {len(lemmas)}, "
                 f"kernel steps: {sum(len(x.proof) for x in lemmas)}")
    lines = [f"proof {name}: "
             f"{'VALID' if result.ok else 'FAILED VERIFICATION'}",
             f"  conclusion: {conclusion}", f"  {sizes}"]
    lines.extend(f"  {line}" for line in trace)
    return code, lines


def cmd_check_proof(args) -> int:
    sf = _load(args.file)
    proofs = sf.proofs.values() if not args.proof else [
        _lookup(sf.proofs, args.proof, f"unknown proof {args.proof!r}")]
    # all proofs of one payload share its tables
    tables = Tables() if args.json else None
    worst = 0
    outs = []
    for proof in proofs:
        code, out = _check_one_proof(sf, proof, tables, args.levelled)
        outs.append(out)
        worst = max(worst, code)
    if tables is not None:
        _emit(tables.payload(outs[0] if args.proof else {"proofs": outs}))
    else:
        _print([line for out in outs for line in out])
    return worst


def cmd_normalize_proof(args) -> int:
    sf = _load(args.file)
    proof = _lookup(sf.proofs, args.proof, f"unknown proof {args.proof!r}")
    try:
        steps, _ = build_proof(sf, proof)
    except DeductionError as exc:
        where = step_origin(sf, proof, exc.step)
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    ld = deduction.normalize_deduction(steps)
    if args.json:
        _emit({"proof": args.proof, **levelled_json(ld)})
        return 0
    lines = [f"proof {args.proof} in levelled form:"]
    for l, level in enumerate(ld.levels):
        lines.append(f"  level {l}:")
        for i, s in enumerate(level):
            prem = ", ".join(str(p) for p in s.premises)
            rule = deduction.RULE_NAMES[type(s.rule)]
            lines.append(f"    [{i}] {s.equation}   ({rule}"
                         f"{' from ' + prem if prem else ''})")
    _print(lines)
    return 0


def cmd_oracle(args) -> int:
    sf = _load(args.file)
    eq = _lookup(sf.equations, args.equation,
                 f"unknown equation {args.equation!r}")
    checked = models.count_models(sf.signature, args.max_size)
    found = models.find_counterexample(sf.signature, eq, args.max_size)
    if args.json:
        payload = {"equation": equation_json(eq),
                   "max_size": args.max_size,
                   "models_checked": checked,
                   "holds": found is None}
        if found is not None:
            model, env = found
            payload["counterexample"] = {
                "model": model.describe(),
                "assignment": {str(v): val for v, val in
                               sorted(env.items(),
                                      key=lambda kv: kv[0].key())}}
        _emit(payload)
    else:
        lines = [f"equation {args.equation}: {eq}"]
        if found is None:
            lines.append(f"  holds in all {checked} models with carriers <= "
                         f"{args.max_size}")
        else:
            model, env = found
            described = model.describe()
            lines.append("  counterexample found:")
            lines.append(f"    carriers: {described['carriers']}")
            for op, table in described["tables"].items():
                lines.append(f"    {op}: {table}")
            assign = ", ".join(f"{v} = {val}" for v, val in
                               sorted(env.items(),
                                      key=lambda kv: kv[0].key()))
            lines.append(f"    assignment: {assign}")
        _print(lines)
    return 0 if found is None else 1


# --- entry point -------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termcat",
        description="Compile multisorted equational logic into "
                    "finite-product categorical combinators and check "
                    "deductions as arrow-equality certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.add_argument("file", help=".msl input file")
        p.add_argument("--json", action="store_true",
                       help="emit stable JSON instead of text")
        p.set_defaults(fn=fn)
        return p

    add("sketch", cmd_sketch)
    add("compile", cmd_compile, **{"--term": dict(required=True)})
    add("check-eq", cmd_check_eq, **{"--equation": dict(required=True)})
    p = add("subst", cmd_subst, **{"--term": dict(required=True),
                                   "--var": dict(required=True)})
    p.add_argument("--with", dest="with_term", required=True,
                   help="name of the replacement term")
    p = add("check-proof", cmd_check_proof, **{"--proof": dict(default=None)})
    p.add_argument("--levelled", action="store_true",
                   help="check the levelled certificate instead of the "
                        "lemma table")
    add("normalize-proof", cmd_normalize_proof,
        **{"--proof": dict(required=True)})
    p = add("oracle", cmd_oracle, **{"--equation": dict(required=True)})
    p.add_argument("--max-size", type=int, default=2,
                   help="carrier size bound (default 2)")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except DeductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TermcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: an I/O failure, not a verdict;
        # point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
