"""Shared concrete signatures, variable helpers and the certificate route
for the tests, and the helpers only tests call: the exact-error check,
steps derived from their rules, forged steps on both routes, terms,
equations and rule codings from loose arguments, normal forms back
to arrows, normal forms by substitution, the text of arrows and normal
forms by recursion, schema-2 `--json` payloads back to schema 1, the
dicts that the JSON writer's nodes stand for, most concrete terms and
equations, the reference evaluation of expressions and arrows in finite
models, random finite models and a random search for a model that
separates two arrows, and the .msl printer."""

from __future__ import annotations

import contextlib
import itertools
import random
from typing import Iterable, Iterator, Sequence

import pytest

from termcat.arrows import (Comp, FPArrow, FPObject, Gen, GenApp, Id, Leaf,
                            NormalArrow, NormalBody, NTuple, Path, Prod, Proj,
                            TupleArrow)
from termcat.cli import Rows
from termcat.deduction import (Hypothesis, Step, compile_to_factorization,
                               derive, equation_constraint, lemma_table,
                               normalize_deduction)
from termcat.dsl import Bracket, RawExpr, SpecFile
from termcat.errors import DeductionError
from termcat.kernel import (Factorization, VerificationResult,
                            verify_factorization, verify_lemmas)
from termcat.models import FiniteModel
from termcat.signature import (Signature, Sort, Variable, ordered_vars,
                               validate_signature)
from termcat.terms import (App, Equation, Expression, Term, var_list,
                           var_set)


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


def replace(record, **changes):
    """`record` rebuilt through its constructor with some fields changed."""
    assert set(changes) <= set(record._fields), changes
    return type(record)(*(changes[f] if f in changes else getattr(record, f)
                          for f in record._fields))


@contextlib.contextmanager
def raises_exactly(cls: type, message: str):
    """`pytest.raises` for an error of exactly the class `cls`, not a
    subclass, whose message is exactly `message`."""
    with pytest.raises(cls) as info:
        yield info
    assert type(info.value) is cls, info.value
    assert str(info.value) == message


def certify(sig: Signature, steps, hyps):
    """The certificate `check-proof --levelled` builds: the lemma table,
    the levelled form, then the assembly from the lemmas' codings."""
    return compile_to_factorization(normalize_deduction(steps),
                                    lemma_table(sig, steps), hyps)


def derive_steps(sig: Signature, rules, hyps) -> tuple[Step, ...]:
    """The steps `deduction.derive` builds from `rules`, (rule, cites)
    pairs in proof order, as `dsl.build_proof` builds a proof's: the first
    step that fails raises its `DeductionError` with its `step` set."""
    steps: list[Step] = []
    for k, (rule, cites) in enumerate(rules):
        try:
            steps.append(derive(sig, rule, tuple(cites), steps, hyps))
        except DeductionError as exc:
            exc.step = k
            raise
    return tuple(steps)


def forged_verdicts(sig: Signature, steps: Sequence[Step], hyps, k: int,
                    forged: Equation
                    ) -> tuple[VerificationResult,
                               VerificationResult | DeductionError]:
    """What the kernel says on each `check-proof` route when step k's
    equation is forged after `lemma_table` coded the real steps: on the
    lemma table with lemma k's statement forged, and on the levelled
    certificate pasted from the real codings over the levelled form of the
    forged steps, or the `DeductionError` with which pasting refuses."""
    lemmas = lemma_table(sig, steps)
    table = list(lemmas)
    table[k] = replace(lemmas[k], statement=forged)
    bad = list(steps)
    bad[k] = replace(steps[k], equation=forged)
    try:
        levelled = verify_factorization(compile_to_factorization(
            normalize_deduction(bad), lemmas, hyps))
    except DeductionError as exc:
        levelled = exc
    return verify_lemmas(hyps, table, bad[-1].equation), levelled


def check_rule(sig: Signature, premises: Sequence[Equation], rule,
               conclusion: Equation,
               hypotheses: Sequence[Equation] | None = None) -> Factorization:
    """One rule application, derived as the last step of a deduction whose
    earlier steps cite the premises as hypotheses, and its coding from
    `lemma_table` as the one-claim certificate of `conclusion` from the
    premises (a hypothesis step's from the hypothesis it cites).  A side
    condition that fails is the step's own error; a conclusion the rule
    does not draw is claimed all the same, so `verify_factorization`
    refuses the certificate."""
    hyps = tuple(premises) + tuple(hypotheses or ())
    n = len(premises)
    steps = derive_steps(sig, [(Hypothesis(i), ()) for i in range(n)]
                         + [(rule, range(n))], hyps)
    proof = lemma_table(sig, steps)[-1].proof
    concl_c = equation_constraint(conclusion)
    prem_cs = tuple(map(equation_constraint, (hyps[rule.index],)
                        if isinstance(rule, Hypothesis) else premises))
    return Factorization(prem_cs, (concl_c,), (), (proof,))


# --- terms and equations from loose arguments ----------------------------------


def make_term(e: Expression, vs: Iterable[Variable], sort: Sort) -> Term:
    """The term over `e` whose variable set is `vs` put in canonical order."""
    return Term(e, ordered_vars(vs), sort)


def make_equation(left: Expression, right: Expression,
                  vs: Iterable[Variable]) -> Equation:
    return Equation(left, right, ordered_vars(vs))


def type_list(e: Expression) -> tuple[Sort, ...]:
    """The sorts of `e`'s variables, in order of appearance, repeated."""
    return tuple(x.sort for x in var_list(e))


def type_set(e: Expression) -> tuple[Sort, ...]:
    """The distinct sorts of `e`'s variables, by sort index."""
    return tuple(sorted(set(type_list(e)), key=lambda s: s.index))


def bang(src: FPObject) -> TupleArrow:
    """The unique arrow into the terminal object: the empty tuple."""
    return TupleArrow(src, ())


# --- normal forms back to arrows ----------------------------------------------


def embed(n: NormalArrow) -> FPArrow:
    """Turn a normal form back into raw arrow syntax."""
    return _embed_body(n.body, n.src)


def _embed_path(steps: tuple[int, ...], src: FPObject) -> FPArrow:
    arrow: FPArrow = Id(src)
    obj = src
    for step in steps:
        p = Proj(obj, step)
        arrow = p if isinstance(arrow, Id) else Comp(p, arrow)
        obj = p.dst
    return arrow


def _embed_body(body: NormalBody, src: FPObject) -> FPArrow:
    if isinstance(body, Path):
        return _embed_path(body.steps, src)
    if isinstance(body, GenApp):
        inner = TupleArrow(src, tuple(_embed_body(a, src) for a in body.args))
        return Comp(Gen(body.op), inner)
    return TupleArrow(src, tuple(_embed_body(p, src) for p in body.parts))


# --- normal forms by substitution ----------------------------------------------


def substitution_normal(a: FPArrow) -> NormalArrow:
    """The normal form of `a` computed by substitution, each composite's
    outer normal body with the inner one put in for its paths, and each
    subarrow's body kept in a memo of its own: the reference `normalize`
    must agree with."""
    return NormalArrow(a.src, a.dst, _norm(a, {}))


def _identity_body(obj: FPObject, prefix: tuple[int, ...]) -> NormalBody:
    if isinstance(obj, Leaf):
        return Path(prefix)
    return NTuple(tuple(_identity_body(f, prefix + (i,))
                        for i, f in enumerate(obj.factors, 1)))


def _lookup(body: NormalBody, path: tuple[int, ...]) -> NormalBody:
    for step in path:
        body = body.parts[step - 1]
    return body


def _substitute(outer: NormalBody, inner: NormalBody) -> NormalBody:
    # Replace every path of `outer` (addresses into the middle object) by
    # the corresponding piece of `inner`.
    if isinstance(outer, Path):
        return _lookup(inner, outer.steps)
    if isinstance(outer, GenApp):
        return GenApp(outer.op, tuple(_substitute(a, inner)
                                      for a in outer.args))
    return NTuple(tuple(_substitute(p, inner) for p in outer.parts))


def _norm(a: FPArrow, memo: dict) -> NormalBody:
    body = memo.get(a)
    if body is not None:
        return body
    if isinstance(a, Id):
        body = _identity_body(a.obj, ())
    elif isinstance(a, Proj):
        body = _identity_body(a.dst, (a.index,))
    elif isinstance(a, Gen):
        body = GenApp(a.op, tuple(Path((i,))
                                  for i in range(1, len(a.op.inputs) + 1)))
    elif isinstance(a, TupleArrow):
        body = NTuple(tuple(_norm(p, memo) for p in a.parts))
    else:
        body = _substitute(_norm(a.after, memo), _norm(a.before, memo))
    memo[a] = body
    return body


# --- text, recursively ----------------------------------------------------------


def recursive_text(node) -> str:
    """The text of an object, an arrow or a normal form, written by
    recursion, one case per kind: the reference `str` must agree with."""
    if isinstance(node, Leaf):
        return node.sort.name
    if isinstance(node, Prod):
        if not node.factors:
            return "1"
        return "(" + " x ".join(recursive_text(f) for f in node.factors) + ")"
    if isinstance(node, Id):
        return f"id[{recursive_text(node.obj)}]"
    if isinstance(node, Proj):
        return f"p{node.index}"
    if isinstance(node, Gen):
        return node.op.name
    if isinstance(node, (TupleArrow, NTuple)):
        return "<" + ", ".join(recursive_text(p) for p in node.parts) + ">"
    if isinstance(node, Comp):
        return f"{recursive_text(node.after)} . {recursive_text(node.before)}"
    if isinstance(node, Path):
        return "p" + ".".join(str(s) for s in node.steps) if node.steps \
            else "p()"
    if isinstance(node, GenApp):
        if not node.args:
            return node.op.name
        args = ", ".join(recursive_text(a) for a in node.args)
        return f"{node.op.name}({args})"
    assert isinstance(node, NormalArrow), node
    return recursive_text(node.body)


# --- schema-2 JSON back to schema 1 -------------------------------------------


def expand(payload: dict) -> dict:
    """A `--json` payload in schema 1: a schema-2 payload loses `schema`
    and its tables, and each index field becomes the tree of its row, as
    the CLI wrote it before the tables; any other payload is returned as
    it is."""
    if payload.get("schema") != 2:
        return payload
    objects: list[dict] = []
    for row in payload["objects"]:
        objects.append(row if row["kind"] == "sort" else
                       {**row, "factors": [objects[i]
                                           for i in row["factors"]]})
    arrows: list[dict] = []
    for row in payload["arrows"]:
        tree = dict(row)
        for field in ("object", "source"):
            if field in row:
                tree[field] = objects[row[field]]
        for field in ("after", "before"):
            if field in row:
                tree[field] = arrows[row[field]]
        if "parts" in row:
            tree["parts"] = [arrows[i] for i in row["parts"]]
        arrows.append(tree)
    fields = {k: v for k, v in payload.items()
              if k not in ("schema", "objects", "arrows")}
    if "occurrences" in fields:  # compile
        fields["input_product"] = objects[fields["input_product"]]
        for k in ("occurrences", "regroup", "apply"):
            fields[k] = arrows[fields[k]]
        return fields

    def proof(p: dict) -> dict:
        if "certificate" not in p:  # an invalid proof
            return p
        return {**p, "certificate": _expand_certificate(p["certificate"],
                                                        objects, arrows)}

    if "proofs" in fields:
        return {**fields, "proofs": [proof(p) for p in fields["proofs"]]}
    return proof(fields)


def _expand_certificate(cert: dict, objects: list, arrows: list) -> dict:
    def step(s: dict) -> dict:
        if "arrow" in s:
            return {**s, "arrow": arrows[s["arrow"]]}
        if s["step"] == "tuple":
            return {**s, "source": objects[s["source"]]}
        return s

    if "lemmas" in cert:
        return {"lemmas": [{**x, "proof": [step(s) for s in x["proof"]]}
                           for x in cert["lemmas"]]}
    out = {k: [{"left": arrows[c["left"]], "right": arrows[c["right"]]}
               for c in cert[k]]
           for k in ("hypotheses", "claims", "workspace")}
    out["verification"] = [[step(s) for s in proof]
                           for proof in cert["verification"]]
    out["meta"] = cert["meta"]
    return out


# --- the reference for the JSON writer ---------------------------------------
# The dicts that `cli.json_text` writes each node as, built one per node and
# sorted by `json.dumps`, as the CLI built them before it wrote each node
# straight from its fields.


def object_json(obj: FPObject) -> dict:
    """`obj` written out in full, as the endpoints of a normal form are."""
    if isinstance(obj, Leaf):
        return {"kind": "sort", "name": obj.sort.name}
    return {"kind": "product", "factors": [object_json(f)
                                           for f in obj.factors]}


def normal_body_json(b: NormalBody) -> dict:
    if isinstance(b, Path):
        return {"kind": "path", "steps": list(b.steps)}
    if isinstance(b, GenApp):
        return {"kind": "gen", "op": b.op.name,
                "args": [normal_body_json(a) for a in b.args]}
    return {"kind": "tuple", "parts": [normal_body_json(p)
                                       for p in b.parts]}


def normal_json(n: NormalArrow) -> dict:
    return {"dom": object_json(n.src), "cod": object_json(n.dst),
            "body": normal_body_json(n.body)}


def expr_json(e: Expression) -> dict:
    if isinstance(e, Variable):
        return {"kind": "var", "var": {"sort": e.sort.name, "num": e.num}}
    return {"kind": "app", "op": e.op.name,
            "args": [expr_json(a) for a in e.args]}


def row_json(x, rows: dict) -> dict:
    """The row of `x`, whose nodes under it have theirs in `rows`."""
    if isinstance(x, Comp):
        return {"kind": "comp", "after": rows[x.after],
                "before": rows[x.before]}
    if isinstance(x, TupleArrow):
        return {"kind": "tuple", "source": rows[x.src],
                "parts": [rows[p] for p in x.parts]}
    if isinstance(x, Proj):
        return {"kind": "proj", "index": x.index, "source": rows[x.src]}
    if isinstance(x, Prod):
        return {"kind": "product", "factors": [rows[f] for f in x.factors]}
    if isinstance(x, Id):
        return {"kind": "id", "object": rows[x.obj]}
    if isinstance(x, Leaf):
        return {"kind": "sort", "name": x.sort.name}
    return {"kind": "gen", "op": x.op.name}


def reference_payload(payload):
    """`payload`, as the CLI hands it to `json_text`, with each node and
    table as the dicts it stands for: `json.dumps` of the result, with
    `indent=2, sort_keys=True`, is what `json_text` must write."""
    if isinstance(payload, dict):
        return {k: reference_payload(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [reference_payload(v) for v in payload]
    if isinstance(payload, Rows):
        return [row_json(x, payload.index) for x in payload.nodes]
    if isinstance(payload, (App, Variable)):
        return expr_json(payload)
    if isinstance(payload, NormalArrow):
        return normal_json(payload)
    if isinstance(payload, (Path, GenApp, NTuple)):
        return normal_body_json(payload)
    if isinstance(payload, (Leaf, Prod)):
        return object_json(payload)
    return payload


# --- most concrete terms and equations -----------------------------------------


def input_types(t: Term) -> tuple[Sort, ...]:
    """Sorts of the term's variables in canonical order (with repetitions)."""
    return tuple(v.sort for v in t.vars)


def most_concrete_term(e: Expression) -> Term:
    """The unique term over `e` whose variable set is exactly var_set(e)."""
    return Term(e, var_set(e), e.sort)


def most_concrete_equation(left: Expression, right: Expression) -> Equation:
    return Equation(left, right, ordered_vars(var_set(left) + var_set(right)))


# --- reference evaluation in finite models -----------------------------------------
# Independent of normal forms: nothing here normalizes or compares arrows
# formally, so the tests can hold the syntactic machinery against it.

EVALUATOR = ("eval_expression", "_falsifying_assignment", "satisfies",
             "points", "eval_arrow", "arrows_agree")


def eval_expression(model: FiniteModel, e: Expression,
                    env: dict[Variable, int]) -> int:
    if isinstance(e, Variable):
        return env[e]
    return model.apply(e.op, tuple(eval_expression(model, a, env)
                                   for a in e.args))


def _falsifying_assignment(model: FiniteModel,
                           eq: Equation) -> dict[Variable, int] | None:
    """The first assignment, in carrier order, under which the two sides
    differ; None if the equation holds in the model."""
    carriers = [model.carrier(v.sort) for v in eq.vars]
    for values in itertools.product(*carriers):
        env = dict(zip(eq.vars, values))
        if eval_expression(model, eq.left, env) \
                != eval_expression(model, eq.right, env):
            return env
    return None


def satisfies(model: FiniteModel, eq: Equation) -> bool:
    """True iff the equation holds under every assignment to its variables."""
    return _falsifying_assignment(model, eq) is None


def points(model: FiniteModel, obj: FPObject) -> Iterator:
    """All elements of an object's interpretation: ints at leaves, tuples at
    products."""
    if isinstance(obj, Leaf):
        yield from model.carrier(obj.sort)
    else:
        yield from itertools.product(*(points(model, f)
                                       for f in obj.factors))


def eval_arrow(model: FiniteModel, a: FPArrow, point):
    if isinstance(a, Id):
        return point
    if isinstance(a, Proj):
        return point[a.index - 1]
    if isinstance(a, Gen):
        return model.apply(a.op, tuple(point))
    if isinstance(a, TupleArrow):
        return tuple(eval_arrow(model, p, point) for p in a.parts)
    return eval_arrow(model, a.after, eval_arrow(model, a.before, point))


def arrows_agree(model: FiniteModel, a: FPArrow, b: FPArrow,
                 src: FPObject) -> bool:
    return all(eval_arrow(model, a, pt) == eval_arrow(model, b, pt)
               for pt in points(model, src))


# --- random and separating models --------------------------------------------------


def random_model(sig: Signature, max_size: int,
                 rng: random.Random) -> FiniteModel:
    """Carriers of 1 to `max_size` elements and random operation tables."""
    sizes = {s: rng.randint(1, max_size) for s in sig.sorts}
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for op in sig.operations:
        domain = itertools.product(*(range(sizes[s]) for s in op.inputs))
        tables[op.name] = {p: rng.randrange(sizes[op.output]) for p in domain}
    return FiniteModel(sig, sizes, tables)


def find_separating_model(sig: Signature, a: FPArrow, b: FPArrow,
                          src: FPObject, max_size: int,
                          rng: random.Random, attempts: int = 4000):
    """Search random models (carriers <= max_size) for one where the two
    arrows disagree at some point.  Returns (model, point) or None."""
    for _ in range(attempts):
        model = random_model(sig, max_size, rng)
        for pt in points(model, src):
            if eval_arrow(model, a, pt) != eval_arrow(model, b, pt):
                return model, pt
    return None


# --- printing .msl ----------------------------------------------------------------


def _print_expr(e: RawExpr) -> str:
    # right to left, each call finds its arguments on top of the stack,
    # the first on top
    stack: list[str] = []
    for name, argc in reversed(e):
        if argc < 0:
            stack.append(name)
        else:
            args = [stack.pop() for _ in range(argc)]
            stack.append(f"{name}({', '.join(args)})")
    return stack[0]


def _print_bracket(bracket: Bracket) -> str:
    inner = ", ".join(f"{v}:{s}" for v, s in bracket)
    return f"[{inner}] " if bracket else ""


def print_spec(sf: SpecFile) -> str:
    """Canonical text for a parsed file; parsing it back gives an equal
    SpecFile."""
    lines: list[str] = []
    if sf.sort_names:
        lines.append("sort " + " ".join(sf.sort_names))
    for name, inputs, output in sf.op_decls:
        lines.append(f"op {name} : {' '.join(inputs)}"
                     f"{' ' if inputs else ''}-> {output}")
    for td in sf.term_decls:
        lines.append(f"term {td.name} {_print_bracket(td.bracket)}"
                     f": {_print_expr(td.expr)}")
    for ed in sf.eq_decls:
        lines.append(f"eq {ed.name} {_print_bracket(ed.bracket)}"
                     f": {_print_expr(ed.left)} = {_print_expr(ed.right)}")
    for proof in sf.proofs.values():
        header = f"proof {proof.name} from {' '.join(proof.hypotheses)}" \
            .rstrip()
        lines.append(header + " {")
        for s in proof.steps:
            # the operands in order, but abs's colon before its sort
            if s.rule == "refl":
                bracket, expr = s.operands
                body = f"{_print_bracket(bracket)}{_print_expr(expr)}"
            elif s.rule == "abs":
                step, var, sort = s.operands
                body = f"{step} {var} : {sort}"
            else:
                body = " ".join(s.operands)
            lines.append(f"  {s.name} = {s.rule} {body} ;")
        lines.append("}")
    return "\n".join(lines) + "\n"
