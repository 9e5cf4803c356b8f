"""The `objects` and `arrows` tables of schema-2 `--json` payloads: one row
per distinct node, rows naming only earlier rows, and no depth limit."""

from __future__ import annotations

import json
import random
from pathlib import Path

from fixtures import certify, expand
from gen import gen_signature, gen_term
from termcat import arrows, kernel
from termcat.arrows import Comp, Gen, Id, Leaf, Prod, TupleArrow
from termcat.cli import Tables, arrow_json, json_text, run
from termcat.deduction import lemma_table
from termcat.dsl import build_proof, parse_spec
from termcat.errors import DeductionError
from termcat.signature import validate_signature

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _node_children(x) -> tuple:
    """The objects and arrows directly under `x`, as the Python nodes hold
    them (a generator's endpoints are not written)."""
    if isinstance(x, Prod):
        return x.factors
    if isinstance(x, Id):
        return (x.obj,)
    if isinstance(x, arrows.Proj):
        return (x.src,)
    if isinstance(x, TupleArrow):
        return (x.src, *x.parts)
    if isinstance(x, Comp):
        return (x.after, x.before)
    return ()


def _distinct_nodes(roots) -> set:
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(_node_children(x))
    return seen


def _row_refs(row: dict) -> tuple[list[int], list[int]]:
    """The object rows and the arrow rows that `row` names."""
    objs = [row[f] for f in ("object", "source") if f in row]
    objs += row.get("factors", [])
    arrs = [row[f] for f in ("after", "before") if f in row]
    arrs += row.get("parts", [])
    return objs, arrs


def _payload_refs(payload: dict) -> tuple[list[int], list[int]]:
    """The object rows and the arrow rows that the payload's fields name."""
    if "occurrences" in payload:
        return [payload["input_product"]], [
            payload[k] for k in ("occurrences", "regroup", "apply")]
    objs, arrs = [], []
    for proof in payload.get("proofs", [payload]):
        cert = proof.get("certificate")
        if cert is None:
            continue
        if "lemmas" in cert:
            steps = [s for x in cert["lemmas"] for s in x["proof"]]
        else:
            steps = [s for p in cert["verification"] for s in p]
            for k in ("hypotheses", "claims", "workspace"):
                arrs += [c[side] for c in cert[k] for side in ("left",
                                                               "right")]
        arrs += [s["arrow"] for s in steps if "arrow" in s]
        objs += [s["source"] for s in steps if s["step"] == "tuple"]
    return objs, arrs


def check_tables(payload: dict, nodes: int) -> None:
    """The table invariants, on a payload whose fields reach `nodes`
    distinct objects and arrows; a payload that names none has no
    tables."""
    if not nodes:
        assert not {"schema", "objects", "arrows"} & set(payload)
        return
    assert payload["schema"] == 2
    tables = {"objects": payload["objects"], "arrows": payload["arrows"]}
    for name, rows in tables.items():
        # maximal sharing: equal rows would be one node written twice
        assert len({json.dumps(r, sort_keys=True) for r in rows}) \
            == len(rows), name
        for i, row in enumerate(rows):
            objs, arrs = _row_refs(row)
            same, other = (objs, arrs) if name == "objects" else (arrs, objs)
            assert all(isinstance(j, int) and 0 <= j < i for j in same), row
            assert all(isinstance(j, int) and 0 <= j < len(
                tables["arrows" if name == "objects" else "objects"])
                       for j in other), row
    objs, arrs = _payload_refs(payload)
    assert all(0 <= j < len(tables["objects"]) for j in objs)
    assert all(0 <= j < len(tables["arrows"]) for j in arrs)
    # every row is reached from the payload's fields
    seen = {("objects", j) for j in objs} | {("arrows", j) for j in arrs}
    stack = list(seen)
    while stack:
        name, j = stack.pop()
        o, a = _row_refs(tables[name][j])
        for ref in [("objects", k) for k in o] + [("arrows", k) for k in a]:
            if ref not in seen:
                seen.add(ref)
                stack.append(ref)
    assert len(seen) == len(tables["objects"]) + len(tables["arrows"])
    assert len(seen) == nodes


def _tree(x) -> dict:
    """`x` written out in full, as schema 1 wrote objects and arrows."""
    if isinstance(x, Leaf):
        return {"kind": "sort", "name": x.sort.name}
    if isinstance(x, Prod):
        return {"kind": "product", "factors": [_tree(f) for f in x.factors]}
    if isinstance(x, Id):
        return {"kind": "id", "object": _tree(x.obj)}
    if isinstance(x, arrows.Proj):
        return {"kind": "proj", "index": x.index, "source": _tree(x.src)}
    if isinstance(x, Gen):
        return {"kind": "gen", "op": x.op.name}
    if isinstance(x, TupleArrow):
        return {"kind": "tuple", "source": _tree(x.src),
                "parts": [_tree(p) for p in x.parts]}
    return {"kind": "comp", "after": _tree(x.after),
            "before": _tree(x.before)}


def test_tables_of_generated_terms():
    # the compile payload's nodes, each term's in its own tables: every
    # field expands to the full tree of its node
    rng = random.Random(7)
    for _ in range(60):
        sig = gen_signature(rng)
        t = gen_term(rng, sig, depth=rng.randint(0, 5))
        fields = {"input_product": arrows.input_product(t.vars),
                  "occurrences": arrows.occurrence_arrow(t.expr, t.vars),
                  "regroup": arrows.regroup_arrow(t.expr),
                  "apply": arrows.apply_arrow(t.expr)}
        tables = Tables()
        payload = tables.payload({k: arrow_json(x, tables)
                                  for k, x in fields.items()})
        payload = json.loads(json_text(payload))
        check_tables(payload, len(_distinct_nodes(fields.values())))
        expanded = expand(payload)
        assert expanded == {k: _tree(x) for k, x in fields.items()}


def _steps_nodes(steps) -> list:
    return [s.arrow if hasattr(s, "arrow") else s.src for s in steps
            if isinstance(s, (kernel.Refl, kernel.ComposeLeft,
                              kernel.ComposeRight, kernel.TupleCong))]


def _certificate_nodes(sf, proof, levelled: bool) -> list:
    """The objects and arrows the certificate of `proof` names."""
    steps, hyps = build_proof(sf, proof)
    lemmas = lemma_table(sf.signature, steps)
    if not levelled:
        return _steps_nodes([s for x in lemmas for s in x.proof])
    cert = certify(sf.signature, steps, hyps)
    sides = [side for cs in (cert.hyp, cert.claim, cert.wksp) for c in cs
             for side in (c.left, c.right)]
    return sides + _steps_nodes([s for p in cert.verif for s in p])


def test_tables_of_corpus_certificates(capsys):
    # both routes, one proof and all proofs; all proofs of a file share one
    # pair of tables
    seen = 0
    for path in sorted(CORPUS.glob("*.msl")):
        sf = parse_spec(path.read_text(encoding="utf-8"))
        for levelled in ([], ["--levelled"]):
            every = []
            for proof in sf.proofs.values():
                try:
                    roots = _certificate_nodes(sf, proof, bool(levelled))
                except DeductionError:
                    roots = []
                every += roots
                run(["check-proof", *levelled, "--json", "--proof",
                     proof.name, str(path)])
                payload = json.loads(capsys.readouterr().out)
                check_tables(payload, len(_distinct_nodes(roots)))
                seen += 1
            run(["check-proof", *levelled, "--json", str(path)])
            payload = json.loads(capsys.readouterr().out)
            if sf.proofs:
                check_tables(payload, len(_distinct_nodes(every)))
    assert seen == 8


def test_tables_take_a_deep_arrow():
    # the walk keeps its own stack: a 20,000-deep arrow becomes tables at
    # the interpreter's default recursion limit
    sig = validate_signature(["s"], [("i", ["s"], "s")])
    i = Gen(sig.operation("i"))
    p = i.src
    a = Id(p)
    for _ in range(20000):
        a = TupleArrow(p, (Comp(i, a),))
    tables = Tables()
    assert arrow_json(a, tables) == 2 * 20000 + 1
    assert [len(tables.objects), len(tables.arrows)] == [2, 2 * 20000 + 2]
    text = json_text(tables.payload({}))
    assert text.endswith("\n  \"schema\": 2\n}")
    rows = json.loads(text)["arrows"]
    assert rows[:3] == [{"kind": "gen", "op": "i"},
                        {"kind": "id", "object": 1},
                        {"kind": "comp", "after": 0, "before": 1}]
    assert rows[-1] == {"kind": "tuple", "source": 1, "parts": [2 * 20000]}


def test_compile_json_of_a_deep_tower_is_compact(tmp_path, capsys):
    # each object and arrow is written once: the depth-160 tower's
    # compile --json printed 88.8 MB when every arrow was a full tree
    d = 160
    tower = "i(" * d + "x" + ")" * d
    f = tmp_path / "tower.msl"
    f.write_text(f"sort s\nop i : s -> s\nterm t [x:s] : {tower}\n")
    assert run(["compile", "--term", "t", "--json", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(out.encode()) < 1_000_000
    payload = json.loads(out)
    assert len(payload["objects"]) + len(payload["arrows"]) < 1200

