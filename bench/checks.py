"""Output checks that do not rely on the program's own answers.

Every check compares an output with a value computed here from the
generator's own structures (`msl`), or with a property the method must
have.  A check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import itertools
import json
import random

import msl
from msl import Sig

MODELS_PER_CHECK = 3
POINTS_PER_MODEL = 4


# --- the closed form and an exhaustive search, apart from termcat.models -----


def model_count(sig: Sig, bound: int, first_carrier=None) -> int:
    """Sum over carrier-size vectors of the product over operations of
    |out| ** (product of |in|); only over the vectors whose first sort has
    `first_carrier` elements, if that is given."""
    total = 0
    for sizes in itertools.product(range(1, bound + 1),
                                   repeat=len(sig.sorts)):
        if first_carrier is not None and sizes[0] != first_carrier:
            continue
        n = 1
        for o in sig.ops:
            points = 1
            for s in o.inputs:
                points *= sizes[s]
            n *= sizes[o.output] ** points
        total += n
    return total


def counterexample_rank(sig: Sig, left, right, vs, bound: int,
                        limit: int | None = None):
    """Exhaustive search, apart from termcat.models: the 1-based position,
    in the documented order of `termcat.models.enumerate_models` (carrier
    sizes lexicographically, then every operation's table by output
    choices), of the first model with carriers <= bound that falsifies
    left = right; None if no model among the first `limit` (by default,
    all of them) does."""
    rank = 0
    for sizes in itertools.product(range(1, bound + 1),
                                   repeat=len(sig.sorts)):
        domains = []
        for o in sig.ops:
            points = list(itertools.product(*(range(sizes[s])
                                              for s in o.inputs)))
            domains.append((o.name, points, sizes[o.output]))
        choices = [itertools.product(range(n), repeat=len(points))
                   for _, points, n in domains]
        for combo in itertools.product(*choices):
            rank += 1
            if limit is not None and rank > limit:
                return None
            tables = {name: dict(zip(points, outs))
                      for (name, points, _), outs in zip(domains, combo)}
            model = msl.Model(sizes, tables)
            if not msl.holds(model, left, right, vs):
                return rank
    return None


# --- JSON shapes -------------------------------------------------------------


def expr_json(sig: Sig, e) -> dict:
    if e[0] == "v":
        return {"kind": "var", "var": {"sort": sig.sorts[e[1]], "num": e[2]}}
    return {"kind": "app", "op": e[1],
            "args": [expr_json(sig, a) for a in e[2]]}


def vars_json(sig: Sig, vs) -> list:
    return [{"sort": sig.sorts[s], "num": n} for s, n in sorted(vs)]


def _product_json(sig: Sig, vs) -> dict:
    return {"kind": "product",
            "factors": [{"kind": "sort", "name": sig.sorts[s]}
                        for s, _ in sorted(vs)]}


def eval_normal(model: msl.Model, body: dict, point):
    """Value of a JSON normal-form body at a point of its domain."""
    kind = body["kind"]
    if kind == "path":
        for step in body["steps"]:
            point = point[step - 1]
        return point
    if kind == "gen":
        args = tuple(eval_normal(model, a, point) for a in body["args"])
        return model.tables[body["op"]][args]
    return tuple(eval_normal(model, p, point) for p in body["parts"])


def check_normal(sig: Sig, normal: dict, e, vs, rng: random.Random):
    """The normal form of a term over `vs` must have the flat product of
    `vs` as domain, the expression's sort as codomain, and the expression's
    value at points of random finite models."""
    if normal.get("dom") != _product_json(sig, vs):
        return "normal form has the wrong domain"
    if normal.get("cod") != {"kind": "sort",
                             "name": sig.sorts[msl.sort_of(sig, e)]}:
        return "normal form has the wrong codomain"
    vs = sorted(vs)
    for _ in range(MODELS_PER_CHECK):
        model = msl.random_model(sig, rng)
        for _ in range(POINTS_PER_MODEL):
            env = msl.random_env(model, rng, vs)
            point = tuple(env[v] for v in vs)
            try:
                got = eval_normal(model, normal["body"], point)
            except (KeyError, IndexError, TypeError):
                return "normal form does not evaluate"
            if got != msl.evaluate(model, e, env):
                return "normal form disagrees with the expression"
    return None


# --- per-command checks ------------------------------------------------------


def _load(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def check_compile(task, out: str, rng) -> str | None:
    doc = _load(out)
    if doc is None:
        return "output is not JSON"
    d = task.data
    if doc["term"]["expr"] != expr_json(task.sig, d["expr"]):
        return "compiled term is not the declared expression"
    return check_normal(task.sig, doc["normal"], d["expr"], d["vars"], rng)


def check_eq(task, out: str, rng) -> str | None:
    doc = _load(out)
    if doc is None:
        return "output is not JSON"
    d = task.data
    if doc["formally_equal"] != (d["left"] == d["right"]):
        return "verdict differs from 'both sides are the same expression'"
    for side in ("left", "right"):
        why = check_normal(task.sig, doc[side], d[side], d["vars"], rng)
        if why:
            return f"{side}: {why}"
    return None


def check_subst(task, out: str, rng) -> str | None:
    doc = _load(out)
    if doc is None:
        return "output is not JSON"
    d = task.data
    if doc["arrows_equal"] is not True:
        return "the two substitution routes were reported unequal"
    rec = doc["recursive"]["term"]
    if rec["expr"] != expr_json(task.sig, d["expr"]) \
            or rec["vars"] != vars_json(task.sig, d["vars"]):
        return "recursive route gives the wrong term"
    for route in ("recursive", "direct"):
        why = check_normal(task.sig, doc[route]["normal"], d["expr"],
                           d["vars"], rng)
        if why:
            return f"{route}: {why}"
    return None


def check_proof(task, out: str, rng) -> str | None:
    d = task.data
    lines = out.splitlines()
    head = f"proof {d['proof']}: "
    if not lines or not lines[0].startswith(head):
        return "no verdict line"
    verdict = lines[0][len(head):]
    if d["conclusion"] is None:
        if verdict.startswith("VALID"):
            return "an invalid proof was accepted"
        return None
    if verdict != "VALID":
        return f"a valid proof was rejected: {verdict}"
    left, right, vs = d["conclusion"]
    want = "  conclusion: " + msl.show_equation(task.sig, left, right, vs)
    if len(lines) < 2 or lines[1] != want:
        return "conclusion differs from the generator's derivation"
    if not msl.holds(d["model"], left, right, vs):
        return "conclusion fails in a model of the hypotheses"
    return None


def check_oracle(task, out: str, rng) -> str | None:
    doc = _load(out)
    if doc is None:
        return "output is not JSON"
    d, sig = task.data, task.sig
    if doc["models_checked"] != model_count(sig, d["bound"]):
        return "models_checked differs from the closed form"
    if doc["holds"]:
        if "counterexample" in doc:
            return "a holding equation carries a counterexample"
        if d["left"] != d["right"] and counterexample_rank(
                sig, d["left"], d["right"], d["vars"], d["bound"]):
            return "equation reported to hold has a counterexample"
        return None
    return check_counterexample(sig, doc.get("counterexample"), d)


def check_counterexample(sig: Sig, cx, d) -> str | None:
    """Re-evaluate the equation in the reported model and assignment."""
    if not cx:
        return "a failing verdict without a counterexample"
    carriers = cx["model"]["carriers"]
    sizes = tuple(carriers.get(s, 0) for s in sig.sorts)
    if not all(1 <= n <= d["bound"] for n in sizes):
        return "counterexample carriers out of range"
    tables = {}
    for o in sig.ops:
        raw = cx["model"]["tables"].get(o.name, {})
        points = list(itertools.product(*(range(sizes[s]) for s in o.inputs)))
        keys = [",".join(map(str, p)) for p in points]
        if sorted(raw) != sorted(keys) or not all(
                0 <= raw[k] < sizes[o.output] for k in keys):
            return f"table of {o.name} is incomplete or out of range"
        tables[o.name] = {p: raw[k] for p, k in zip(points, keys)}
    env = {}
    for s, n in d["vars"]:
        name = f"x{n}:{sig.sorts[s]}"
        value = cx["assignment"].get(name)
        if value is None or not 0 <= value < sizes[s]:
            return f"assignment of {name} missing or out of range"
        env[(s, n)] = value
    model = msl.Model(sizes, tables)
    if msl.evaluate(model, d["left"], env) \
            == msl.evaluate(model, d["right"], env):
        return "the counterexample does not falsify the equation"
    return None


CHECKS = {"compile": check_compile, "check-eq": check_eq,
          "subst": check_subst, "check-proof": check_proof,
          "oracle": check_oracle}


def check(task, out: str, rng: random.Random) -> str | None:
    """None if the op's output is right; the reason otherwise."""
    try:
        return CHECKS[task.command](task, out, rng)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"output lacks an expected field: {exc!r}"
