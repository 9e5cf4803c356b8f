from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import termcat
from fixtures import expand, make_term, raises_exactly, reference_payload
from gen import gen_equation, gen_expression, gen_signature, gen_term
from termcat import arrows, category, cli, dsl
from termcat.category import Path as NPath
from termcat.cli import json_text, run
from termcat.dsl import parse_spec
from termcat.errors import INTERNED, TermcatError
from termcat.terms import App, applications, var_set

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
MONOID = str(CORPUS / "monoid.msl")
TWOSORTED = str(CORPUS / "twosorted.msl")
UNSOUND = str(CORPUS / "unsound.msl")

ALL_COMMANDS = [
    ["sketch", MONOID],
    ["sketch", TWOSORTED],
    ["compile", "--term", "t1", MONOID],
    ["compile", "--term", "ee", MONOID],
    ["compile", "--term", "fb", TWOSORTED],
    ["check-eq", "--equation", "comm", MONOID],
    ["subst", "--term", "t1", "--var", "y", "--with", "double", MONOID],
    ["check-proof", MONOID],
    ["check-proof", "--proof", "unit_square", MONOID],
    ["check-proof", "--proof", "fetch", TWOSORTED],
    ["check-proof", "--levelled", MONOID],
    ["check-proof", "--levelled", "--proof", "unit_square", MONOID],
    ["check-proof", "--levelled", "--proof", "fetch", TWOSORTED],
    ["normalize-proof", "--proof", "comm_twice", MONOID],
    ["oracle", "--equation", "projl", "--max-size", "2", UNSOUND],
    ["oracle", "--equation", "idem", "--max-size", "2", UNSOUND],
]


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_sketch_text(capsys):
    code, out = _capture(capsys, ["sketch", MONOID])
    assert code == 0
    assert "(s, s)" in out and "vertex ()" in out


def test_compile_shows_stages(capsys):
    code, out = _capture(capsys, ["compile", "--term", "t1", MONOID])
    assert code == 0
    for label in ("occurrences", "regroup", "apply", "normal form"):
        assert label in out
    assert "m(p1, m(p2, p1))" in out


def test_check_eq_unprovable_without_hypotheses(capsys):
    code, out = _capture(capsys, ["check-eq", "--equation", "comm", MONOID])
    assert code == 1
    assert "formally equal: no" in out


def test_check_eq_reflexive(tmp_path, capsys):
    f = tmp_path / "r.msl"
    f.write_text("sort s\nop m : s s -> s\n"
                 "eq r [x:s, y:s] : m(x, y) = m(x, y)\n")
    code, out = _capture(capsys, ["check-eq", "--equation", "r", str(f)])
    assert code == 0
    assert "formally equal: yes" in out


def test_subst_routes_agree(capsys):
    code, out = _capture(capsys, ["subst", "--term", "t1", "--var", "y",
                                  "--with", "double", MONOID])
    assert code == 0
    assert "arrows equal: yes" in out


def test_check_proof_all_valid(capsys):
    code, out = _capture(capsys, ["check-proof", MONOID])
    assert code == 0
    assert out.count("VALID") == 3


def test_check_proof_json_certificate(capsys):
    code, out = _capture(capsys, ["check-proof", "--levelled", "--proof",
                                  "unit_square", MONOID, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True and payload["schema"] == 2
    cert = payload["certificate"]
    assert len(cert["hypotheses"]) == 1
    assert len(cert["claims"]) == 1
    assert cert["verification"]
    # the constraints and the steps name their arrows by row; the claim
    # runs from the terminal object, as `m(e, e) = e` has no variables
    rows = payload["arrows"]
    claim, = cert["claims"]
    assert {rows[claim["left"]]["kind"], rows[claim["right"]]["kind"]} \
        == {"comp"}
    tree = expand(payload)["certificate"]["claims"][0]["left"]
    while tree["kind"] == "comp":
        tree = tree["before"]
    assert tree["source"] == {"kind": "product", "factors": []}
    assert all(isinstance(s["arrow"], int) for p in cert["verification"]
               for s in p if "arrow" in s)


def test_check_proof_json_lemma_table(capsys):
    # unit_square: a = hyp lunit ; r = refl e ; b = subst a x r
    code, out = _capture(capsys, ["check-proof", "--proof", "unit_square",
                                  MONOID, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    lemmas = payload["certificate"]["lemmas"]
    assert set(payload["certificate"]) == {"lemmas"}
    assert [(x["cites"], x["hypothesis"]) for x in lemmas] == [
        ([], 0), ([], None), ([0, 1], None)]
    assert [x["proof"][0]["step"] for x in lemmas] == ["cite", "refl",
                                                       "cite"]
    assert lemmas[-1]["statement"] == payload["conclusion"]
    assert payload["trace"] == ["goal: established by lemma 2"]


def test_normalize_proof_levels(capsys):
    code, out = _capture(capsys, ["normalize-proof", "--proof",
                                  "comm_twice", MONOID])
    assert code == 0
    assert "level 0" in out and "copy" in out


def test_oracle_counterexample_exit_code(capsys):
    code, out = _capture(capsys, ["oracle", "--equation", "projl",
                                  "--max-size", "2", UNSOUND])
    assert code == 1
    assert "counterexample" in out


def test_oracle_holds_on_tautology(tmp_path, capsys):
    f = tmp_path / "t.msl"
    f.write_text("sort s\nop m : s s -> s\neq r [x:s] : x = x\n")
    code, out = _capture(capsys, ["oracle", "--equation", "r",
                                  "--max-size", "2", str(f)])
    assert code == 0
    assert "holds in all" in out
    # 22 sorts that no operation mentions are 22 factors of the bound: the
    # count does not visit their 2 ** 22 carrier-size vectors (13 s when it
    # did)
    sorts = " ".join(f"s{i}" for i in range(22))
    f.write_text(f"sort {sorts}\neq r [x:s0] : x = x\n")
    start = time.perf_counter()
    code, out = _capture(capsys, ["oracle", "--equation", "r",
                                  "--max-size", "2", str(f)])
    assert time.perf_counter() - start < 2
    assert (code, out.split("\n")[1:]) == (
        0, ["  holds in all 4194304 models with carriers <= 2", ""])


def test_oracle_bound_above_limit_exit_2(tmp_path, capsys):
    assert run(["oracle", "--equation", "projl", "--max-size", "7",
                UNSOUND]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    # a bound within 6 whose models are too many to count stops before the
    # search: f of arity 5 has 6 ** 7776 tables at size 6, and arity 9
    # 6 ** 6 ** 9 (these printed a traceback, after 5 s for f(x, ..., x) and
    # 7 s for arity 9); a chain of 21 unary operations takes 2 ** 22
    # vectors of 21 tables each at bound 2
    too_many = ("error: oracle stopped before counting: the signature's "
                "models with carriers <= 6 may number over 10^4000, the "
                "limit of a count\n")
    arity5 = "sort s\nop c : -> s\nop f : s s s s s -> s\neq r [x:s] : "
    chain = (f"sort {' '.join(f's{i}' for i in range(22))}\n"
             + "".join(f"op f{i} : s{i} -> s{i + 1}\n" for i in range(21)))
    cases = [
        (arity5 + "x = x\n", "6", too_many),
        (arity5 + "f(x, x, x, x, x) = f(x, x, x, x, x)\n", "6", too_many),
        ("sort s\nop c : -> s\nop f : s s s s s s s s s -> s\n"
         "eq r [x:s] : x = x\n", "6", too_many),
        (chain + "eq r [x:s0] : x = x\n", "2",
         "error: oracle stopped before counting: the models with carriers "
         "<= 2 take 88080384 table sizes to count, over the limit of "
         "1000000\n")]
    f = tmp_path / "big.msl"
    for text, bound, error in cases:
        f.write_text(text)
        for json_flag in ([], ["--json"]):
            start = time.perf_counter()
            assert run(["oracle", "--equation", "r", "--max-size", bound,
                        str(f)] + json_flag) == 2
            assert time.perf_counter() - start < 2
            assert capsys.readouterr() == ("", error)


def test_oracle_search_budget_exit_2(tmp_path, monkeypatch, capsys):
    from termcat import models
    f = tmp_path / "same.msl"
    f.write_text("sort s\nop m : s s -> s\nop e : -> s\n"
                 "eq same [x:s, y:s] : m(x, y) = m(x, y)\n")
    monkeypatch.setattr(models, "MAX_MODELS", 100)
    for json_flag in ([], ["--json"]):
        assert run(["oracle", "--equation", "same", "--max-size", "3",
                    str(f)] + json_flag) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: oracle search stopped after 100 models "
                       "without a counterexample: the equation's operations "
                       "and sorts have 19700 models with carriers <= 3, over "
                       "the limit of 100\n")
    # the real budget stops the search at bound 4, where m alone has 4 ** 16
    # tables at size 4
    monkeypatch.undo()
    assert run(["oracle", "--equation", "same", "--max-size", "4",
                str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: oracle search stopped after 1000000 models without a "
        "counterexample: the equation's operations and sorts have "
        "4294986996 models with carriers <= 4, over the limit of 1000000\n")
    # a counterexample inside the budget still exits 1
    for bound in ("3", "4"):
        assert run(["oracle", "--equation", "comm", "--max-size", bound,
                    MONOID]) == 1


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_oracle_bound_below_one_exit_2(bound, capsys):
    # a bound below 1 admits no model at all, so "holds in all 0 models"
    # would pass off a false equation as true
    for json_flag in ([], ["--json"]):
        assert run(["oracle", "--equation", "projl", "--max-size", bound,
                    UNSOUND] + json_flag) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: carrier bound {bound} is below 1\n")


def test_long_sym_chain(tmp_path, capsys):
    steps = "".join(f"  a{i} = sym a{i - 1} ;\n" for i in range(1, 401))
    f = tmp_path / "chain.msl"
    f.write_text("sort s\nop m : s s -> s\n"
                 "eq comm [x:s, y:s] : m(x, y) = m(y, x)\n"
                 "proof chain from comm {\n  a0 = hyp comm ;\n"
                 + steps + "}\n")
    code, out = _capture(capsys, ["check-proof", str(f)])
    assert code == 0 and "VALID" in out
    code, out = _capture(capsys, ["normalize-proof", "--proof", "chain",
                                  str(f)])
    assert code == 0 and "level 400" in out


EMPTY_SORT_CONCRETION = """sort s t
op f : s -> s
op c : -> s
eq q [x:s, y:t] : f(x) = f(x)
proof ok from q {
  a = hyp q ;
}
proof bad from q {
  a = hyp q ;
  b = conc a y ;
}
proof ok2 from q {
  a = hyp q ;
  b = sym a ;
}
"""


def test_concretion_over_empty_sort_fails_only_its_proof(tmp_path, capsys):
    # no closed term of sort t exists, so `conc a y` has no coding: that
    # proof is invalid (exit 1), and the proofs around it are still checked
    f = tmp_path / "empty.msl"
    f.write_text(EMPTY_SORT_CONCRETION)
    # both routes build the proof, which names the failing step
    message = "10:3: step 'b': sort t is empty; no closed filler exists"
    code, out = _capture(capsys, ["check-proof", "--levelled", str(f)])
    assert code == 1
    assert f"proof bad: INVALID ({message})" in out.splitlines()
    code, out = _capture(capsys, ["check-proof", str(f)])
    assert code == 1
    verdicts = [line for line in out.splitlines()
                if line.startswith("proof ")]
    assert verdicts == ["proof ok: VALID", f"proof bad: INVALID ({message})",
                        "proof ok2: VALID"]
    code, out = _capture(capsys, ["check-proof", "--json", str(f)])
    assert code == 1
    proofs = json.loads(out)["proofs"]
    assert [(p["proof"], p["valid"]) for p in proofs] == [
        ("ok", True), ("bad", False), ("ok2", True)]
    assert proofs[1]["error"] == message
    code, out = _capture(capsys, ["check-proof", "--proof", "bad", "--json",
                                  str(f)])
    assert code == 1
    assert json.loads(out) == {"proof": "bad", "valid": False,
                               "error": message}


_UNITS = """sort s t
op m : s s -> s
op e : -> s
op f : s -> s
eq lunit [x:s] : m(e, x) = x
eq runit [x:s] : m(x, e) = x
eq fx [x:s, y:t] : f(x) = f(x)
"""
# (steps of a proof from lunit, runit and fx, the failing step's
# line:column and name, and the rule's message); elaboration catches every
# other failure a .msl proof can have, on every command alike
PRODUCER_FAILURES = {
    "middle": ("a = hyp lunit ;\n  b = hyp runit ;\n  c = trans a b ;",
               "11:3: step 'c'",
               "premises do not share a middle term: x1:s vs m(x1:s, e)"),
    "vars": ("a = hyp lunit ;\n  b = refl [x:s, z:s] x ;\n"
             "  c = trans a b ;", "11:3: step 'c'",
             "transitivity premises must share the variable set"),
    "vars-and-sorts": ("a = hyp lunit ;\n  b = refl [y:t] y ;\n"
                       "  c = trans a b ;", "11:3: step 'c'",
                       "transitivity premises must share the variable set"),
    "empty-sort": ("a = hyp fx ;\n  b = sym a ;\n  c = conc b y ;",
                   "11:3: step 'c'",
                   "sort t is empty; no closed filler exists"),
    "occurs": ("a = hyp lunit ;\n  b = sym a ;\n  c = conc b x ;",
               "11:3: step 'c'",
               "x1:s occurs in the equation and cannot be removed"),
    "subst-sort": ("a = hyp lunit ;\n  b = refl [y:t] y ;\n"
                   "  c = subst a x b ;", "11:3: step 'c'",
                   "second premise has sort t, but x1:s requires s"),
}


@pytest.mark.parametrize("steps, where, message", PRODUCER_FAILURES.values(),
                         ids=PRODUCER_FAILURES.keys())
def test_producer_errors_name_their_step(steps, where, message, tmp_path,
                                         capsys):
    # `deduction.conclude` checks each step's side conditions on its own,
    # so a failure belongs to one .msl step, and every command that builds
    # the proof refuses it with the rule's message and the same location
    f = tmp_path / "bad.msl"
    f.write_text(_UNITS + "proof bad from lunit runit fx {\n  " + steps
                 + "\n}\n")
    error = f"{where}: {message}"
    for flag in ([], ["--levelled"]):
        assert run(["check-proof", *flag, str(f)]) == 1
        assert capsys.readouterr() == (f"proof bad: INVALID ({error})\n", "")
        code, out = _capture(capsys, ["check-proof", *flag, "--json", str(f)])
        assert code == 1
        assert json.loads(out)["proofs"][0]["error"] == error
    assert run(["normalize-proof", "--proof", "bad", str(f)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def _dag_proof(folds: int) -> str:
    steps = ["a = hyp lunit ;", "b = sym a ;", "c0 = trans a b ;"]
    steps += [f"c{k} = trans c{k - 1} c{k - 1} ;"
              for k in range(1, folds + 1)]
    return "proof dag from lunit {\n  " + "\n  ".join(steps) + "\n}\n"


def test_check_proof_sizes_line(tmp_path, capsys):
    # c_k = trans c_(k-1) c_(k-1) at k = 12: one lemma per distinct step,
    # where the levelled certificate has 20,479 kernel steps
    f = tmp_path / "dag.msl"
    f.write_text(_UNITS + _dag_proof(12))
    code, out = _capture(capsys, ["check-proof", str(f)])
    assert code == 0
    assert out.splitlines()[2:] == [
        "  hypotheses: 1, lemmas: 15, kernel steps: 42",
        "  goal: established by lemma 14"]


def test_each_step_is_coded_once_on_both_routes(tmp_path, capsys,
                                                monkeypatch):
    # the levelled certificate is pasted from the lemma table's codings:
    # one rule coding per declared step on either route, although the
    # k = 12 certificate still carries 20,479 kernel steps
    from termcat import deduction
    f = tmp_path / "dag.msl"
    f.write_text(_UNITS + _dag_proof(12))
    coded, certs = [], []
    code_rule = deduction._code_rule
    compile_to_factorization = deduction.compile_to_factorization

    def counting(*args):
        coded.append(args[2])
        return code_rule(*args)

    def kept(*args):
        certs.append(compile_to_factorization(*args))
        return certs[-1]

    monkeypatch.setattr(deduction, "_code_rule", counting)
    monkeypatch.setattr(deduction, "compile_to_factorization", kept)
    for flag in ([], ["--levelled"]):
        coded.clear()
        code, _ = _capture(capsys, ["check-proof", *flag, str(f)])
        assert code == 0
        assert len(coded) == 15
    cert, = certs
    assert sum(len(p) for p in cert.verif) == 20479


def test_each_step_is_concluded_once(monkeypatch, capsys):
    # `deduction.derive` draws each step's conclusion with one `conclude`
    # call as it builds the step; the rule codings and every command after
    # the build draw none again
    from termcat import deduction
    concluded, built = [], []
    conclude, build_proof = deduction.conclude, cli.build_proof

    def counting(*args):
        concluded.append(args[1])
        return conclude(*args)

    def building(*args):
        steps, hyps = build_proof(*args)
        built.extend(steps)
        return steps, hyps

    for module in (deduction, dsl):  # wherever a module reads `conclude`
        if hasattr(module, "conclude"):
            monkeypatch.setattr(module, "conclude", counting)
    monkeypatch.setattr(cli, "build_proof", building)
    for path in sorted(CORPUS.glob("*.msl")):
        for name in parse_spec(path.read_text(encoding="utf-8")).proofs:
            for argv in (["check-proof"], ["check-proof", "--levelled"],
                         ["normalize-proof"]):
                concluded.clear()
                built.clear()
                assert run([*argv, "--proof", name, str(path)]) == 0
                assert len(concluded) == len(built) > 0, (argv, name)
    capsys.readouterr()


def test_the_levelled_form_has_a_budget(tmp_path, capsys):
    # the levelled form of the k-fold DAG has 3 * 2 ** (k + 1) - 1 entries:
    # 49,151 at k = 13 fit in MAX_LEVELLED, 98,303 at k = 14 do not, and
    # the count is made before anything is built
    from termcat import deduction
    assert deduction.MAX_LEVELLED == 65_536
    sf = parse_spec(_UNITS + _dag_proof(13))
    steps, _ = dsl.build_proof(sf, sf.proofs["dag"])
    ld = deduction.normalize_deduction(steps)
    assert sum(len(level) for level in ld.levels) == 49151
    sf = parse_spec(_UNITS + _dag_proof(14))
    steps, _ = dsl.build_proof(sf, sf.proofs["dag"])
    with raises_exactly(TermcatError, "the levelled form would have 98303 "
                        "entries, over the limit of 65536"):
        deduction.normalize_deduction(steps)
    # at k = 30 both levelled commands stop at once with an input error,
    # while the lemma table, one lemma per step, still checks the proof
    f = tmp_path / "dag.msl"
    f.write_text(_UNITS + _dag_proof(30))
    for argv in (["check-proof", "--levelled"],
                 ["check-proof", "--levelled", "--json"],
                 ["normalize-proof", "--proof", "dag"]):
        start = time.perf_counter()
        code = run([*argv, str(f)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == ("error: the levelled form would have 6442450943 "
                       "entries, over the limit of 65536\n")
        assert elapsed < 1
    code, out = _capture(capsys, ["check-proof", str(f)])
    assert code == 0
    assert out.splitlines()[0] == "proof dag: VALID"


# the first proof's step c has no middle term, and no later step cites it;
# the second's steps c and d hold, and nothing cites c
UNUSED_STEPS = """proof dead from lunit runit {
  a = hyp lunit ;
  b = hyp runit ;
  c = trans a b ;
  d = sym a ;
}
proof unused from lunit runit {
  a = hyp lunit ;
  b = hyp runit ;
  c = sym b ;
  d = sym a ;
}
"""


def test_a_step_nothing_cites_is_checked(tmp_path, capsys):
    f = tmp_path / "unused.msl"
    f.write_text(_UNITS + UNUSED_STEPS)
    dead = ("proof dead: INVALID (11:3: step 'c': premises do not share a "
            "middle term: x1:s vs m(x1:s, e))")
    for flag, sizes in (([], "hypotheses: 2, lemmas: 4, kernel steps: 6"),
                        (["--levelled"],
                         "hypotheses: 2, claims: 1, workspace: 1")):
        code, out = _capture(capsys, ["check-proof", *flag, str(f)])
        assert code == 1
        assert out.splitlines()[:4] == [
            dead, "proof unused: VALID",
            "  conclusion: x1:s = m(e, x1:s)  [x1:s]", f"  {sizes}"]
        code, out = _capture(capsys, ["check-proof", *flag, "--proof",
                                      "unused", str(f)])
        assert code == 0
    code, out = _capture(capsys, ["check-proof", "--json", "--proof",
                                  "unused", str(f)])
    lemmas = expand(json.loads(out))["certificate"]["lemmas"]
    assert [(x["cites"], x["hypothesis"]) for x in lemmas] == [
        ([], 0), ([], 1), ([1], None), ([0], None)]


def test_lemmas_come_in_declaration_order(tmp_path, capsys):
    # lemma k is step k: a premises-first walk from the last step would
    # put a before b
    f = tmp_path / "order.msl"
    f.write_text(_UNITS + "proof order from lunit runit {\n"
                 "  b = hyp runit ;\n  a = hyp lunit ;\n  c = sym b ;\n"
                 "  d = trans a c ;\n}\n")
    code, out = _capture(capsys, ["check-proof", "--json", str(f)])
    assert code == 0
    lemmas = expand(json.loads(out))["proofs"][0]["certificate"]["lemmas"]
    assert [(x["cites"], x["hypothesis"]) for x in lemmas] == [
        ([], 1), ([], 0), ([0], None), ([1, 2], None)]
    sf = parse_spec(f.read_text())
    assert [x["statement"] for x in lemmas[:2]] == [
        reference_payload(cli.equation_json(sf.equations[name]))
        for name in ("runit", "lunit")]


def test_lemma_table_that_claims_the_goal_is_refused(monkeypatch, capsys):
    # a producer that claims the goal with no derivation, the lemma
    # analogue of `identity_factorization((goal,))`: the kernel compiles
    # the statement itself, and the citation finds no premise to name;
    # the kernel rejects lemma 0, so its lines name step 0 of the proof
    from termcat import deduction, kernel

    def claim_the_goal(sig, steps):
        return (kernel.Lemma(steps[-1].equation, (), None,
                             (kernel.CiteHyp(0),)),)

    monkeypatch.setattr(deduction, "lemma_table", claim_the_goal)
    code, out = _capture(capsys, ["check-proof", "--proof", "comm_twice",
                                  MONOID])
    assert code == 1
    assert out.splitlines()[0] == "proof comm_twice: FAILED VERIFICATION"
    rejected = ["24:3: step 'a': lemma 0: step 0: citation of missing "
                "hypothesis 0",
                "24:3: step 'a': lemma 0: kernel proof failed to replay"]
    assert out.splitlines()[3:] == [f"  {line}" for line in rejected]
    code, out = _capture(capsys, ["check-proof", "--json", "--proof",
                                  "comm_twice", MONOID])
    assert code == 1
    assert json.loads(out)["trace"] == rejected


def test_both_check_proof_routes_agree(tmp_path, capsys, monkeypatch):
    # on the corpus and the seed-1 and seed-2 proofs workload files, which
    # hold mutated proofs, the lemma table and the levelled certificate give
    # the same exit code, the same verdict word per proof and the same
    # reason, byte for byte, per INVALID proof
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    files = sorted(CORPUS.glob("*.msl"))
    for seed in (1, 2):
        for name, text in workloads.proofs(seed).files.items():
            files.append(tmp_path / f"{seed}-{name}")
            files[-1].write_text(text)
    verdict = re.compile(r"^proof [^:]*: [A-Z]+", re.M)
    invalid = re.compile(r"^proof [^:]*: INVALID .*", re.M)
    codes, reasons = set(), 0
    for f in files:
        a, lemma = _capture(capsys, ["check-proof", str(f)])
        b, levelled = _capture(capsys, ["check-proof", "--levelled", str(f)])
        assert a == b, f
        assert verdict.findall(lemma) == verdict.findall(levelled), f
        assert invalid.findall(lemma) == invalid.findall(levelled), f
        codes.add(a)
        reasons += len(invalid.findall(lemma))
    assert len(files) == 51 and codes == {0, 1} and reasons >= 48


def test_traced_layer_functions_exist():
    # the benchmark's tracer wraps these functions by name
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {m: getattr(termcat, m)
               for m in ("cli", "arrows", "deduction", "models")}
    assert tracing.missing_calls(modules) == []


UNKNOWN_NAMES = [
    (["compile", "--term", "nope"], "unknown term 'nope'"),
    (["check-eq", "--equation", "nope"], "unknown equation 'nope'"),
    (["oracle", "--equation", "nope"], "unknown equation 'nope'"),
    (["subst", "--term", "nope", "--var", "y", "--with", "double"],
     "unknown term 'nope'"),
    (["subst", "--term", "t1", "--var", "y", "--with", "nope"],
     "unknown term 'nope'"),
    (["subst", "--term", "t1", "--var", "nope", "--with", "double"],
     "'nope' does not name a variable of 't1'"),
    (["check-proof", "--proof", "nope"], "unknown proof 'nope'"),
    (["normalize-proof", "--proof", "nope"], "unknown proof 'nope'"),
]


def test_unknown_names_exit_2(capsys):
    for argv, message in UNKNOWN_NAMES:
        for json_flag in ([], ["--json"]):
            assert run(argv + json_flag + [MONOID]) == 2, argv
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"error: {message}\n"), argv


def test_syntax_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.msl"
    f.write_text("op f : s1 -> \n")
    assert run(["sketch", str(f)]) == 2
    capsys.readouterr()


_HEAD = "sort s\nop f : s -> s\n"
_PROOF = _HEAD + "eq q [x:s] : x = x\n"
SYNTAX_ERRORS = {
    "open-call-at-eof": (_HEAD + "term t [x:s] : f(",
                         "4:1: expected NAME, found 'EOF'"),
    "trailing-comma-in-call": (_HEAD + "term t [x:s] : f(x,)\n",
                               "3:20: expected NAME, found ')'"),
    "trailing-comma-in-bracket": (_HEAD + "term t [x:s, ] : f(x)\n",
                                  "3:14: expected NAME, found ']'"),
    "trailing-token": (_HEAD + "term t [x:s] : f(x) extra\n",
                       "3:21: unexpected 'extra' at end of statement"),
    "unterminated-proof": (_PROOF + "proof p from q {\n  a = hyp q ;\n",
                           "6:1: expected NAME, found 'EOF'"),
    "missing-semicolon": (_PROOF + "proof p from q {\n  a = hyp q\n}\n",
                          "5:12: expected SEMI, found 'NEWLINE'"),
    "unknown-rule": (_PROOF + "proof p from q {\n  a = foo q ;\n}\n",
                     "5:7: unknown rule 'foo'"),
    "missing-from": (_PROOF + "proof p of q {\n  a = hyp q ;\n}\n",
                     "4:9: expected 'from'"),
    "empty-proof": (_PROOF + "proof p from q {\n}\n",
                    "4:7: proof 'p' has no steps"),
    "unknown-step": (_PROOF + "proof p from q {\n  a = hyp q ;\n"
                     "  b = trans a zz ;\n}\n",
                     "6:3: step references unknown step 'zz'"),
    "cite-outside-from": (_PROOF + "eq r [x:s] : f(x) = f(x)\n"
                          "proof p from q {\n  a = hyp r ;\n}\n",
                          "6:3: step cites 'r', which is not among the "
                          "proof's hypotheses"),
    "statement-starts-with-symbol": (_HEAD + "( x\n",
                                     "3:1: expected a statement, found '('"),
    "unknown-statement": (_HEAD + "axiom a\n",
                          "3:1: unknown statement 'axiom'"),
    "empty-sort": ("sort\n", "1:1: sort statement names no sorts"),
    "missing-arrow": ("sort s\nop f : s s\n", "2:11: unexpected 'NEWLINE'"),
    "unexpected-character": (_HEAD + "term t [x:s] : f(x) $\n",
                             "3:21: unexpected character '$'"),
    "bracket-without-colon": (_HEAD + "term t [x s] : x\n",
                              "3:11: expected COLON, found 's'"),
    "eq-without-equals": (_HEAD + "eq q [x:s] : f(x) x\n",
                          "3:19: expected EQUALS, found 'x'"),
    "unknown-operation": (_HEAD + "term t [x:s] : g(x)\n",
                          "3:16: unknown operation 'g'"),
    "unknown-name": (_HEAD + "eq q [x:s] : f(y) = x\n",
                     "3:16: unknown name 'y'"),
    "arity": (_HEAD + "term t [x:s] : f(x, x)\n",
              "3:16: f expects 1 arguments, got 2"),
    "constant-with-arguments": ("sort s\nop c : -> s\nterm t : c(c)\n",
                                "3:10: c expects 0 arguments, got 1"),
    "wrong-sort": ("sort s u\nop f : s -> s\nop c : -> u\nterm t : f(c)\n",
                   "4:10: argument 1 of f has sort u, expected s"),
    "unknown-sort-in-bracket": (_HEAD + "term t [x:q] : f(x)\n",
                                "3:1: unknown sort 'q'"),
    "variable-shadows-operation": (_HEAD + "term t [f:s] : f\n",
                                   "3:1: variable 'f' shadows an operation"),
}


@pytest.mark.parametrize("text, message", SYNTAX_ERRORS.values(),
                         ids=SYNTAX_ERRORS.keys())
def test_syntax_error_lines(text, message, tmp_path, capsys):
    f = tmp_path / "bad.msl"
    f.write_text(text)
    assert run(["sketch", str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_duplicate_step_name_exit_2(json_flag, tmp_path, capsys):
    # the second `a` would shadow the first
    f = tmp_path / "dup.msl"
    f.write_text("sort s\nop m : s s -> s\nop e : -> s\n"
                 "eq lunit [x:s] : m(e, x) = x\n"
                 "proof p from lunit { a = hyp lunit ; a = sym a ; }\n")
    assert run(["check-proof", *json_flag, str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: 5:38: step 'a' declared twice\n")


def test_missing_file_exit_2(capsys):
    assert run(["sketch", "/nonexistent/x.msl"]) == 2
    capsys.readouterr()


def _one_error_line(err: str) -> bool:
    return len(err.splitlines()) == 1 and err.startswith("error: ") \
        and "Traceback" not in err


def test_directory_input_exit_2(tmp_path, capsys):
    assert run(["sketch", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "Is a directory" in err


def test_undecodable_input_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.msl"
    f.write_bytes(b"sort s\xff\n")
    assert run(["sketch", str(f)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "can't decode byte 0xff" in err
    assert f"{f}:1:7:" in err


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c",
                                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                         ids=["LF", "CR", "CRLF", "VT", "FF", "FS", "GS", "RS",
                              "NEL", "LS", "PS"])
def test_undecodable_byte_position_counts_lines_as_the_parser(brk, tmp_path,
                                                              capsys):
    # every break str.splitlines knows ends a line for the parser, so the
    # bad byte sits at 2:7 whichever break precedes it
    f = tmp_path / "bad.msl"
    f.write_bytes(("sort s" + brk + "sort t").encode() + b"\xff\n")
    assert run(["sketch", str(f)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and f"{f}:2:7:" in err


def _tower(depth: int) -> str:
    return "i(" * depth + "x" + ")" * depth


@pytest.mark.parametrize("depth, argv, end", [
    (600, ["sketch"], "  vertex (s): p1: (s) -> s\n"),
    (250, ["compile", "--term", "t", "--json"], "\n}\n"),
    (250, ["check-eq", "--equation", "q", "--json"], "\n}\n"),
    (100, ["compile", "--term", "t"], "(p1" + ")" * 100 + "\n"),
    (20000, ["subst", "--term", "t", "--var", "x", "--with", "t"],
     "(p1" + ")" * 40000 + "\n  arrows equal: yes\n"),
], ids=["sketch-600", "compile-json-250", "check-eq-json-250",
        "compile-text-100", "subst-text-20000"])
def test_deep_input_gives_the_complete_output(depth, argv, end, tmp_path,
                                              capsys):
    # no walker recurses, so each command exits 0 on a deep tower with its
    # complete output (`end` is how it ends) and nothing on stderr: subst
    # puts the 20,000-deep tower into itself on both routes.  stdout goes
    # to a file: at depth 250 `compile --json` writes 1.7 MB
    f = tmp_path / "deep.msl"
    f.write_text(f"sort s\nop i : s -> s\nterm t [x:s] : {_tower(depth)}\n"
                 f"eq q [x:s] : {_tower(depth)} = {_tower(depth)}\n")
    stdout = tmp_path / "stdout"
    with stdout.open("w") as fh, contextlib.redirect_stdout(fh):
        code = run(argv + [str(f)])
    err = capsys.readouterr().err
    size = stdout.stat().st_size
    with stdout.open("rb") as fh:
        fh.seek(max(0, size - len(end)))
        tail = fh.read().decode()
    stdout.unlink()  # pytest keeps the temporary directories of recent runs
    assert (code, tail, err) == (0, end, "")


_SWEEP = """\
import contextlib, hashlib, io, json, sys
from termcat import cli
sys.setrecursionlimit(120)
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out = out.getvalue().encode()
    results.append([code, hashlib.sha256(out).hexdigest(), out[-1:].decode(),
                    err.getvalue()])
print(json.dumps(results))
"""


def test_no_command_recurses(tmp_path, capsys):
    # every command, text and --json, runs on 400-deep towers in an
    # interpreter whose recursion limit is 120, and prints what it prints
    # at the default limit (the outputs are compared by digest: --json
    # writes up to 70 MB here).  The `ast` scan of test_no_function_recurses
    # cannot see recursion through a dunder or an f-string; this can
    d = 400
    unary = _tower(d)
    binary = "m(" * d + "x" + ", y)" * d
    flipped = "m(" * d + "y" + ", x)" * d
    f = tmp_path / "deep.msl"
    f.write_text(
        f"sort s\nop i : s -> s\nop m : s s -> s\nop c : -> s\n"
        f"term u [x:s] : {unary}\nterm b [x:s, y:s] : {binary}\n"
        "term r : c\n"
        f"eq h [x:s] : {unary} = {unary}\n"
        f"eq bad [x:s, y:s] : {binary} = {flipped}\n"
        "proof sxa from h {\n  a = hyp h ;\n  b = subst a x a ;\n}\n"
        "proof rs from h {\n  a = hyp h ;\n  r = refl c ;\n"
        "  b = subst a x r ;\n}\n"
        "proof chain from h {\n  a = hyp h ;\n  s = sym a ;\n"
        "  t = trans a s ;\n  ab = abs t y : s ;\n  co = conc ab y ;\n}\n")
    commands = [["sketch"], ["compile", "--term", "u"],
                ["compile", "--term", "b"],
                ["subst", "--term", "u", "--var", "x", "--with", "r"],
                ["check-proof"], ["check-proof", "--levelled"]]
    commands += [[cmd, "--equation", eq] for cmd in ("check-eq", "oracle")
                 for eq in ("h", "bad")]
    commands += [["normalize-proof", "--proof", name]
                 for name in ("sxa", "rs", "chain")]
    argvs = [argv + flag + [str(f)] for argv in commands
             for flag in ([], ["--json"])]
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) == 26
    for argv, (code, digest, end, err) in zip(argvs, results):
        assert (code, end, err) in ((0, "\n", ""), (1, "\n", "")), argv
        want, out = _capture(capsys, argv)
        assert (code, digest) == (want,
                                  hashlib.sha256(out.encode()).hexdigest())


def test_oracle_json_takes_a_deep_equation(tmp_path, capsys):
    # the JSON writer keeps its own stack: oracle --json writes a
    # 1,200-deep equation, 35 MB, with nothing on stderr (it stopped near
    # 500 when the expressions were written by recursion).  stdout goes to
    # a file
    f = tmp_path / "deep.msl"
    f.write_text(f"sort s\nop i : s -> s\n"
                 f"eq q [x:s] : {_tower(1200)} = {_tower(1200)}\n")
    stdout = tmp_path / "stdout"
    with stdout.open("w") as fh, contextlib.redirect_stdout(fh):
        code = run(["oracle", "--equation", "q", "--json", str(f)])
    assert (code, capsys.readouterr().err) == (0, "")
    size = stdout.stat().st_size
    with stdout.open("rb") as fh:
        head = fh.read(80).decode()
        fh.seek(size - 3)
        tail = fh.read().decode()
    stdout.unlink()  # pytest keeps the temporary directories of recent runs
    assert head.startswith('{\n  "equation": {\n    "left": {\n')
    assert tail == "\n}\n" and size > 30_000_000


def test_check_eq_takes_a_deep_equation(tmp_path, capsys):
    # normal forms compare with an explicit stack: text check-eq decides a
    # 5,000-deep equation (it stopped near 250 when they compared by
    # recursion)
    f = tmp_path / "deep.msl"
    f.write_text(f"sort s\nop i : s -> s\n"
                 f"eq q [x:s] : {_tower(5000)} = {_tower(5000)}\n")
    assert run(["check-eq", "--equation", "q", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\n  formally equal: yes\n")


def test_front_end_takes_deep_input(tmp_path, capsys):
    # the scanner, the parser, the sort check and elaboration use no
    # recursion, so a command that needs only the signature checks a
    # 20,000-deep tower and prints what it prints for a shallow one, and the
    # tower's term and equation build when they are read
    outputs = []
    for depth in (1, 20000):
        text = (f"sort s\nop i : s -> s\nterm t [x:s] : {_tower(depth)}\n"
                f"eq q [x:s] : {_tower(depth)} = {_tower(depth)}\n")
        f = tmp_path / f"deep{depth}.msl"
        f.write_text(text)
        code = run(["sketch", str(f)])
        outputs.append((code, *capsys.readouterr()))  # code, out, err
        sf = parse_spec(text)
        t, q = sf.terms["t"], sf.equations["q"]
        for e in (t.expr, q.left, q.right):
            levels = 0
            while isinstance(e, App):
                e, levels = e.args[0], levels + 1
            assert levels == depth and e == t.vars[0]
    assert outputs[1] == outputs[0]
    code, out, err = outputs[0]
    assert (code, err) == (0, "")
    assert out.endswith("cones:\n  vertex (s): p1: (s) -> s\n")


def test_check_proof_takes_a_deep_conclusion(tmp_path, capsys):
    # the lemma-table route has no recursion from the text to the verdict,
    # and an expression prints without recursion, so default check-proof
    # proves a 5,000-deep tower by hyp and sym; its output differs from the
    # 1-deep tower's only in the conclusion
    lines = {}
    for depth in (1, 5000):
        tower = _tower(depth)
        f = tmp_path / f"deep{depth}.msl"
        f.write_text(f"sort s\nop i : s -> s\n"
                     f"eq h [x:s] : {tower} = {tower}\n"
                     "proof p from h {\n  a = hyp h ;\n  b = sym a ;\n}\n")
        assert run(["check-proof", "--proof", "p", str(f)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines[depth] = out.split("\n")
        side = tower.replace("x", "x1:s")
        assert lines[depth][:2] == ["proof p: VALID",
                                    f"  conclusion: {side} = {side}  [x1:s]"]
    assert lines[5000][2:] == lines[1][2:]


_SUBST_CHAIN = "a0 = hyp h ;" + "".join(
    f"\n  a{i} = subst a{i - 1} x a{i - 1} ;" for i in range(1, 5))


@pytest.mark.parametrize("side, steps, flags", [
    (_tower(5000), "a = hyp h ;\n  b = subst a x a ;", []),
    (_tower(5000), "a = hyp h ;\n  r = refl c ;\n  b = subst a x r ;", []),
    (_tower(5000), "a = hyp h ;\n  b = subst a x a ;", ["--levelled"]),
    (_tower(5000), "a = hyp h ;\n  r = refl c ;\n  b = subst a x r ;",
     ["--levelled"]),
    ("m(x, x)", _SUBST_CHAIN, []),
    ("m(x, x)", _SUBST_CHAIN, ["--levelled"])],
    ids=["subst-a-x-a", "refl-then-subst", "subst-a-x-a-levelled",
         "refl-then-subst-levelled", "subst-chain-4",
         "subst-chain-4-levelled"])
def test_check_proof_substitutes_into_a_deep_tower(side, steps, flags,
                                                   tmp_path):
    # the kernel normalizes with an explicit stack, so both routes prove
    # these 5,000-deep towers in a fresh interpreter (they stopped at
    # d = 328 and d = 329 when its evaluator recursed).  Each step of the
    # chain cites the one before twice, so at k = 4 its conclusion is 16
    # deep per side, one shared node per level over 65,536 leaves
    # unfolded, and both routes prove it well within the timeout
    f = tmp_path / "deep.msl"
    f.write_text(f"sort s\nop i : s -> s\nop m : s s -> s\nop c : -> s\n"
                 f"eq h [x:s] : {side} = {side}\n"
                 f"proof p from h {{\n  {steps}\n}}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "termcat.cli", "check-proof", *flags, str(f)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("proof p: VALID\n")


def test_deep_towers_on_the_levelled_route_and_the_oracle(tmp_path, capsys):
    # the levelled certificate compiles each equation object once, by its
    # id, so no memo key compares a tower node by node, and in one stage,
    # the node the kernel compiles, so a 5,000-deep hyp/sym proof checks;
    # the oracle's column program walks the applications with an explicit
    # stack
    tower = _tower(3000)
    f = tmp_path / "deep.msl"
    f.write_text(f"sort s\nop i : s -> s\neq h [x:s] : {tower} = {tower}\n")
    assert run(["oracle", "--equation", "h", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.split("\n")[1:] == ["  holds in all 5 models with carriers "
                                   "<= 2", ""]
    tower = _tower(5000)
    f.write_text(f"sort s\nop i : s -> s\neq h [x:s] : {tower} = {tower}\n"
                 "proof p from h {\n  a = hyp h ;\n  b = sym a ;\n}\n")
    assert run(["check-proof", "--levelled", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("proof p: VALID\n")


def test_text_compile_takes_a_deep_term(tmp_path, capsys):
    # the three stages build, and objects, arrows and normal forms print,
    # with explicit stacks, so text compile prints a 20,000-deep tower's
    # three stages and normal form (the recursive stage builders stopped
    # near 495)
    f = tmp_path / "tower.msl"
    f.write_text(f"sort s\nop i : s -> s\nterm t [x:s] : {_tower(20000)}\n")
    assert run(["compile", "--term", "t", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.split("\n")
    side = _tower(20000).replace("x", "x1:s")
    assert lines[0] == f"term t : ({side} | {{x1:s}} : s)"
    assert lines[5] == "  normal form:   " + "i(" * 20000 + "p1" + ")" * 20000
    assert lines[6:] == [""]


_READ_ONLY_GOOD = """\
sort s t
op m : s s -> s
op e : -> s
op g : t -> s
term a [x:s] : m(x, e)
term b : e
eq q [x:s] : m(e, x) = x
proof p from q {
  h = hyp q ;
}
"""


@pytest.mark.parametrize("bad, error", [
    ("term bad [x:s] : m(x)", "11:18: m expects 2 arguments, got 1"),
    ("term bad [x:s] : g(x)", "11:18: argument 1 of g has sort s, expected t"),
    ("term bad : nope", "11:12: unknown name 'nope'"),
    ("eq bad [x:s, y:t] : x = y", "11:1: equation sides have sorts s and t"),
    ("eq bad : e = e(e)", "11:14: e expects 0 arguments, got 1"),
], ids=["arity", "sort", "name", "sides", "constant"])
@pytest.mark.parametrize("argv", [
    ["compile", "--term", "a"], ["check-eq", "--equation", "q"],
    ["subst", "--term", "a", "--var", "x", "--with", "b"],
    ["oracle", "--equation", "q"], ["check-proof"],
], ids=lambda argv: argv[0])
def test_an_unread_declaration_is_still_checked(bad, error, argv, tmp_path,
                                                capsys):
    # every command checks the whole file, though it builds only what it
    # reads: the good file passes, the bad declaration fails it
    f = tmp_path / "case.msl"
    f.write_text(_READ_ONLY_GOOD)
    assert run(argv + [str(f)]) in (0, 1)
    assert capsys.readouterr().err == ""
    f.write_text(_READ_ONLY_GOOD + bad + "\n")
    assert run(argv + [str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv, built", [
    (["compile", "--term", "t1"], 1),
    (["check-eq", "--equation", "comm"], 2),
    (["subst", "--term", "t1", "--var", "y", "--with", "double"], 2),
    (["oracle", "--equation", "lunit"], 2),
    (["sketch"], 0),
], ids=lambda x: x[0] if isinstance(x, list) else str(x))
def test_a_command_elaborates_only_what_it_reads(argv, built, monkeypatch,
                                                 capsys):
    # monoid.msl declares three terms and three equations
    calls = []
    elaborate = dsl._elaborate

    def counting(*args):
        calls.append(args[2])
        return elaborate(*args)

    monkeypatch.setattr(dsl, "_elaborate", counting)
    assert run(argv + ["--json", MONOID]) in (0, 1)
    assert len(calls) == built
    capsys.readouterr()


def test_a_proof_command_builds_only_the_steps_it_reads(tmp_path,
                                                       monkeypatch, capsys):
    # a seed-1 proofs workload file holds six or seven proofs; loading it
    # builds no step, and checking one proof builds each of its steps once
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    name, text = next(iter(workloads.proofs(1).files.items()))
    f = tmp_path / name
    f.write_text(text)
    sf = parse_spec(text)
    steps = {p: [s.at for s in sf.proofs[p].steps] for p in sf.proofs}
    assert len(steps) >= 6
    built = []
    step_def = dsl.StepDef

    def counting(*fields):
        built.append(fields[-1])  # its token index
        return step_def(*fields)

    monkeypatch.setattr(dsl, "StepDef", counting)
    parse_spec(text)
    assert built == []
    for proof, ats in steps.items():
        for argv in (["check-proof", "--proof", proof],
                     ["normalize-proof", "--proof", proof]):
            built.clear()
            assert run(argv + [str(f)]) in (0, 1)
            assert built == ats
    capsys.readouterr()


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["fails-in-print", "fails-in-exit-flush"])
def test_closed_stdout_exit_2_without_traceback(unbuffered):
    # stdout is a pipe whose reader is gone; unbuffered, the first print
    # fails, buffered, only the flush at exit does
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "termcat.cli", "check-proof", MONOID],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


def test_no_arrow_outlives_its_command(capsys):
    # with the cycle collector off, reference counting alone must free every
    # node a command built, expression or arrow, so none is shared with the
    # next command
    gc.collect()
    before = len(INTERNED)
    gc.disable()
    try:
        for argv in ALL_COMMANDS:
            run(argv)
            run(argv + ["--json"])
            assert len(INTERNED) == before, argv
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("argv", ALL_COMMANDS,
                         ids=[" ".join(a[:-1]) or a[0] for a in ALL_COMMANDS])
def test_json_output_is_byte_identical(argv, capsys):
    first_code, first = _capture(capsys, argv + ["--json"])
    second_code, second = _capture(capsys, argv + ["--json"])
    assert first_code == second_code
    assert first == second
    json.loads(first)  # valid JSON (single document per command run)


# sha256 of "<exit code>\n<stdout>" for every ALL_COMMANDS entry, text and
# --json; the outputs are the same on Python 3.10-3.13, so any change to what
# the term compiler or the proof producer builds shows up here.  Each
# `check-proof --levelled` digest is the one `check-proof` had before the
# lemma table became its default, except the `--json` certificates: their
# kernel proofs carry the producer's one-stage arrows since it coded steps
# with them, and their hypotheses, claims and workspace since equations
# compiled to one-stage arrows.  A `compile` or `check-proof` payload is
# pinned here in schema 1, as `expand` writes it back.
OUTPUT_DIGESTS = {
    "sketch monoid.msl":
        "d2087e6c8d02dca0efdda6350cef79eb7558b5ef8b0052454f369c6cc67914e9",
    "sketch monoid.msl --json":
        "783058128bf1a711a6fd65d6ce3517a6dfec1228efa077306bb24b7960735c8b",
    "sketch twosorted.msl":
        "551ee7f34abfbcee0e3fe6e0c3a15c69a4d6d4c1919eeda094fe498bb295cbda",
    "sketch twosorted.msl --json":
        "62bd4bb77df1e0e9365a7cce5baaa30c83131493f5de21d98356eb251e426eb5",
    "compile --term t1 monoid.msl":
        "4c8d1385e3e91f7bb6538337c49c380758861912444d36327d6f779c4e4271eb",
    "compile --term t1 monoid.msl --json":
        "c8ac96752d8c623d44e2eed1ead0a3ca065d5a9bf46fdde5478646df731a9c52",
    "compile --term ee monoid.msl":
        "34aced1dd143d816c5d43600fcf9e92710f08433cff1c02bd8f4709626f4a55c",
    "compile --term ee monoid.msl --json":
        "2ca1f590171dd0dc3d2e25006cf7ab224bd2fdd1fe91a741995e11367cc6eb7a",
    "compile --term fb twosorted.msl":
        "ddcc47a42122a74f31067ad3ea2bebd5fc3c862014ec96307bc143f39b036ee6",
    "compile --term fb twosorted.msl --json":
        "b28b17465b0f9d5d1d2a84450385188a7ff6d9eb0bfba4dfaecaf44e379f60b0",
    "check-eq --equation comm monoid.msl":
        "7b15546b6d07c486f35eb3ca1928167a6315e923b3123033c5f0969147e7431e",
    "check-eq --equation comm monoid.msl --json":
        "a2738c397fe9d940bf94c5caacc66d96ae5c7a684d49dcdb937ea32bb6300a7c",
    "subst --term t1 --var y --with double monoid.msl":
        "2688a91a2c29de8ffbd579c5df06c2a6bec2015ab68487afa0076d8f28d471a3",
    "subst --term t1 --var y --with double monoid.msl --json":
        "476ce7c18b7618a33df908cd042d3454aae9a44fed83ba13e076854970147cc2",
    "check-proof monoid.msl":
        "b26684693074c275357d14c43c965aa8055eb4b69025ed519184b2f7b81825e0",
    "check-proof --levelled monoid.msl":
        "c43d7a62ffc421686207a0b11ce043d19807960c3d24fbc985a698f69f0fd657",
    "check-proof monoid.msl --json":
        "a6781b8c268bbb37f771e392ec1fa8def9bf2b1d4c3986f40ffa1c966bc14e01",
    "check-proof --levelled monoid.msl --json":
        "86d0e40220a5fd1c44ea1d814f83dc41dcba665de46f58e13441f2a12fa3bc95",
    "check-proof --proof unit_square monoid.msl":
        "5ed064f92b195d48270d7d97d979bd0b45f705714fe217c84bc17aba3e73acc8",
    "check-proof --levelled --proof unit_square monoid.msl":
        "5aeb06dbb3576bf58ce0b42ea7da3b21befb6d10eb27e32c24ba3d50d859bc4a",
    "check-proof --proof unit_square monoid.msl --json":
        "505430aace81bcac5ba717035b77f956220945eddab6bff1b3d5309e27296141",
    "check-proof --levelled --proof unit_square monoid.msl --json":
        "39eb61a97a6d16f9912d2d11eb4cd21eeec0ac8ebcbfaf0af901253f60014f4f",
    "check-proof --proof fetch twosorted.msl":
        "d98deca382c3576a8a6fceb6f630049f7af9b8b15527b8295eadc1fd184381eb",
    "check-proof --levelled --proof fetch twosorted.msl":
        "33cb24025917492486f63218e7a4f38d39dccd35f2a04deace2fc579ce86ae4a",
    "check-proof --proof fetch twosorted.msl --json":
        "0ffed11be920d68d82012513cbabc140bf24df0edd4ef24b4024c2efc09b17b2",
    "check-proof --levelled --proof fetch twosorted.msl --json":
        "8db6229f4cd5374e6be394b7b7da516f7cea7072442d85e11ffb02d993991757",
    "normalize-proof --proof comm_twice monoid.msl":
        "15a493db092301304b360389e79d2e27d6c0b8fddf796d4177c7ab2a08646a11",
    "normalize-proof --proof comm_twice monoid.msl --json":
        "dfcc23e4cf88fac5ce389de6dc5788edbbd5d2f0a9541c11f99b30aa510113c0",
    "oracle --equation projl --max-size 2 unsound.msl":
        "b066bf4b32340104b3d7dbd66bff2d812c8248311a1826db6c6877f261208c48",
    "oracle --equation projl --max-size 2 unsound.msl --json":
        "044c0ad31f126d66ad43336fcc132a750b9eece54e30defd8ec94c0513e6d34c",
    "oracle --equation idem --max-size 2 unsound.msl":
        "9d1d842c549917a0f575911ec3d7708cbd46ad2f9f7b24a23c88a006525125ef",
    "oracle --equation idem --max-size 2 unsound.msl --json":
        "562c4a425dd9a3acb57a2077437d309958f85a2dba94beb84ef455bc7542c907",
}


# the digests of the --json payloads that hold arrows, which are schema 2:
# each object and arrow is one row of the `objects` and `arrows` tables.
# Expanded back to schema 1, each gives its digest in OUTPUT_DIGESTS.  The
# lemma table of `fetch` cites, and uses sym and trans, only: it holds no
# arrow, so its payload is schema 1 and keeps its digest there.
SCHEMA_2_DIGESTS = {
    "compile --term t1 monoid.msl --json":
        "272b3291194fadd52387d450ace4f9b14837fd62a7fe3ea051dab807c1cd977e",
    "compile --term ee monoid.msl --json":
        "298e6ee2ad0a0d91641096954d3a88060a79e30482e66e2e2bc82d201c336d46",
    "compile --term fb twosorted.msl --json":
        "2ebaa7ba7b9dc931aeec4c30030c42add0f66c86c76874efbe02e4079e998b2f",
    "check-proof monoid.msl --json":
        "e683b8f0445669e2d32c6e6b71a3b176b76dab184b0f14dec319cd11ec764d82",
    "check-proof --levelled monoid.msl --json":
        "708ce15a5fa3dc83a05a5ec68ea59cb386f868a2dc9eb0f81710250abebdff7f",
    "check-proof --proof unit_square monoid.msl --json":
        "89e5acfc785d58189af7962d6971654efbc1740404735d8c58cca962af4b69db",
    "check-proof --levelled --proof unit_square monoid.msl --json":
        "30db1f17be69866e9923e387d0b2d56ff0d52f63d1bc1f73cecffed245ebd566",
    "check-proof --levelled --proof fetch twosorted.msl --json":
        "4594c87a7734c4ad073711fe0bcfba7e37c6c888c3e3b9e047127e02c2b233c3",
}


def _digest_key(argv, json_flag):
    return " ".join(argv[:-1] + [Path(argv[-1]).name] + json_flag)


def _digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", ALL_COMMANDS,
                         ids=[" ".join(a[:-1] + [Path(a[-1]).name])
                              for a in ALL_COMMANDS])
def test_output_bytes_are_pinned(argv, json_flag, capsys):
    code, out = _capture(capsys, argv + json_flag)
    key = _digest_key(argv, json_flag)
    assert _digest(code, out) == SCHEMA_2_DIGESTS.get(key,
                                                      OUTPUT_DIGESTS[key])


@pytest.mark.parametrize("argv", ALL_COMMANDS,
                         ids=[" ".join(a[:-1] + [Path(a[-1]).name])
                              for a in ALL_COMMANDS])
def test_schema_2_expands_to_the_schema_1_bytes(argv, capsys):
    # the tables lose nothing: each payload, written again in schema 1,
    # has the bytes the CLI printed before the tables
    code, out = _capture(capsys, argv + ["--json"])
    payload = json.loads(out)
    key = _digest_key(argv, ["--json"])
    assert (payload.get("schema") == 2) == (key in SCHEMA_2_DIGESTS)
    assert _digest(code, json_text(expand(payload)) + "\n") \
        == OUTPUT_DIGESTS[key]

# --- the JSON writer -----------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral text
_awkward = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80'
                                   'aZ \u00e9\u2028\u20ac\U0001f600')
                   | st.characters())
_scalars = (st.none() | st.booleans() | _awkward
            | st.integers() | st.integers(-2 ** 80, 2 ** 80))
_payloads = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_awkward, kids, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_payloads)
def test_json_text_matches_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2,
                                            sort_keys=True)


@pytest.mark.parametrize("payload", [
    1.5, {1, 2}, {"a": [0.0]}, [{"k": {None}}], {"a": b"x"}, ["a", (1,)],
    {1: "a"}],
    ids=["float", "set", "nested-float", "nested-set", "bytes", "tuple",
         "int-key"])
def test_json_text_refuses_other_values(payload):
    # no payload holds these; where json.dumps would write them, the writer
    # refuses them rather than guess its formatting
    with pytest.raises(TypeError):
        json_text(payload)


def _tower_over(rng, sig, e, height: int):
    """`e` under up to `height` applications, each of an operation that
    takes the sort below it, with fresh expressions for its other
    arguments."""
    for _ in range(height):
        ops = [op for op in sig.operations if e.sort in op.inputs]
        if not ops:
            break
        op = rng.choice(ops)
        args = [gen_expression(rng, sig, s, 0) for s in op.inputs]
        args[op.inputs.index(e.sort)] = e
        e = App(op, tuple(args))
    return e


def _body_depth(body) -> int:
    deepest, stack = 0, [(body, 1)]
    while stack:
        x, d = stack.pop()
        deepest = max(deepest, d)
        stack += [(k, d + 1) for k in getattr(x, "args", getattr(
            x, "parts", ()))]
    return deepest


def _node_payload(seed: int) -> tuple[dict, set]:
    """A payload of a generated term, equation, their normal forms,
    bodies, endpoints and stage arrows, as the CLI hands its payloads to
    `json_text`, and the features it covers."""
    rng = random.Random(seed)
    sig = gen_signature(rng)
    t = gen_term(rng, sig, depth=rng.randint(0, 4))
    e = _tower_over(rng, sig, t.expr, rng.randint(0, 30))
    t = make_term(e, t.vars + var_set(e), e.sort)
    eq = gen_equation(rng, sig, depth=rng.randint(0, 4))
    stages = (arrows.occurrence_arrow(t.expr, t.vars),
              arrows.regroup_arrow(t.expr), arrows.apply_arrow(t.expr))
    normals = [arrows.term_normal(t.expr, t.vars),
               *map(category.normalize, stages),
               *(arrows.term_normal(side, eq.vars)
                 for side in (eq.left, eq.right)),
               category.normalize(category.Id(category.Leaf(t.sort))),
               category.normalize(category.TupleArrow(category.TERMINAL, ()))]
    tables = cli.Tables()
    payload = tables.payload({
        "term": cli.term_json(t), "equation": cli.equation_json(eq),
        "normals": [cli.normal_json(n) for n in normals],
        "bodies": [n.body for n in normals],
        "endpoints": [n.src for n in normals] + [n.dst for n in normals],
        "stages": [cli.arrow_json(a, tables) for a in stages],
        "empty": [{}, [], None, True, False, -1]})
    exprs = [x for side in (t.expr, eq.left, eq.right)
             for x in applications(side)]
    features = {"0-ary application" for x in exprs if not x.args}
    features |= {"empty path" for n in normals if n.body == NPath(())}
    features |= {"terminal" for n in normals if n.src is category.TERMINAL}
    if max(_body_depth(n.body) for n in normals) >= 30:
        features.add("depth 30")
    return payload, features


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_json_text_of_nodes_matches_the_reference(seed):
    # each node is written as `json.dumps` writes the dict it stands for
    payload, _ = _node_payload(seed)
    assert json_text(payload) == json.dumps(reference_payload(payload),
                                            indent=2, sort_keys=True)


def test_node_payloads_cover_every_corner():
    covered = set()
    for seed in range(60):
        covered |= _node_payload(seed)[1]
    assert covered == {"0-ary application", "empty path", "terminal",
                       "depth 30"}


def _corpus_json_commands():
    for path in sorted(CORPUS.glob("*.msl")):
        sf = parse_spec(path.read_text(encoding="utf-8"))
        yield ["sketch"], path
        yield ["check-proof"], path
        for t in sf.terms:
            yield ["compile", "--term", t], path
            for var in sf.term_bindings[t]:
                for w in sf.terms:
                    yield ["subst", "--term", t, "--var", var, "--with",
                           w], path
        for e in sf.equations:
            yield ["check-eq", "--equation", e], path
            yield ["oracle", "--equation", e], path
        for p in sf.proofs:
            yield ["check-proof", "--proof", p], path
            yield ["normalize-proof", "--proof", p], path


def test_corpus_json_output_matches_json_dumps(monkeypatch, capsys):
    payloads = []
    emit = cli._emit

    def keep(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli, "_emit", keep)
    seen = 0
    for argv, path in _corpus_json_commands():
        run(argv + ["--json", str(path)])
        out, _ = capsys.readouterr()
        if not out:  # an input error: nothing was emitted
            continue
        assert out == json.dumps(reference_payload(payloads.pop()), indent=2,
                                 sort_keys=True) + "\n", argv
        seen += 1
    assert seen >= 40
