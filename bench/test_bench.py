"""Fast tests of the benchmark itself: generators, checkers, BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import msl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from termcat import arrows, cli, deduction, models  # noqa: E402

MODULES = {"cli": cli, "arrows": arrows, "deduction": deduction,
           "models": models}

WORKLOADS = sorted(workloads.WORKLOADS)


def _cli_output(task, tmp_path, text):
    path = tmp_path / task.file
    path.write_text(text, encoding="utf-8")
    code, out, _, _ = run.run_op(cli, task.argv(str(path)))
    assert code == task.code, out
    return out


def _first(workload, pred):
    wl = workloads.WORKLOADS[workload](1)
    task = next(t for t in wl.tasks if pred(t))
    return wl, task


# --- generators --------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_text(name):
    make = workloads.WORKLOADS[name]
    assert make(7).files == make(7).files


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seed_different_text(name):
    make = workloads.WORKLOADS[name]
    assert make(7).files != make(8).files


@pytest.mark.parametrize("name", WORKLOADS)
def test_round_has_fixed_shape(name):
    """Every seed gives the same number of ops of each command and
    expected exit code, so the work per round changes little."""
    def shape(seed):
        tasks = workloads.WORKLOADS[name](seed).tasks
        return sorted((t.command, t.code) for t in tasks)
    assert shape(1) == shape(2) == shape(3)


# --- checkers reject corrupted outputs ---------------------------------------


def _swap_two_paths(body):
    """Swap the first two argument paths that differ, under one gen node."""
    stack = [body]
    while stack:
        node = stack.pop()
        if node["kind"] == "gen":
            paths = [a for a in node["args"] if a["kind"] == "path"]
            for a in paths:
                for b in paths:
                    if a["steps"] != b["steps"]:
                        a["steps"], b["steps"] = b["steps"], a["steps"]
                        return True
            stack.extend(node["args"])
        elif node["kind"] == "tuple":
            stack.extend(node["parts"])
    return False


def test_terms_check_rejects_a_swapped_path(tmp_path):
    sig = msl.Sig(("s",), (msl.Op("m", (0, 0), 0),))
    e = msl.app("m", msl.var(0, 1), msl.app("m", msl.var(0, 2),
                                            msl.var(0, 1)))
    vs = msl.var_set([2])
    task = workloads.Task("compile", "t.msl", ["--json", "--term", "t"], 0,
                          sig, {"expr": e, "vars": vs})
    text = (sig.text()
            + f"term t {msl.bracket(sig, vs)} : {msl.render(sig, e)}\n")
    out = _cli_output(task, tmp_path, text)
    rng = random.Random(0)
    assert checks.check(task, out, rng) is None
    doc = json.loads(out)
    assert _swap_two_paths(doc["normal"]["body"])
    assert checks.check(task, json.dumps(doc), random.Random(0))


def test_terms_check_rejects_a_wrong_verdict(tmp_path):
    wl, task = _first("terms", lambda t: t.command == "check-eq")
    out = _cli_output(task, tmp_path, wl.files[task.file])
    doc = json.loads(out)
    doc["formally_equal"] = not doc["formally_equal"]
    assert checks.check(task, json.dumps(doc), random.Random(0))


def _oracle_task(tmp_path):
    sig = msl.Sig(("s",), (msl.Op("m", (0, 0), 0), msl.Op("a", (), 0)))
    left, right = msl.app("m", msl.var(0, 1), msl.var(0, 2)), msl.var(0, 1)
    vs = msl.var_set([2])
    task = workloads.Task(
        "oracle", "o.msl", ["--json", "--equation", "q", "--max-size", "2"],
        1, sig, {"left": left, "right": right, "vars": vs, "bound": 2})
    text = sig.text() + (f"eq q {msl.bracket(sig, vs)} : "
                         f"{msl.render(sig, left)} = "
                         f"{msl.render(sig, right)}\n")
    return task, json.loads(_cli_output(task, tmp_path, text))


def test_oracle_check_rejects_a_changed_table_entry(tmp_path):
    task, doc = _oracle_task(tmp_path)
    assert checks.check(task, json.dumps(doc), random.Random(0)) is None
    cx = doc["counterexample"]
    x1, x2 = cx["assignment"]["x1:s"], cx["assignment"]["x2:s"]
    # make m(x1, x2) = x1 true at the reported assignment
    cx["model"]["tables"]["m"][f"{x1},{x2}"] = x1
    assert checks.check(task, json.dumps(doc), random.Random(0))


def test_oracle_check_rejects_an_off_by_one_model_count(tmp_path):
    task, doc = _oracle_task(tmp_path)
    assert doc["models_checked"] == checks.model_count(task.sig, 2)
    doc["models_checked"] += 1
    assert checks.check(task, json.dumps(doc), random.Random(0))


def test_model_count_closed_form_matches_the_monoid_figure():
    sig = msl.Sig(("s",), (msl.Op("m", (0, 0), 0), msl.Op("e", (), 0)))
    assert checks.model_count(sig, 3) == 59082


def test_own_search_finds_and_misses_counterexamples():
    sig = msl.Sig(("s",), (msl.Op("f", (0,), 0), msl.Op("a", (), 0)))
    vs = msl.var_set([1])
    for bound in (2, 3):
        left, right = workloads._periodic(bound)
        assert checks.counterexample_rank(sig, left, right, vs,
                                          bound) is None
    left, right = workloads._periodic(2)
    assert checks.counterexample_rank(sig, left, right, vs, 3)


def test_counterexample_rank_follows_the_enumeration_order():
    sig = msl.Sig(("s",), (msl.Op("m", (0, 0), 0), msl.Op("a", (), 0)))
    left, right = msl.app("m", msl.var(0, 1), msl.var(0, 2)), msl.var(0, 1)
    vs = msl.var_set([2])
    # the one-element model satisfies everything; the first two-element
    # model, m constantly 0, fails at x1 = 1
    assert checks.counterexample_rank(sig, left, right, vs, 2, 10) == 2
    assert checks.counterexample_rank(sig, left, right, vs, 2, 1) is None
    assert checks.counterexample_rank(sig, left, left, vs, 2, 10) is None


def test_proof_check_rejects_a_changed_conclusion(tmp_path):
    wl, task = _first("proofs", lambda t: t.code == 0)
    out = _cli_output(task, tmp_path, wl.files[task.file])
    assert checks.check(task, out, random.Random(0)) is None
    lines = out.splitlines()
    lines[1] = lines[1].replace(" = ", " = a = ", 1)
    assert checks.check(task, "\n".join(lines), random.Random(0))
    bad = copy.copy(task)
    bad.data = {**task.data, "conclusion": None}
    assert checks.check(bad, out, random.Random(0))


# --- BENCHMARK.json and the command ------------------------------------------


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _command(trace, cwd=ROOT):
    cmd = _bench_json()["command"]
    return subprocess.run(
        [sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:],
         "--workload", "oracle", "--seed", "1", "--seconds", "0",
         "--trace", str(trace)], cwd=cwd, capture_output=True, text=True,
        timeout=170)


def test_every_traced_layer_call_exists():
    assert tracing.missing_calls(MODULES) == []


def test_tracer_refuses_a_missing_layer_call():
    renamed = types.SimpleNamespace(**vars(deduction))
    del renamed.compile_to_factorization
    with pytest.raises(LookupError, match="compile_to_factorization"):
        tracing.Tracer({**MODULES, "deduction": renamed})


def test_benchmark_json_lists_the_workloads():
    doc = _bench_json()
    assert sorted(w["name"] for w in doc["workloads"]) == WORKLOADS
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, key):
    proc = _command(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _command(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
