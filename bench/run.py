#!/usr/bin/env python3
"""termcat's benchmark: CLI commands on seeded inputs, timed in process.

    python3 bench/run.py --workload terms --seed 1 --seconds 25 --trace 0

Generates the workload's .msl files from the seed, runs every op once as a
warm-up whose outputs are checked, then repeats whole rounds of the same ops
in the same order for `--seconds`.  An op is one call to
`termcat.cli.run(argv)` with stdout captured in memory.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced rounds, prints the per-layer metrics and writes the spans to
`bench/results/`.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The highest of p99 and p95 with at least ten ops beyond it in a 25 s run:
# on the reference machine terms ran 1,136-1,704 ops, proofs 435-725 and
# oracle 1,584-2,832.
TAIL_PERCENTILE = {"terms": 99.0, "proofs": 95.0, "oracle": 99.0}
SETUP_PROBES = 15

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_cli():
    """Import termcat.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "termcat" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'termcat'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import termcat.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "termcat").resolve():
        sys.exit(f"error: termcat imported from {cli.__file__}")
    return cli


def run_op(cli, argv):
    """One CLI call: (exit code or exception, stdout, start ns, end ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.run(argv)
        except (Exception, SystemExit) as exc:
            code = exc
        end = time.perf_counter_ns()
    return code, out.getvalue(), start, end


SETUP_PROBE = """
import sys, time
sys.path.insert(0, %r)
import termcat.cli
print(time.monotonic_ns())
"""


def setup_times() -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until `termcat.cli` is
    imported and the first op could start, per probe: (raw, scaled).  The
    speed kernel is timed in this process before every probe and after the
    last, as around every op."""
    code = SETUP_PROBE % str(SRC)
    raw, kernels = [], []
    for _ in range(SETUP_PROBES):
        kernels.append(speed.kernel_ns())
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        raw.append((int(proc.stdout) - start) / 1e9)
    kernels.append(speed.kernel_ns())
    return raw, [t * f for t, f in zip(raw, speed.factors(kernels))]


# --- the run -----------------------------------------------------------------


def digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile."""
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[max(0, min(len(sorted_values), int(rank)) - 1)]


class Run:
    def __init__(self, cli, workload: workloads.Workload, workdir: Path):
        self.cli = cli
        self.tasks = workload.tasks
        self.argvs = [t.argv(str(workdir / t.file)) for t in self.tasks]
        self.attempted = 0
        self.failed = 0
        self.changed: set[int] = set()
        self.raw_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.output_bytes = 0

    def ok(self, i: int, code) -> bool:
        return type(code) is int and code == self.tasks[i].code

    def warm_up(self) -> None:
        """Run every op once; keep its outcome for the checks and its
        output's digest for comparing the timed rounds against."""
        self.ref = []
        for argv in self.argvs:
            code, out, _, _ = run_op(self.cli, argv)
            self.ref.append((code, digest(out),
                             zlib.compress(out.encode(), 1)))

    def _op(self, i: int, count: bool):
        code, out, start, end = run_op(self.cli, self.argvs[i])
        if count:
            self.attempted += 1
            self.failed += not self.ok(i, code)
        if self.ok(i, code) and digest(out) != self.ref[i][1]:
            self.changed.add(i)
        return out, start, end

    def timed_round(self, tracer: tracing.Tracer | None = None) -> float:
        """A round with the speed kernel timed before every op and after
        the last; returns the round's op time at the reference speed.
        With a tracer, the ops are traced and not counted, and the tracer
        gets each op's speed factor for its spans."""
        gc.collect()
        kernels, times = [], []
        if tracer:
            tracer.install()
        try:
            for i, task in enumerate(self.tasks):
                kernels.append(speed.kernel_ns())
                if tracer:
                    tracer.begin_op(i)
                out, start, end = self._op(i, count=tracer is None)
                if tracer:
                    tracer.end_op(task.command, start, end)
                    self.output_bytes += len(out.encode())
                times.append(end - start)
        finally:
            if tracer:
                tracer.uninstall()
        kernels.append(speed.kernel_ns())
        factors = speed.factors(kernels)
        scaled = [t * f for t, f in zip(times, factors)]
        if tracer:
            tracer.scale_ops(factors)
        else:
            self.raw_ns += times
            self.scaled_ns += scaled
        return sum(scaled)

    def problems(self, seed: int) -> tuple[list[str], list[str]]:
        """(failed ops, wrong outputs), from the warm-up outputs."""
        failed, wrong = [], []
        for i, task in enumerate(self.tasks):
            code, _, packed = self.ref[i]
            where = f"op {i} {' '.join(task.argv(task.file))}"
            if not self.ok(i, code):
                failed.append(f"{where}: exit {code!r}, expected {task.code}")
                continue
            out = zlib.decompress(packed).decode()
            why = checks.check(task, out, random.Random(f"{seed}:{i}"))
            if why:
                wrong.append(f"{where}: {why}")
        wrong += [f"op {i}: output changed between rounds"
                  for i in sorted(self.changed)]
        return failed, wrong


def latency_metrics(times, pct: float) -> dict:
    """Median and tail op time in ms, and ops per second of op time."""
    ordered = sorted(times)
    return {"latency_p50_ms": statistics.median(ordered) / 1e6,
            "latency_tail_ms": percentile(ordered, pct) / 1e6,
            "throughput_per_s": len(ordered) / (sum(ordered) / 1e9)}


def end_to_end(run: Run, workload: str, peak_rss_mb: float) -> tuple:
    """The end-to-end metrics at the reference speed, and the raw ones."""
    raw_setup, setup = setup_times()
    pct = TAIL_PERCENTILE[workload]
    values = {"setup_s": statistics.median(setup),
              **latency_metrics(run.scaled_ns, pct),
              "peak_rss_mb": peak_rss_mb}
    raw_values = {"setup_s": statistics.median(raw_setup),
                  **latency_metrics(run.raw_ns, pct)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, raw_values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = import_cli()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        for name, text in workload.files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        run = Run(cli, workload, Path(tmp))
        run.warm_up()
        if args.trace:
            import termcat
            tracer = tracing.Tracer({m: getattr(termcat, m) for m in
                                     ("cli", "arrows", "deduction", "models")})
            plain_ns = traced_ns = 0.0
        start = time.perf_counter()
        while True:
            if args.trace:
                plain_ns += run.timed_round()
                traced_ns += run.timed_round(tracer)
            else:
                run.timed_round()
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, wrong = run.problems(args.seed)
    for line in failed + wrong:
        print(line, file=sys.stderr)
    extra = {"ops_per_round": len(run.tasks),
             "tail_percentile": TAIL_PERCENTILE[args.workload],
             "failed_ops": failed, "wrong_ops": wrong}
    if args.trace:
        metrics = tracer.layer_metrics((traced_ns - plain_ns) / run.attempted,
                                       run.output_bytes)
    else:
        metrics, extra["raw"] = end_to_end(run, args.workload, peak_rss_mb)
    result = {"correct": not wrong, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({**result, **extra}, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(results / f"spans-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
