"""Machine speed, measured apart from termcat.

The CPU this benchmark runs on is shared, and the speed one process gets
moves by up to 2x over periods of seconds.  A fixed pure-Python job, apart
from termcat, is timed next to every measurement; each time is scaled by
KERNEL_REF_NS over the kernel time around it, so that a run reads in time
at one reference speed.  The job mixes the kinds of work the program
does (recursive evaluation over tuples, frozen-dataclass allocation, JSON
encoding, a regex scan), because each kind slows by a different factor.
Raw times are kept in the results file.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass

import msl

KERNEL_REF_NS = 1_000_000   # kernel time that defines the reference speed


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _kernel_inputs():
    rng = random.Random(0)
    sig = msl.Sig(("s",), (msl.Op("a", (), 0), msl.Op("m", (0, 0), 0),
                           msl.Op("i", (0,), 0)))
    model = msl.random_model(sig, rng, 3, 3)
    vs = msl.var_set([3])
    expr = msl.random_expr(sig, rng, 0, 100, vs)
    env = next(msl.assignments(model, vs))
    doc = {f"k{i}": [{"kind": "path", "steps": [i, i + 1]},
                     {"kind": "gen", "op": "m", "args": [i, "x"]}]
           for i in range(10)}
    picks = [(rng.randrange(100 + i), rng.randrange(100 + i))
             for i in range(200)]
    return (model, expr, env, msl.render(sig, expr), doc, picks,
            re.compile(r"[A-Za-z_]\w*|\S"))


KERNEL = _kernel_inputs()


def _kernel_job():
    model, expr, env, text, doc, picks, token = KERNEL
    msl.evaluate(model, expr, env)
    nodes = [_Node(i, None) for i in range(100)]
    for a, b in picks:
        nodes.append(_Node(nodes[a], nodes[b]))
    words = [m.group(0) for m in token.finditer(text)]
    return len(json.dumps(doc, indent=2, sort_keys=True)) + len(words)


def kernel_ns() -> int:
    """The kernel job's time, run once to warm the caches and timed on
    the second run."""
    _kernel_job()
    start = time.perf_counter_ns()
    _kernel_job()
    return time.perf_counter_ns() - start


def factors(kernels):
    """For kernel times k_0..k_n taken around n ops, the factor that puts
    op i's time at the reference speed, from the mean of the kernel timed
    just before it and the one timed just after it."""
    return [2 * KERNEL_REF_NS / (kernels[i] + kernels[i + 1])
            for i in range(len(kernels) - 1)]
