"""One cold benchmark job: a fresh interpreter that runs one `twirl` CLI
invocation through `twirl.cli.main` and prints one JSON line describing it.

    python3 perfbench/job.py --spec '<json>'

The spec carries the checkout root, the parent's CLOCK_MONOTONIC reading
taken just before it started this process (so set-up time runs from
interpreter start), the config path, the CLI arguments, the output path,
and the flags: `setup_only`, `warm_check`, `trace` and `probe_seed`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback

import numpy as np

from spans import Tracer, layer_metrics

PROBE_RING_LEVEL = 2        # the ResidueRing level of a det-valuation-0 K-average
PROBE_MIN_S = 0.05          # each probe repeats its batch for at least this long


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _run_cli(cli, argv: list) -> tuple:
    """(exit code or None, error text or None) of one `twirl` invocation."""
    try:
        return cli.main(argv), None
    except Exception:   # a raise is a failed job; record it and keep reporting
        return None, traceback.format_exc(limit=3)


def _per_op(batch, count: int) -> float:
    """Seconds per operation of `batch()`, which performs `count` of them;
    the median of five timings of a repeat loop lasting >= PROBE_MIN_S."""
    reps = 1
    while True:
        t = time.perf_counter()
        for _ in range(reps):
            batch()
        dt = time.perf_counter() - t
        if dt >= PROBE_MIN_S:
            break
        reps *= 2
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(reps):
            batch()
        samples.append((time.perf_counter() - t) / (reps * count))
    samples.sort()
    return samples[2]


def probes(ctx, seed: int) -> dict:
    """Elem mul/add and ResidueRing.mul on seeded operands in `ctx`."""
    from twirl.ringvec import ResidueRing

    rng = random.Random(seed)
    xs = [ctx.random_elem(rng, vmin=0, vmax=4) for _ in range(64)]
    ys = [ctx.random_elem(rng, vmin=0, vmax=4) for _ in range(64)]
    pairs = list(zip(xs, ys))

    def muls():
        for x, y in pairs:
            x * y

    def adds():
        for x, y in pairs:
            x + y

    ring = ResidueRing(ctx, PROBE_RING_LEVEL)
    nrng = np.random.default_rng(seed)
    n = 1 << 16
    a = nrng.integers(0, ring.pm, size=(n, ring.e), dtype=np.int64)
    b = nrng.integers(0, ring.pm, size=(n, ring.e), dtype=np.int64)
    return {
        "localfield.elem_mul_us": _per_op(muls, len(pairs)) * 1e6,
        "localfield.elem_add_us": _per_op(adds, len(pairs)) * 1e6,
        "ringvec.residue_mul_ns": _per_op(lambda: ring.mul(a, b), n) * 1e9,
    }


def main() -> int:
    spec = json.loads(sys.argv[sys.argv.index("--spec") + 1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from twirl import cli

    cfg = cli.RunConfig.load(spec["config"])
    result = {"setup_s": time.monotonic() - spec["t_spawn"]}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return 0

    argv = spec["argv"] + ["--config", spec["config"], "--out", spec["out"]]
    tracer = None
    if spec.get("trace"):
        tracer = Tracer(job=spec.get("job", 0))
        with tracer.installed():
            t = time.perf_counter()
            with tracer.span("cli"):
                rc, err = _run_cli(cli, argv)
            solve = time.perf_counter() - t
    else:
        t = time.perf_counter()
        rc, err = _run_cli(cli, argv)
        solve = time.perf_counter() - t
    result.update(
        solve_s=solve,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        rc=rc,
        error=err,
        sha256=_digest(spec["out"]),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, solve)
    if spec.get("warm_check") and rc == 0:
        warm_out = spec["out"] + ".warm"
        warm_argv = argv[:-1] + [warm_out]
        warm_rc, warm_err = _run_cli(cli, warm_argv)
        result["warm_sha256"] = _digest(warm_out) if warm_rc == 0 else None
        result["error"] = result["error"] or warm_err
    if spec.get("probe_seed") is not None:
        result.setdefault("layers", {}).update(probes(cfg.ctx, spec["probe_seed"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
