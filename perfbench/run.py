"""Benchmark driver for the twirl residue chain.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  A closed loop with one client: the driver
starts one cold job at a time (a fresh interpreter running
`twirl.cli.main`, see job.py) until `--seconds` have passed, checks the
SHA-256 of every job's output against the pin in workloads.py, and prints
each metric by name with its unit.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  `--workload all` runs every workload both ways.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

SETUP_ONLY_SPAWNS = 5       # set-up samples taken before the jobs, per run
MIN_JOBS = 3                # per timing class, even when --seconds has passed
RUN_DEADLINE_S = 170        # the whole run must end within 180 s


class Run:
    """One workload's jobs in one run, all sharing a scratch directory."""

    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.rng = random.Random(seed)
        self.work = work
        self.config = work / f"{workload.name}.ini"
        self.config.write_text(workload.config)
        self.t0 = time.monotonic()
        self.jobs = 0
        self.failed = 0
        self.setup: list = []
        self.errors: list = []
        self.timed_out = False

    def spawn(self, **flags) -> dict | None:
        """Start one job process, wait for it, return its report or None."""
        self.jobs += 1
        spec = {
            "root": str(ROOT),
            "config": str(self.config),
            "argv": [] if flags.get("setup_only") else self.w.job_args(self.rng),
            "out": str(self.work / f"job{self.jobs}.out"),
            "job": self.jobs,
            **flags,
        }
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.t0))
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), "--spec", json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.timed_out = True
            self.errors.append(f"job {self.jobs} timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"job {self.jobs} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
            return None
        rep = json.loads(lines[-1])
        self.setup.append(rep["setup_s"])
        return rep

    def job(self, **flags) -> dict | None:
        """One timed job; counts it as failed unless the CLI exits 0 and the
        output (and its warm rerun, when asked) hashes to the pin."""
        rep = self.spawn(**flags)
        why = None
        if rep is None:
            why = self.errors[-1]
        elif rep["rc"] != 0:
            why = f"exit code {rep['rc']}: {rep['error']}"
        elif rep["sha256"] != self.w.sha256:
            why = f"output sha256 {rep['sha256']} != pinned {self.w.sha256}"
        elif flags.get("warm_check") and rep.get("warm_sha256") != rep["sha256"]:
            why = f"warm rerun sha256 {rep.get('warm_sha256')} != cold"
        if why is not None:
            self.failed += 1
            if rep is not None:
                self.errors.append(f"job {self.jobs}: {why}")
            return None
        return rep

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def percentile_line(values: list) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"{n} samples"
    pct = int(100 * (n - 10) / n)
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"{n} samples, p{pct} {cut:.6g}"


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (attempted, failed, metrics, notes)."""
    run = Run(workload, seed, work)
    run.spawn(setup_only=True)          # untimed: fills __pycache__ in the checkout
    run.setup.clear()
    for _ in range(0 if trace else SETUP_ONLY_SPAWNS):
        run.spawn(setup_only=True)
    attempted = 0
    solve, traced_solve, rss, layers = [], [], [], []
    probe_seed = random.Random(seed ^ 0x5EED)
    min_jobs = MIN_JOBS * (2 if trace else 1)
    while not run.timed_out and run.elapsed() < RUN_DEADLINE_S / 2 and (
            run.elapsed() < seconds or attempted < min_jobs):
        # the traced run alternates untraced and traced jobs, so it measures
        # its own tracing overhead
        traced = trace and attempted % 2 == 1
        flags = {"warm_check": workload.warm_check and attempted == 0,
                 "trace": traced}
        if traced:
            flags["probe_seed"] = probe_seed.randrange(1 << 30)
        attempted += 1
        rep = run.job(**flags)
        if rep is None:
            continue
        if traced:
            traced_solve.append(rep["solve_s"])
            layers.append(rep["layers"])
        else:
            solve.append(rep["solve_s"])
            rss.append(rep["peak_rss_mb"])
    notes = list(run.errors)
    if trace:
        if not (traced_solve and solve):
            return attempted, run.failed, {}, notes
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(traced_solve)
                                           / statistics.median(solve))
        notes.append(f"traced solve_s {percentile_line(traced_solve)}, "
                     f"median {statistics.median(traced_solve):.6g} s")
    else:
        if not solve:
            return attempted, run.failed, {}, notes
        metrics = {
            "setup_s": statistics.median(run.setup),
            "solve_s": statistics.median(solve),
            "peak_rss_mb": statistics.median(rss),
        }
        notes.append(f"solve_s {percentile_line(solve)}")
        notes.append(f"setup_s {percentile_line(run.setup)}")
    notes.append(f"fail_ratio {run.failed / attempted:.6g} "
                 f"({run.failed} of {attempted} jobs)")
    return attempted, run.failed, metrics, notes


def machine_info(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": seed}


def report(name: str, trace: bool, metrics: dict, notes: list) -> None:
    kind = "per_layer" if trace else "end_to_end"
    print(f"== {name} ({kind})")
    for m in BENCH[kind]:
        val = metrics.get(m["name"])
        shown = "missing" if val is None else f"{val:.6g} {m['unit']}"
        print(f"  {m['name']} = {shown}")
    for line in notes:
        print(f"  # {line}")


def result(attempted: int, failed: int, metrics: dict, trace: bool) -> dict:
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    return {
        "correct": failed == 0 and all(n in metrics for n in names),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]}
                    for n in names if n in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twirl" / "cli.py").is_file():
        print(f"error: no twirl sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_info(args.seed)))
    if args.workload == "all":
        plan = [(w, t) for w in sorted(WORKLOADS) for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    total_att = total_fail = 0
    combined: dict = {}
    ok = True
    try:
        for name, trace in plan:
            wdir = work / f"{name}-{int(trace)}"
            wdir.mkdir()
            att, fail, metrics, notes = measure(WORKLOADS[name], args.seed,
                                                args.seconds, trace, wdir)
            report(name, trace, metrics, notes)
            res = result(att, fail, metrics, trace)
            ok = ok and res["correct"]
            total_att += att
            total_fail += fail
            for key, val in res["metrics"].items():
                combined[key if len(plan) == 1 else f"{name}/{key}"] = val
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": total_att,
                      "failed": total_fail, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
