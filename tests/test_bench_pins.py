"""The benchmark's pinned output bytes, checked in tier-1.

`perfbench/workloads.py` pins the SHA-256 of each workload's output; the
benchmark fails a job whose bytes differ.  This runs the same invocations
through `cli.main`: each residue config once, and the seeded `psik`
workload on the alphas of five seeds, and asserts every digest equals its
pin.  The workload file is read, never imported as a package, so nothing
is written under `perfbench/`."""

import hashlib
import pathlib
import random
import runpy

import pytest

from twirl import cli

WORKLOADS = runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent
                               / "perfbench" / "workloads.py"))["WORKLOADS"]


def _digest(w, argv, tmp_path) -> str:
    cfg, out = tmp_path / "run.ini", tmp_path / "run.out"
    cfg.write_text(w.config)
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_bytes_match_the_pin(name, tmp_path):
    w = WORKLOADS[name]
    seeds = range(1, 6) if w.seeded_alpha else (1,)
    argvs = [w.job_args(random.Random(seed)) for seed in seeds]
    if w.seeded_alpha:
        assert len({tuple(a) for a in argvs}) > 1
    for argv in argvs:
        assert _digest(w, argv, tmp_path) == w.sha256, argv
