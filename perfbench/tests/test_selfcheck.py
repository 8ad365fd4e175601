"""Fast self-check of the benchmark machinery on a tiny config.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = """\
[field]
p = 2
e = 2
eisenstein = -2,0,1
precision = 16

[pipeline]
regime = even
k_max = 3
gamma_depth = 2
unit_depth = 1
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny residue workload, pinned to the digest of one cold run."""
    from twirl import cli

    d = tmp_path_factory.mktemp("tiny")
    (d / "tiny.ini").write_text(TINY)
    out = d / "tiny.out"
    assert cli.main(["residue", "--config", str(d / "tiny.ini"),
                     "--out", str(out)]) == 0
    return Workload(name="tiny-p2-residue", command="residue", config=TINY,
                    sha256=hashlib.sha256(out.read_bytes()).hexdigest(),
                    warm_check=True, seeded_alpha=False)


def _printed(name, trace, metrics, notes):
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(name, trace, metrics, notes)
    return buf.getvalue()


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(tiny, tmp_path, trace):
    att, failed, metrics, notes = run.measure(tiny, 5, 0, trace, tmp_path)
    assert failed == 0 and att >= run.MIN_JOBS
    res = run.result(att, failed, metrics, trace)
    assert res["correct"]
    kind = "per_layer" if trace else "end_to_end"
    text = _printed(tiny.name, trace, metrics, notes)
    for m in run.BENCH[kind]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        pat = rf"^  {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(pat, text, re.M), m["name"]
    assert "fail_ratio 0 " in text
    if not trace:
        assert all(metrics[m["name"]] > 0 for m in run.BENCH["end_to_end"])


def test_altered_hash_counts_as_failure(tiny, tmp_path):
    wrong = dataclasses.replace(tiny, sha256="0" * 64)
    att, failed, metrics, notes = run.measure(wrong, 5, 0, False, tmp_path)
    assert failed == att >= 1
    assert not run.result(att, failed, metrics, False)["correct"]
    assert any("!= pinned" in n for n in notes)


def test_spans_nest_with_nonnegative_self_time(tmp_path):
    from twirl import cli, integrator
    from twirl.supercuspidal import CuspidalData

    original = (integrator.orbit_strata, CuspidalData.kappa_average)
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY)
    tracer = Tracer(job=7)
    with tracer.installed():
        with tracer.span("cli"):
            assert cli.main(["residue", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 0
    assert (integrator.orbit_strata, CuspidalData.kappa_average) == original

    spans = tracer.spans
    assert spans[0].name == "cli" and spans[0].parent is None
    assert {s.name for s in spans} >= {"integrator.orbit_strata",
                                       "supercuspidal.kappa_average",
                                       "twisted.twisted_discriminant"}
    for s in spans:
        assert s.job == 7 and s.end >= s.start
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    assert all(t >= 0 for t in self_times(spans))
    lm = layer_metrics(tracer, spans[0].end - spans[0].start)
    assert lm["supercuspidal.kappa_average.misses"] >= 1
    assert lm["ringvec.gl2_rows"] > 0
    assert all(v >= 0 for v in lm.values())
