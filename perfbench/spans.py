"""In-memory span tracer for one benchmark job.

The tracer wraps twirl's public functions where the pipeline looks them up
(the `twirl.cli`, `twirl.integrator` and `twirl.supercuspidal` module
globals, and methods on `CuspidalData`), so nothing under `src/` changes.
Each call becomes a span: name, start, end, parent and job id.  A span's
self time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int = 0
    miss: bool = False              # a kappa_average call that entered iter_gl2


@dataclass
class Tracer:
    job: int = 0
    spans: list = field(default_factory=list)
    rows: int = 0                   # GL_2 residue rows yielded by iter_gl2
    result_sizes: dict = field(default_factory=dict)
    dead: int = 0                   # support_prefilter calls that returned a reason
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent=parent, job=self.job)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def wrap_gl2(self, fn):
        """iter_gl2 is a generator: entering it marks the enclosing
        kappa_average span as a miss, and every yielded chunk adds rows."""
        def traced(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]].miss = True
            for chunk in fn(*args, **kwargs):
                self.rows += chunk[0].shape[0]
                yield chunk

        return traced

    def _size(self, name):
        def record(out):
            self.result_sizes[name] = self.result_sizes.get(name, 0) + len(out)
        return record

    def _prefilter_result(self, out):
        if out is not None:
            self.dead += 1

    @contextmanager
    def installed(self):
        """Swap traced wrappers into twirl's lookup points; restore on exit."""
        from twirl import cli, integrator, supercuspidal
        from twirl.supercuspidal import CuspidalData

        wrapped = {}

        def shared(name, fn, on_result=None):
            key = (name, fn)
            if key not in wrapped:
                wrapped[key] = self.wrap(name, fn, on_result)
            return wrapped[key]

        plan = [
            (cli, "assemble_coefficients", "integrator.assemble_coefficients", None),
            (cli, "coefficient_A_B", "integrator.coefficient_A_B", None),
            (cli, "orbit_weight_integral", "integrator.orbit_weight_integral", None),
            (cli, "residue_report", "residue.residue_report", None),
            (cli, "norm_preimage", "twisted.norm_preimage", None),
            (cli, "twisted_discriminant", "twisted.twisted_discriminant", None),
            (integrator, "torus_strata", "integrator.torus_strata",
             self._size("integrator.torus_strata")),
            (integrator, "orbit_strata", "integrator.orbit_strata",
             self._size("integrator.orbit_strata")),
            (integrator, "orbit_weight_integral", "integrator.orbit_weight_integral", None),
            (integrator, "norm_preimage", "twisted.norm_preimage", None),
            (integrator, "twisted_discriminant", "twisted.twisted_discriminant", None),
            (integrator, "vdash", "matlattice.vdash", None),
            (supercuspidal, "norm_preimage", "twisted.norm_preimage", None),
            (supercuspidal, "vdash", "matlattice.vdash", None),
            (CuspidalData, "kappa_average", "supercuspidal.kappa_average", None),
            (CuspidalData, "support_prefilter", "supercuspidal.support_prefilter",
             self._prefilter_result),
        ]
        saved = []
        try:
            for owner, attr, name, on_result in plan:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, shared(name, fn, on_result))
            fn = supercuspidal.iter_gl2
            saved.append((supercuspidal, "iter_gl2", fn))
            supercuspidal.iter_gl2 = self.wrap_gl2(fn)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the union of child intervals."""
    children: dict = {}
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k].start):
            a, b = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(tracer: Tracer, solve_s: float) -> dict:
    """Per-layer figures of one traced job (units as in BENCHMARK.json)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict = {}
    busy: dict = {}
    self_s: dict = {}
    for idx, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[idx]
        # busy time counts only the outermost span of each name
        anc = s.parent
        while anc is not None and spans[anc].name != s.name:
            anc = spans[anc].parent
        if anc is None:
            busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)

    kav = "supercuspidal.kappa_average"
    pre = "supercuspidal.support_prefilter"
    misses = [s for s in spans if s.name == kav and s.miss]
    miss_s = sum(s.end - s.start for s in misses)
    n_kav = calls.get(kav, 0)
    n_pre = calls.get(pre, 0)
    return {
        "matlattice.vdash.calls": calls.get("matlattice.vdash", 0),
        "matlattice.vdash.busy_s": busy.get("matlattice.vdash", 0.0),
        "twisted.norm_preimage.busy_s": busy.get("twisted.norm_preimage", 0.0),
        "twisted.twisted_discriminant.calls":
            calls.get("twisted.twisted_discriminant", 0),
        "twisted.twisted_discriminant.busy_s":
            busy.get("twisted.twisted_discriminant", 0.0),
        "supercuspidal.kappa_average.calls": n_kav,
        "supercuspidal.kappa_average.misses": len(misses),
        "supercuspidal.kappa_average.hit_ratio":
            (n_kav - len(misses)) / n_kav if n_kav else 0.0,
        "supercuspidal.kappa_average.busy_s": busy.get(kav, 0.0),
        "supercuspidal.kappa_average.share": busy.get(kav, 0.0) / solve_s,
        "supercuspidal.support_prefilter.calls": n_pre,
        "supercuspidal.support_prefilter.dead_ratio":
            tracer.dead / n_pre if n_pre else 0.0,
        "supercuspidal.support_prefilter.busy_s": busy.get(pre, 0.0),
        "ringvec.gl2_rows": tracer.rows,
        "ringvec.gl2_rows_per_s": tracer.rows / miss_s if miss_s else 0.0,
        "integrator.torus_strata.count":
            tracer.result_sizes.get("integrator.torus_strata", 0),
        "integrator.orbit_strata.calls": calls.get("integrator.orbit_strata", 0),
        "integrator.orbit_strata.strata":
            tracer.result_sizes.get("integrator.orbit_strata", 0),
        "integrator.orbit_strata.self_s": self_s.get("integrator.orbit_strata", 0.0),
        "integrator.orbit_weight_integral.self_s":
            self_s.get("integrator.orbit_weight_integral", 0.0),
        "integrator.assemble_coefficients.busy_s":
            busy.get("integrator.assemble_coefficients", 0.0),
        "integrator.coefficient_A_B.busy_s":
            busy.get("integrator.coefficient_A_B", 0.0),
        "residue.residue_report.busy_s": busy.get("residue.residue_report", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }
