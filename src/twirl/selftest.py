"""The acceptance suite: one callable per criterion, each returning a
CheckResult with a pass flag and a short detail line.  The CLI `selftest`
subcommand and tests/test_acceptance.py both run these."""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CharacterValue
from .integrator import TruncationSpec, assemble_coefficients, rg_term
from .localfield import make_field, square_class_reps
from .matlattice import Mat, antidiag_w, delta_vector, orthogonal_form
from .residue import RationalSeries, laurent_at_zero, spot_check
from .supercuspidal import CuspidalData, level_character, member, support_scan
from .twisted import (
    TorusElem,
    norm_preimage,
    nu_of_norm_check,
    twisted_centralizer_sample,
    twisted_discriminant,
)
from .weights import WeightQuery, torus_cap_volume, weight_closed, weight_oracle


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _ctx5(n: int = 18):
    """Q_5; deep enough that discriminant valuations up to 2*gamma_depth
    stay decidable (the zero cutoff is N - 2e)."""
    return make_field(5, 1, (-5, 1), n)


def _ctx2(n: int = 24):
    return make_field(2, 2, (-2, 0, 1), n)


def _ctx21(n: int = 14):
    return make_field(2, 1, (-2, 1), n)


def _random_regular_alpha(ctx, rng):
    while True:
        a = ctx.random_elem(rng, -2, 3)
        one = ctx.one()
        if not (a == one or a == -one):
            return a


# -- criteria -------------------------------------------------------------------


def check_weight_exactness(seed: int, total: int = 500) -> CheckResult:
    """closed form == counting oracle on random (g, k), h = 1, n in {2,4},
    both residue characteristics."""
    t0 = time.time()
    rng = random.Random(seed)
    plans = [
        (_ctx5(), 2, 1, 150),
        (_ctx5(), 4, 2, 100),
        (_ctx5(), 4, 1, 50),
        (_ctx2(), 2, 1, 120),
        (_ctx2(), 4, 2, 80),
    ]
    scale = total / 500
    mism = 0
    done = 0
    for ctx, n, rank, count in plans:
        for _ in range(max(1, int(count * scale))):
            g = Mat.random(ctx, n, rng, vmin=-2, vmax=3)
            k = rng.randrange(-2, 4)
            q = WeightQuery(g, k, rank)
            if weight_closed(q) != weight_oracle(q):
                mism += 1
            done += 1
    return CheckResult(
        "1 weight factor exactness",
        mism == 0,
        f"{done} random queries, {mism} mismatches",
        time.time() - t0,
    )


def check_torus_cap_law(seed: int) -> CheckResult:
    t0 = time.time()
    bad = []
    for ctx in (_ctx5(), _ctx2()):
        for rank, n in ((1, 2), (2, 4)):
            for k in list(range(0, 6)) + [-3, -2, -1]:
                got = torus_cap_volume(ctx, n, rank, k)
                want = (2 * k + 1) ** rank if k >= 0 else 0
                if got != want:
                    bad.append((ctx.p, rank, k, got, want))
    return CheckResult(
        "2 torus cap volume (2k+1)^r",
        not bad,
        "all r in {1,2}, k in [-3,5], both parities" if not bad else str(bad[:3]),
        time.time() - t0,
    )


def check_lower_bound(seed: int, total: int = 200) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 1)
    ctx = _ctx5()
    w = antidiag_w(ctx, 2)
    done = 0
    bad = 0
    while done < total:
        g = Mat.random(ctx, 2, rng, vmin=-2, vmax=3)
        beta = ctx.random_elem(rng, -2, 3)
        h = Mat.diag(ctx, [beta, beta.inverse()])
        if rng.random() < 0.5:
            h = w * h
        k = rng.randrange(-1, 4)
        d = delta_vector(g, 1)[0] + delta_vector(h.transpose(), 1)[0]
        if d + 2 * k < 0:
            continue
        lower = d + 2 * k + 1
        got = weight_oracle(WeightQuery(g, k, 1, h))
        if lower > got:
            bad += 1
        done += 1
    return CheckResult(
        "3 lower bound prod <= w_k(g,h)",
        bad == 0,
        f"{done} in-domain samples, {bad} violations",
        time.time() - t0,
    )


def check_norm_preimage(seed: int, total: int = 100) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 2)
    bad = 0
    for i in range(total):
        ctx = _ctx5() if i % 2 else _ctx2()
        form = orthogonal_form(ctx, 2)
        gamma = TorusElem(_random_regular_alpha(ctx, rng))
        if not nu_of_norm_check(gamma, form):
            bad += 1
    return CheckResult(
        "4 nu(S(gamma)) = -gamma",
        bad == 0,
        f"{total} regular gamma, {bad} failures",
        time.time() - t0,
    )


def check_centralizer(seed: int, trials: int = 10_000) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 3)
    ctx = _ctx5()
    form = orthogonal_form(ctx, 2)
    per = trials // 5
    all_ok = True
    kdims = []
    for base in (2, 3):
        for shift in (0, 1):
            alpha = ctx.from_int(base) + ctx.pi(1) if shift else ctx.from_int(base)
            gamma = TorusElem(alpha)
            rep = twisted_centralizer_sample(gamma, form, 4, per, rng)
            all_ok = all_ok and rep.all_in_torus
            drep = twisted_discriminant(norm_preimage(gamma, form).inverse(), form)
            kdims.append(drep.kernel_dim)
    gamma = TorusElem(ctx.from_int(2) - ctx.pi(2))
    rep = twisted_centralizer_sample(gamma, form, 4, per, rng)
    all_ok = all_ok and rep.all_in_torus
    kd_ok = all(d == 1 for d in kdims)
    return CheckResult(
        "5 twisted centralizer = T",
        all_ok and kd_ok,
        f"{trials} sampled solutions in T mod p^3: {all_ok}; "
        f"kernel dims {kdims}",
        time.time() - t0,
    )


def check_character_suite(seed: int, pairs: int = 500) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 4)
    ctx = _ctx2()
    ok = True
    notes = []

    def rand_i1():
        a = ctx.random_elem(rng, 1, 4)
        d = ctx.random_elem(rng, 1, 4)
        b = ctx.random_elem(rng, 0, 3)
        c = ctx.random_elem(rng, 1, 4)
        return Mat(ctx, [[ctx.one() + a, b], [c, ctx.one() + d]])

    one_cv = CharacterValue.one(2)
    for _ in range(pairs):
        g1, g2 = rand_i1(), rand_i1()
        if not level_character(g1 * g2) == level_character(g1) * level_character(g2):
            ok = False
            notes.append("multiplicativity failed")
            break
    for _ in range(50):
        g = rand_i1()
        iota = Mat(ctx, [
            [ctx.one() + ctx.random_elem(rng, 2, 5), ctx.random_elem(rng, 1, 4)],
            [ctx.random_elem(rng, 2, 5), ctx.one() + ctx.random_elem(rng, 2, 5)],
        ])
        if not member(iota, "I2"):
            ok = False
            notes.append("I2 sample not in I2")
            break
        if not level_character(g * iota) == level_character(g):
            ok = False
            notes.append("I2 invariance failed")
            break
        lam = level_character(g)
        if not lam * lam == one_cv:
            ok = False
            notes.append("lambda^2 != 1")
            break
    # kappa kappa^t = det kappa mod I2: holds iff 2 in pi^2
    def congruence_holds(ctx_, count):
        rng2 = random.Random(seed + 5)
        form_ = orthogonal_form(ctx_, 2)
        good = True
        for _ in range(count):
            kappa = Mat.random_integral(ctx_, 2, rng2, unit_det=True)
            from .matlattice import vdash as vd

            m = kappa * vd(kappa, form_)
            t = m.scale(kappa.det().inverse())
            good = good and member(t, "I2")
        return good

    pass_e2 = congruence_holds(_ctx2(), 200)
    witness = Mat.from_ints(_ctx21(), [[1, 0], [1, 1]])
    form1 = orthogonal_form(_ctx21(), 2)
    from .matlattice import vdash as vd

    m = witness * vd(witness, form1)
    fail_e1 = not member(m.scale(witness.det().inverse()), "I2")
    if not pass_e2:
        notes.append("congruence failed at e=2")
    if not fail_e1:
        notes.append("congruence did not fail at e=1")
    ok = ok and pass_e2 and fail_e1
    return CheckResult(
        "6 character suite and 2-in-pi^2 sharpness",
        ok,
        "; ".join(notes) if notes else
        f"{pairs} products, I2-invariant, lambda^2=1, e=2 passes / e=1 fails",
        time.time() - t0,
    )


def check_support_vanishing(seed: int) -> CheckResult:
    t0 = time.time()
    ctx = _ctx5()
    form = orthogonal_form(ctx, 2)
    data = CuspidalData(ctx)
    cases_none = ["pi", "pi^2", "pi^-1", "2", "1+pi"]
    from .localfield import parse_elem

    bad = []
    for spec in cases_none:
        alpha = parse_elem(ctx, spec)
        rep = support_scan(data, form, TorusElem(alpha))
        if rep.found():
            bad.append(spec)
    ctx2 = _ctx2()
    form2 = orthogonal_form(ctx2, 2)
    data2 = CuspidalData(ctx2)
    alpha = parse_elem(ctx2, "1+pi^2")
    rep2 = support_scan(data2, form2, TorusElem(alpha))
    if not rep2.found():
        bad.append("1+pi^2 (expected witness)")
    return CheckResult(
        "7 support vanishing and witness",
        not bad,
        "vanishing confirmed; even-char witness found" if not bad else str(bad),
        time.time() - t0,
    )


def check_odd_factorization(seed: int) -> CheckResult:
    t0 = time.time()
    ctx = _ctx5()
    form = orthogonal_form(ctx, 2)
    data = CuspidalData(ctx)
    trunc = TruncationSpec(gamma_depth=5, k_max=6, unit_depth=2)
    table = assemble_coefficients(data, form, trunc)
    c0 = table.values[0]
    ok = all(table.values[k] == c0.scale(4 * k + 1) for k in table.ks)
    rg = rg_term(data, form, trunc)
    scs = square_class_reps(ctx)
    rel = table.values[0] == rg.scale(2 * scs.card_units)
    # non-vacuity: the support itself is nonempty (a twisted conjugate of
    # S(gamma)^(-1) meets C for alpha = -1 mod p), even though the signed
    # K-average cancels exactly for odd p with this inducing datum
    from .localfield import parse_elem

    witness = support_scan(data, form, TorusElem(parse_elem(ctx, "-1+pi")))
    nonvac = witness.found()
    return CheckResult(
        "8 odd-characteristic factorization c_k = (4k+1) c_0",
        ok and rel and nonvac,
        f"factorized exactly with c_0 = {c0} (the signed average over K "
        f"cancels structurally at odd p); rg relation "
        f"{'ok' if rel else 'BROKEN'}; support nonempty: {nonvac}",
        time.time() - t0,
    )


def even_pipeline_summary(gamma_depth: int = 6, k_max: int = 8,
                          unit_depth: int = 3):
    """Shared computation for criterion 9: (k0, A, B, per-e increments)."""
    ctx = _ctx2()
    form = orthogonal_form(ctx, 2)
    data = CuspidalData(ctx)
    trunc = TruncationSpec(gamma_depth=gamma_depth, k_max=k_max,
                           unit_depth=unit_depth)
    table = assemble_coefficients(data, form, trunc)
    vals = [table.values[k] for k in table.ks]
    d2 = [vals[k + 2] - vals[k + 1].scale(2) + vals[k]
          for k in range(len(vals) - 2)]
    k0 = 0
    while k0 < len(d2) and not all(v.is_zero() for v in d2[k0:]):
        k0 += 1
    b = vals[k0 + 1] - vals[k0]
    a_q = vals[k0].rational_part() - Fraction(k0) * b.rational_part()
    b_q = b.rational_part()
    incs = table.per_e_increments(0)
    inc_vals = [incs[e].rational_part() for e in sorted(incs)]
    return k0, a_q, b_q, inc_vals


def check_even_affine(seed: int) -> CheckResult:
    """Criterion 9.  The B > 0 clause is honestly red: with a prime
    residue field the slope cancels stratum by stratum, because the
    boundary character sum over the parahoric is the constant -1 at q = 2
    (every unit of F_2 has residue 1) instead of a cancelling nontrivial
    character; confirmed by three independent computations."""
    t0 = time.time()
    k0, a_q, b_q, inc_vals = even_pipeline_summary()
    affine_ok = k0 <= 2
    mono = all(inc_vals[i] > inc_vals[i + 1] > 0
               for i in range(1, len(inc_vals) - 1))
    passed = affine_ok and a_q > 0 and b_q > 0 and mono
    note = "" if b_q > 0 else " [B = 0 is the honest exact value at q = 2]"
    return CheckResult(
        "9 even-characteristic affinity, positivity, decay",
        passed,
        f"k0={k0}, A={a_q}, B={b_q}{note}, per-e c_0 increments "
        f"{[str(v) for v in inc_vals]}",
        time.time() - t0,
    )


def check_residue_benchmark(seed: int) -> CheckResult:
    t0 = time.time()
    issues = []
    for n, q in ((2, 5), (2, 2), (1, 3)):
        rs = RationalSeries((CharacterValue.one(2),), 1)
        laur = laurent_at_zero(rs, n, q)
        princ = laur.principal()
        if len(princ) != 1:
            issues.append(f"n={n}: principal part size {len(princ)}")
            continue
        t = princ[0]
        if not (t.s_power == -1 and t.lnq_power == -1
                and t.value == CharacterValue.rational(2, Fraction(1, 2 * n))):
            issues.append(f"n={n}: wrong residue term {t}")
        err = spot_check(rs, laur, n, q)
        if err > 1e-6:
            issues.append(f"n={n}: spot check err {err}")
    # double pole: u/(1-u)^2 at n=2 has s^-2 coefficient 1/(4 ln q)^2
    rs2 = RationalSeries((CharacterValue.zero(2), CharacterValue.one(2)), 2)
    laur2 = laurent_at_zero(rs2, 2, 5)
    lead = [t for t in laur2.terms if t.s_power == -2]
    if not (len(lead) == 1 and lead[0].value ==
            CharacterValue.rational(2, Fraction(1, 16))
            and lead[0].lnq_power == -2):
        issues.append("double pole leading term wrong")
    err2 = spot_check(rs2, laur2, 2, 5)
    if err2 > 1e-6:
        issues.append(f"double pole spot check err {err2}")
    return CheckResult(
        "10 residue benchmark 1/(2n ln q)",
        not issues,
        "; ".join(issues) if issues else
        "symbolic residue and numeric spot checks agree",
        time.time() - t0,
    )


def _clear_caches():
    """Empty the module-level caches so the next run starts cold."""
    from . import integrator, localfield

    for cache in (integrator._orbit_cache, localfield._square_residue_cache):
        cache.clear()


def check_determinism(seed: int) -> CheckResult:
    """The coeffs CSV and the residue JSON come out byte-identical from a
    cold start (module caches emptied) and from a warm rerun."""
    t0 = time.time()
    from . import cli

    cfg = (
        "[field]\np = 2\ne = 2\neisenstein = -2,0,1\nprecision = 16\n\n"
        "[pipeline]\nregime = even\nk_max = 4\ngamma_depth = 3\n"
        "unit_depth = 2\n\n"
        f"[output]\nformat = csv\n\n[selftest]\nseed = {seed}\n"
    )
    runs = {}
    with tempfile.TemporaryDirectory() as td:
        cfgp = os.path.join(td, "cfg.ini")
        with open(cfgp, "w") as fh:
            fh.write(cfg)
        for command in ("coeffs", "residue"):
            for start in ("cold", "warm"):
                if start == "cold":
                    _clear_caches()
                outp = os.path.join(td, f"{command}-{start}.out")
                rc = cli.main([command, "--config", cfgp, "--out", outp])
                with open(outp, "rb") as fh:
                    runs[command, start] = (rc, fh.read())
    ok = (all(rc == 0 for rc, _ in runs.values())
          and all(runs[c, "cold"] == runs[c, "warm"]
                  for c in ("coeffs", "residue")))
    return CheckResult(
        "11 byte-identical runs from cold and warm caches",
        ok,
        f"csv bytes {len(runs['coeffs', 'cold'][1])}, "
        f"json bytes {len(runs['residue', 'cold'][1])}",
        time.time() - t0,
    )


def run_all(fast: bool = False, seed: int = 7):
    total = 60 if fast else 500
    lb = 40 if fast else 200
    np_ = 30 if fast else 100
    trials = 1000 if fast else 10_000
    pairs = 60 if fast else 500
    checks = [
        lambda: check_weight_exactness(seed, total),
        lambda: check_torus_cap_law(seed),
        lambda: check_lower_bound(seed, lb),
        lambda: check_norm_preimage(seed, np_),
        lambda: check_centralizer(seed, trials),
        lambda: check_character_suite(seed, pairs),
        lambda: check_support_vanishing(seed),
        lambda: check_odd_factorization(seed),
        lambda: check_even_affine(seed),
        lambda: check_residue_benchmark(seed),
        lambda: check_determinism(seed),
    ]
    return [c() for c in checks]
