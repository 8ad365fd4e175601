import json
import os
import subprocess
import sys
import textwrap
from dataclasses import fields

import pytest

from twirl import TruncationSpec, cli

ODD_CFG = """[field]
p = 5
e = 1
eisenstein = -5,1
precision = 18

[pipeline]
regime = odd
k_max = 3
gamma_depth = 2
unit_depth = 2

[output]
format = json
"""

EVEN_CFG = ODD_CFG.replace("p = 5", "p = 2").replace("e = 1", "e = 2") \
    .replace("eisenstein = -5,1", "eisenstein = -2,0,1") \
    .replace("regime = odd", "regime = even")


@pytest.fixture
def odd_cfg(tmp_path):
    p = tmp_path / "odd.ini"
    p.write_text(ODD_CFG)
    return str(p)


@pytest.fixture
def even_cfg(tmp_path):
    p = tmp_path / "even.ini"
    p.write_text(EVEN_CFG)
    return str(p)


def test_dtwist_json(odd_cfg, tmp_path):
    out = tmp_path / "d.json"
    assert cli.main(["dtwist", "--config", odd_cfg, "--alpha", "2",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["kernel_dim"] == 1
    assert rep["regular"] is True


def test_dtwist_refuses_undecided_trace(odd_cfg, tmp_path, capsys):
    """x0 + x1 = -1 for every regular gamma, so a kernel-dim-3 report is a
    trace the precision could not decide: exit 1, not an answer.  At
    precision 18, alpha = 1 + pi^13 and 1 + pi^16 read that trace as 0;
    alpha = 1 + pi^9 decides it, and |D_eps| = q^(-18)."""
    for k in (13, 16):
        assert cli.main(["dtwist", "--config", odd_cfg,
                         f"--alpha=1+pi^{k}"]) == 1
        assert "kernel dim 3" in capsys.readouterr().err
    out = tmp_path / "d.json"
    assert cli.main(["dtwist", "--config", odd_cfg, "--alpha=1+pi^9",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert (rep["regular"], rep["abs_value_q_exponent"]) == (True, "-18")


@pytest.mark.parametrize("alpha, code, text", [
    ("1+pi^12", 1, "kernel dim 3"),
    ("1+pi^13", 1, "kernel dim 3"),
    ("1", 1, "error: gamma - 1 is singular\n"),
    ("-1", 0, '{\n  "abs_value_q_exponent": "0",\n  "alpha": "-1",\n'
              '  "kernel_dim": 1,\n  "regular": true\n}\n'),
], ids=["1+pi^12", "1+pi^13", "1", "-1"])
def test_dtwist_decides_alpha_pm1_exactly(tmp_path, capsys, alpha, code,
                                          text):
    """At precision 12, 1 + pi^12 and 1 + pi^13 read as 1 through the
    12-digit window, but alpha - 1 is exactly pi^12 or pi^13: gamma is
    regular, and its trace x0 + x1 = -1 reads 0, so dtwist exits 1 as
    it does on 1 + pi^11.  alpha = 1 and -1 keep their answers: an
    error, and the kernel-dim-1 report of the non-regular route."""
    cfg = tmp_path / "p12.ini"
    cfg.write_text(ODD_CFG.replace("precision = 18", "precision = 12")
                   .replace("gamma_depth = 2", "gamma_depth = 3"))
    assert cli.main(["dtwist", "--config", str(cfg),
                     f"--alpha={alpha}"]) == code
    out = capsys.readouterr()
    if code:
        assert out.out == "" and text in out.err
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
    else:
        assert (out.out, out.err) == (text, "")


@pytest.mark.parametrize("alpha, code, text", [
    ("-1+pi^12", 0, "k,coord0,coord1,coord2,coord3,q_half_power\n"
                    + "".join(f"{k},0,0,0,0,0\n" for k in range(4))),
    ("1+pi^12", 1, "error: alpha = 1+pi^12: trace x0 + x1 reads 0 at "
                   "precision 12"),
    ("1", 1, "error: gamma must be regular at alpha = 1\n"),
    ("-1", 1, "error: gamma must be regular at alpha = -1\n"),
], ids=["-1+pi^12", "1+pi^12", "1", "-1"])
def test_psik_decides_alpha_pm1_exactly(tmp_path, capsys, alpha, code, text):
    """psik decides regularity by the exact zero tests of alpha -+ 1, not
    through the 12-digit window: -1 + pi^12 is regular (alpha + 1 is
    exactly pi^12), and every odd-p psi_k is 0; on 1 + pi^12 the trace
    x0 + x1 = -1 reads 0, and the trace guard exits 1; alpha = 1 and -1
    are not regular."""
    cfg = tmp_path / "p12.ini"
    cfg.write_text(ODD_CFG.replace("precision = 18", "precision = 12")
                   .replace("gamma_depth = 2", "gamma_depth = 3"))
    assert cli.main(["psik", "--config", str(cfg), f"--alpha={alpha}"]) == code
    out = capsys.readouterr()
    if code:
        assert out.out == "" and out.err.startswith(text)
        assert out.err.count("\n") == 1
    else:
        assert (out.out, out.err) == (text, "")


def test_support_scan_json(odd_cfg, tmp_path):
    out = tmp_path / "s.json"
    assert cli.main(["support-scan", "--config", odd_cfg, "--alpha", "pi",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["witness"] is None
    assert rep["regime"] == "alpha-noncompact"
    assert rep["strata_searched"]


def test_psik_csv(even_cfg, tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main(["psik", "--config", even_cfg, "--alpha", "1+pi^2",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,coord0")
    assert len(lines) == 5  # header + k = 0..3


MIDDLE_TERM_CFG = """[field]
p = {p}
e = 2
eisenstein = {eis}
precision = 16

[pipeline]
regime = {regime}
k_max = 2
gamma_depth = 2
unit_depth = 1

[output]
format = csv
"""


@pytest.mark.parametrize("p, eis, regime", [(2, "-2,2,1", "even"),
                                            (3, "-3,3,1", "odd")])
def test_coeffs_middle_term_eisenstein(tmp_path, p, eis, regime):
    """Fields whose Eisenstein polynomial has a nonzero middle coefficient
    run the whole coeffs chain (division by pi once lost the factor p on
    those terms)."""
    cfg = tmp_path / "mid.ini"
    cfg.write_text(MIDDLE_TERM_CFG.format(p=p, eis=eis, regime=regime))
    out = tmp_path / "mid.csv"
    assert cli.main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4  # header + k = 0..2


def test_coeffs_json(odd_cfg, tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["coeffs", "--config", odd_cfg, "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    assert table["metadata"]["q"] == 5
    assert table["metadata"]["card_unit_square_classes"] == 2


def test_residue_report_even(even_cfg, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["residue", "--config", even_cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["checks"]["re_expansion_exact"] is True
    assert "weight_only_constants" in rep
    a = rep["weight_only_constants"]["A"]
    assert json.loads('"%s"' % a)  # string fraction present
    assert rep["metadata"]["additive_character"].startswith("zeta_p")


def test_residue_at_small_k_max(tmp_path):
    """c_k = a + b k is read off the run totals, so `residue` fits no
    window of c_k: at k_max 0..3 the p = 2 config exits 0 with regime
    even-weighted, and its poly, closed form and Laurent data are those
    of the k_max = 8 run, which only prints more c_k."""
    reps = {}
    for k_max in (0, 1, 2, 3, 8):
        cfg, out = tmp_path / f"k{k_max}.ini", tmp_path / f"k{k_max}.json"
        cfg.write_text(EVEN_CFG.replace("k_max = 3", f"k_max = {k_max}"))
        assert cli.main(["residue", "--config", str(cfg), "--out",
                         str(out)]) == 0
        reps[k_max] = json.loads(out.read_text())
    for k_max in range(4):
        rep = reps[k_max]
        assert rep["regime"] == "even-weighted"
        assert rep["coefficients"] == reps[8]["coefficients"][:k_max + 1]
        for key in ("poly", "closed_form", "laurent"):
            assert rep[key] == reps[8][key], (k_max, key)


def test_residue_over_x2_plus_2(even_cfg, tmp_path):
    """Over x^2 + 2 the stratum sign1-e2 has the central 1 + pi^2 = -1 in
    its class; the run takes a regular representative of that class,
    exits 0, and writes the bytes of the x^2 - 2 run."""
    p = tmp_path / "plus.ini"
    p.write_text(EVEN_CFG.replace("eisenstein = -2,0,1", "eisenstein = 2,0,1"))
    outs = [tmp_path / "plus.json", tmp_path / "minus.json"]
    for cfg, out in zip((str(p), even_cfg), outs):
        assert cli.main(["residue", "--config", cfg, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text(ODD_CFG.replace("regime = odd", "regime = even"))
    assert cli.main(["coeffs", "--config", str(p)]) == 1


@pytest.mark.parametrize("old, new", [
    ("unit_depth = 2", "unit_depth = 0"),
    ("unit_depth = 2", "unit_depth = 2\ne_window = -1"),
    ("unit_depth = 2", "unit_depth = 2\ne_window = 8"),
    ("unit_depth = 2", "unit_depth = 2\nb_window = 12"),
    ("unit_depth = 2", "unit_depth = 2\ndedup = true"),
    ("unit_depth = 2", "unit_depth = 2\nworkers = 1"),
    ("unit_depth = 2", "unit_depth = 2\ndepth_m = 3"),
    ("gamma_depth = 2", "gama_depth = 2"),
    ("k_max = 3", "k_max = eight"),
    ("regime = even", "regime = banana"),
    ("regime = even", "regime = odd"),
    ("gamma_depth = 2", "gamma_depth = 5"),
])
def test_rejected_pipeline_config(tmp_path, capsys, old, new):
    """Windows out of range, unknown [pipeline] keys (among them the
    removed e_window, b_window and dedup), non-integer values, a regime
    other than the one p selects and a precision below
    2*gamma_depth + 2*ord(2) + 6 exit 1 before any work; unit_depth = 0
    would run with every volume q times too large."""
    p = tmp_path / "bad.ini"
    p.write_text(EVEN_CFG.replace(old, new))
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if new.splitlines()[-1].split(" = ")[0] not in cli.PIPELINE_KEYS:
        assert "unknown [pipeline] keys" in err


@pytest.mark.parametrize("section", ["selftest", "pipline"])
def test_unknown_config_section_exit_code(tmp_path, capsys, section):
    """A section other than [field], [pipeline] and [output] (among them
    the removed [selftest]) exits 1 with an error line naming it."""
    p = tmp_path / "bad.ini"
    p.write_text(EVEN_CFG + f"\n[{section}]\nseed = 7\n")
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config sections: ")
    assert section in err


def test_pipeline_keys_are_truncation_fields():
    """Every [pipeline] key but regime is a TruncationSpec field, which
    the pipeline reads, and every field has a key."""
    assert cli.PIPELINE_KEYS == ({"regime"}
                                 | {f.name for f in fields(TruncationSpec)})


@pytest.mark.parametrize("case, err", [
    ("missing-file", "cannot read config"),
    ("no-field-section", "config lacks [field] keys"),
])
def test_unreadable_config_exit_code(tmp_path, capsys, case, err):
    """A missing config file and a config without [field] are error lines
    with exit 1, not tracebacks."""
    p = tmp_path / "cfg.ini"
    if case == "no-field-section":
        p.write_text(ODD_CFG[ODD_CFG.index("[pipeline]"):])
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {err}")


def test_removed_flags_are_rejected(odd_cfg):
    parser = cli.make_parser()
    for argv in (["support-scan", "--config", odd_cfg, "--alpha", "pi",
                  "--depth", "6"],
                 ["selftest", "--config", odd_cfg],
                 ["selftest"],
                 ["selftest", "--fast"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


DEEP_CFG = """[field]
p = 2
e = 2
eisenstein = -2,0,1
precision = {n}

[pipeline]
regime = even
k_max = 2
gamma_depth = 6
unit_depth = 3

[output]
format = csv
"""


def test_coeffs_bytes_do_not_depend_on_precision(tmp_path, capsys):
    """Above the precision rule (22 here) the coeffs CSV is byte-identical;
    below it the config is refused with exit 1.  At precision 16 the run
    used to print c_0 = 5997/1024 instead of 20791/32768, exit 0."""
    outs = []
    for n in (16, 22, 30):
        cfg = tmp_path / f"deep{n}.ini"
        cfg.write_text(DEEP_CFG.format(n=n))
        out = tmp_path / f"deep{n}.csv"
        rc = cli.main(["coeffs", "--config", str(cfg), "--out", str(out)])
        if n == 16:
            assert rc == 1
            assert "precision 16 below" in capsys.readouterr().err
        else:
            assert rc == 0
            outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1].startswith(b"0,20791/32768")


def test_coeffs_within_precision_rule_deep_torus(tmp_path, capsys):
    """Precision 30 meets the rule for gamma_depth 10 (30 >= 2*10 + 4 + 6).
    The Berkowitz charpoly of a deep stratum's twisted discriminant used to
    exhaust its digits here (exit 1, "leading digit beyond tracked
    validity"); the closed form gives the c_0 that precision 32, 34 and
    36 give."""
    text = DEEP_CFG.format(n=30).replace("gamma_depth = 6", "gamma_depth = 10") \
        .replace("unit_depth = 3", "unit_depth = 1")
    cfg = tmp_path / "deep10.ini"
    cfg.write_text(text)
    out = tmp_path / "deep10.csv"
    rc = cli.main(["coeffs", "--config", str(cfg), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert out.read_bytes().splitlines()[1] == b"0,255652133/402653184,0"


RESIDUE_CFG = """[field]
p = {p}
e = {e}
eisenstein = {eis}
precision = {n}

[pipeline]
regime = {regime}
k_max = 8
gamma_depth = {depth}
unit_depth = {ud}
"""


@pytest.mark.parametrize("p, e, eis, regime, depth, ud, rule", [
    (2, 2, "-2,0,1", "even", 8, 3, 26),
    (5, 1, "-5,1", "odd", 5, 2, 16),
])
def test_residue_bytes_at_the_precision_rule(tmp_path, capsys, p, e, eis,
                                             regime, depth, ud, rule):
    """On the residue configs of the benchmark the report at the rule's
    minimum precision, 2*gamma_depth + 2*ord(2) + 6, is byte-identical to
    the one 8 digits higher, so the closed-form x = S(gamma)^(-1) loses
    no digit the rule pays for; one digit below the rule is refused."""
    outs = []
    for n in (rule - 1, rule, rule + 8):
        cfg = tmp_path / f"r{n}.ini"
        cfg.write_text(RESIDUE_CFG.format(p=p, e=e, eis=eis, n=n,
                                          regime=regime, depth=depth, ud=ud))
        out = tmp_path / f"r{n}.json"
        rc = cli.main(["residue", "--config", str(cfg), "--out", str(out)])
        if n < rule:
            assert rc == 1
            assert f"precision {n} below" in capsys.readouterr().err
        else:
            assert rc == 0, capsys.readouterr().err
            outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_support_scan_short_b_window_exit_code(tmp_path, capsys):
    """alpha = 1 + pi^13 forces b levels up to 13, and the scan reads them
    all as level records: exit 0.  At precision 18 the trace of
    S(gamma)^(-1) reads 0 (its entries carry 13 digits), and the scan
    stops with exit 1 instead of guessing the b levels."""
    rcs = {}
    for n in (18, 40):
        p = tmp_path / f"deep{n}.ini"
        p.write_text(ODD_CFG.replace("precision = 18", f"precision = {n}"))
        rcs[n] = cli.main(["support-scan", "--config", str(p),
                           "--alpha=1+pi^13", "--out",
                           str(tmp_path / f"deep{n}.json")])
    assert rcs == {18: 1, 40: 0}
    assert "reads 0 at precision 18" in capsys.readouterr().err
    rep = json.loads((tmp_path / "deep40.json").read_text())
    assert rep["witness"] is None
    assert max(s["b_level"] for s in rep["strata_searched"]) == 13


def test_cold_and_warm_cache_same_bytes(tmp_path):
    """A fresh interpreter (every cache cold) and a warm rerun in this
    process write the same coeffs CSV and residue JSON bytes, at the even
    config of criterion 11 (precision 16, k_max 4, gamma_depth 3)."""
    import twirl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    text = (EVEN_CFG.replace("precision = 18", "precision = 16")
            .replace("k_max = 3", "k_max = 4")
            .replace("gamma_depth = 2", "gamma_depth = 3"))
    csv_cfg, json_cfg = tmp_path / "csv.ini", tmp_path / "json.ini"
    csv_cfg.write_text(text.replace("format = json", "format = csv"))
    json_cfg.write_text(text)
    for command, cfg in (("coeffs", str(csv_cfg)), ("residue", str(json_cfg))):
        cold, warm = tmp_path / f"{command}.cold", tmp_path / f"{command}.warm"
        subprocess.run([sys.executable, "-m", "twirl.cli", command,
                        "--config", cfg, "--out", str(cold)],
                       env=env, check=True, timeout=300)
        for _ in range(2):
            assert cli.main([command, "--config", cfg, "--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()


def test_cold_residue_leaves_numpy_ma_unloaded(even_cfg):
    """A cold `residue` run and a cold `psik` run at p = 2, both of which
    compute K-average misses, never import numpy.ma, which numpy loads
    lazily and which costs milliseconds per cold job.  (At odd p every
    K-average is 0 without a pass, so no odd-p run makes a miss.)"""
    import twirl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    runs = (["residue", "--config", even_cfg],
            ["psik", "--config", even_cfg, "--alpha=1+pi^2"])
    for argv in runs:
        code = textwrap.dedent(f"""
            import os, sys
            from twirl import cli, supercuspidal

            data = supercuspidal.CuspidalData
            misses = []
            coset = data._kappa_average_coset
            def counted(self, y, parity):
                misses.append(parity)
                return coset(self, y, parity)
            data._kappa_average_coset = counted
            rc = cli.main({argv!r} + ["--out", os.devnull])
            assert rc == 0 and misses
            assert "numpy.ma" not in sys.modules
            """)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=300)


def test_output_dir_override(odd_cfg, tmp_path, monkeypatch):
    outdir = tmp_path / "outs"
    outdir.mkdir()
    monkeypatch.setenv("TWIRL_OUTPUT_DIR", str(outdir))
    cfg_text = ODD_CFG.replace("format = json", "format = json\npath = result.json")
    p = tmp_path / "cfg2.ini"
    p.write_text(cfg_text)
    assert cli.main(["dtwist", "--config", str(p), "--alpha", "2"]) == 0
    assert (outdir / "result.json").exists()
