import configparser
import csv
import gc
import inspect
import io
import json
import os
import pathlib
import random
import re
import runpy
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from twirl import cli
from twirl.cyclotomic import CharacterValue
from twirl.integrator import TruncationSpec

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


def _csv(cfg: str) -> str:
    """The config text `cfg` with [output] format = csv, the one format
    `psik` writes."""
    return cfg.replace("format = json", "format = csv")


@pytest.fixture
def odd_csv_cfg(tmp_path):
    p = tmp_path / "odd-csv.ini"
    p.write_text(_csv(ODD_CFG))
    return str(p)


@pytest.fixture
def even_csv_cfg(tmp_path):
    p = tmp_path / "even-csv.ini"
    p.write_text(_csv(EVEN_CFG))
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
    ("1", 1, "error: alpha = 1: gamma - 1 is singular\n"),
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
    ("1", 1, "error: alpha = 1: gamma - 1 is singular\n"),
    ("-1", 1, "error: alpha = -1: gamma + 1 is singular\n"),
], ids=["-1+pi^12", "1+pi^12", "1", "-1"])
def test_psik_decides_alpha_pm1_exactly(tmp_path, capsys, alpha, code, text):
    """psik decides regularity by the exact zero tests of alpha -+ 1, not
    through the 12-digit window: -1 + pi^12 is regular (alpha + 1 is
    exactly pi^12), and every odd-p psi_k is 0; on 1 + pi^12 the trace
    x0 + x1 = -1 reads 0, and the trace guard exits 1; alpha = 1 and -1
    are not regular."""
    cfg = tmp_path / "p12.ini"
    cfg.write_text(_csv(ODD_CFG).replace("precision = 18", "precision = 12")
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


def test_psik_csv(even_csv_cfg, tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main(["psik", "--config", even_csv_cfg, "--alpha", "1+pi^2",
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


@pytest.mark.parametrize("command, cfg", [
    (command, f"{regime}{'_csv' if command == 'psik' else ''}_cfg")
    for command in ("dtwist", "support-scan", "psik")
    for regime in ("odd", "even")])
def test_zero_denominator_alpha_exit_code(request, capsys, command, cfg):
    """An `n/0` factor in `--alpha` prints one `error:` line naming the
    alpha and the factor and exits 1, at p = 5 and p = 2; it was a
    ZeroDivisionError traceback out of `cli.main`."""
    path = request.getfixturevalue(cfg)
    assert cli.main([command, "--config", path, "--alpha=1+pi*3/0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: alpha = 1+pi*3/0: zero denominator in "
                       "element factor '3/0'\n")


_TRACE_0 = ("trace x0 + x1 reads 0 at precision 30: x is not regular, or "
            "the precision cannot decide the trace")
_PI40_LOST = ("term 'pi^40' lies beyond the 26 digits pi^0 .. pi^25 that "
              "precision 18 keeps")
_PI24_SHIFT = "leading digit beyond tracked validity (shift 24, levels 26)"


@pytest.mark.parametrize("alpha, reason", [
    ("1", "gamma - 1 is singular"),
    ("1+pi^24", _PI24_SHIFT),
    ("-1", "gamma + 1 is singular"),
])
def test_each_failure_reads_the_same_under_every_subcommand(
        odd_cfg, odd_csv_cfg, capsys, alpha, reason):
    """The library raises the reason and `_run_at_alpha` names the alpha,
    so a failure prints one line under every subcommand that refuses it,
    at p = 5 and precision 18.  alpha = 1 is not regular, and alpha - 1
    at 1 + pi^24 leads inside the guard levels.  alpha = -1 is refused by
    `psik` alone (gamma + 1 is singular): `dtwist` and `support-scan`
    exit 0 on it."""
    got = {}
    for command in ("psik", "dtwist", "support-scan"):
        cfg = odd_csv_cfg if command == "psik" else odd_cfg
        code = cli.main([command, "--config", cfg, f"--alpha={alpha}"])
        got[command] = (code, capsys.readouterr().err)
    refused = ["psik"] if alpha == "-1" else list(got)
    for command, (code, err) in got.items():
        assert (code, err) == ((1, f"error: alpha = {alpha}: {reason}\n")
                               if command in refused else (0, "")), command


@pytest.mark.parametrize("workload, command, alpha, err", [
    ("even-p2-residue", "support-scan", "1+pi^40",
     f"alpha = 1+pi^40: {_TRACE_0}"),
    ("even-p2-residue", "psik", "1+pi^40", f"alpha = 1+pi^40: {_TRACE_0}"),
    ("even-p2-residue", "dtwist", "1+pi^40",
     "alpha = 1+pi^40: twisted discriminant of S(gamma)^(-1) has kernel "
     "dim 3 at precision 30"),
] + [("odd-p5-residue", command, "1+pi^40", f"alpha = 1+pi^40: {_PI40_LOST}")
     for command in ("support-scan", "dtwist", "psik")
] + [("odd-p5-residue", command, "1+pi^24",
       f"alpha = 1+pi^24: {_PI24_SHIFT}")
      for command in ("dtwist", "psik", "support-scan")
] + [(workload, command, "0", "alpha = 0: inverse of zero")
     for workload in ("even-p2-residue", "odd-p5-residue")
     for command in ("support-scan", "dtwist", "psik")])
def test_alpha_error_names_the_alpha(tmp_path, capsys, workload, command,
                                     alpha, err):
    """An error of `support-scan`, `dtwist` or `psik` after the parse is
    one `error:` line, exit 1, that names `alpha = <text>` exactly once,
    on the benchmark configs; so is a term the parse cannot keep.  At
    precision 18 (p = 5) pi^40 lies beyond the 26 kept digits of 1 + pi^40,
    and at p = 2 its trace reads 0 at precision 30; at p = 5, alpha - 1
    for alpha = 1 + pi^24 leads at pi^24, inside the two guard levels of
    its 26, so it is not inverted, under every subcommand alike; alpha =
    0 is not in the torus."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(BENCH_WORKLOADS[workload].config)
    assert cli.main([command, "--config", str(cfg), f"--alpha={alpha}"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {err}\n")
    assert out.err.count(f"alpha = {alpha}") == 1


_UNKNOWN = "unknown [pipeline] keys: "


_WINDOWS = ("pipeline windows out of range: need k_max >= 0, gamma_depth "
            "and unit_depth >= 1")
REJECTED = [
    ("unit_depth = 2", "unit_depth = 0", _WINDOWS),
    ("gamma_depth = 2", "gamma_depth = 0", _WINDOWS),
    ("k_max = 3", "k_max = -1", _WINDOWS),
    ("unit_depth = 2", "unit_depth = 2\ne_window = -1", _UNKNOWN + "e_window"),
    ("unit_depth = 2", "unit_depth = 2\ne_window = 8", _UNKNOWN + "e_window"),
    ("unit_depth = 2", "unit_depth = 2\nb_window = 12", _UNKNOWN + "b_window"),
    ("unit_depth = 2", "unit_depth = 2\ndedup = true", _UNKNOWN + "dedup"),
    ("unit_depth = 2", "unit_depth = 2\nworkers = 1", _UNKNOWN + "workers"),
    ("unit_depth = 2", "unit_depth = 2\ndepth_m = 3", _UNKNOWN + "depth_m"),
    ("gamma_depth = 2", "gama_depth = 2", _UNKNOWN + "gama_depth"),
    ("k_max = 3", "k_max = eight", "k_max = 'eight' is not an integer"),
    ("regime = even", "regime = banana",
     "regime must be even at p = 2, not 'banana'"),
    ("regime = even", "regime = odd", "regime must be even at p = 2, not 'odd'"),
    ("gamma_depth = 2", "gamma_depth = 5",
     "precision 18 below 2*gamma_depth + 2*ord(2) + 6 = 20"),
    ("precision = 18", "precision = 18\nprec = 40",
     "unknown [field] keys: prec"),
    ("format = json", "format = json\nfromat = csv",
     "unknown [output] keys: fromat"),
    ("format = json", "format = xml", "format must be json or csv, not 'xml'"),
    ("e = 2\neisenstein = -2,0,1", "e = 1\neisenstein = -2,1",
     "even regime requires p = 2 with ramification >= 2"),
]


@pytest.mark.parametrize("old, new, err", REJECTED,
                         ids=[f"{old}-{new}" for old, new, _ in REJECTED])
def test_rejected_pipeline_config(tmp_path, capsys, old, new, err):
    """Windows out of range, unknown keys in any section (among them the
    removed [pipeline] keys e_window, b_window and dedup), non-integer
    values, a regime other than the one p selects, a format other than
    json or csv, a precision below 2*gamma_depth + 2*ord(2) + 6 and
    p = 2 with e = 1 exit 1 before any work, with one error line;
    unit_depth = 0 would run with every volume q times too large."""
    p = tmp_path / "bad.ini"
    assert old in EVEN_CFG
    p.write_text(EVEN_CFG.replace(old, new))
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("cfg", [EVEN_CFG, ODD_CFG], ids=["even", "odd"])
def test_least_windows_load_and_run(tmp_path, capsys, cfg):
    """gamma_depth = 1, unit_depth = 1 and k_max = 0 are the least windows
    a config may set: they load, and `coeffs` exits 0 with c_0 alone."""
    p = tmp_path / "least.ini"
    p.write_text(cfg.replace("k_max = 3", "k_max = 0")
                 .replace("gamma_depth = 2", "gamma_depth = 1")
                 .replace("unit_depth = 2", "unit_depth = 1"))
    trunc = cli.RunConfig.load(str(p)).trunc
    assert (trunc.gamma_depth, trunc.unit_depth, trunc.k_max) == (1, 1, 0)
    assert cli.main(["coeffs", "--config", str(p)]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["ks"] == [0] and out.err == ""


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


@pytest.mark.parametrize("default", ["[DEFAULT]\nfoo = 1\n",
                                     "[DEFAULT]\nk_max = 2\n",
                                     "[DEFAULT]\n"])
def test_default_section_is_refused(tmp_path, capsys, default):
    """[DEFAULT] is a section other than [field], [pipeline] and
    [output]: it exits 1 with an error line naming it, also when it is
    empty or its key belongs to one section, instead of an error that
    names [field] or a key that silently reaches [pipeline]."""
    p = tmp_path / "bad.ini"
    p.write_text(default + ODD_CFG)
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    out = capsys.readouterr()
    assert out.err == "error: unknown config sections: DEFAULT\n"


@pytest.mark.parametrize("command, alpha", [
    ("dtwist", ["--alpha=2"]), ("support-scan", ["--alpha=pi"]),
    ("psik", ["--alpha=1+pi"]), ("coeffs", []), ("residue", [])])
@pytest.mark.parametrize("fmt", [None, "json", "csv"])
def test_output_format_is_honoured_or_refused(tmp_path, capsys, command,
                                              alpha, fmt):
    """An [output] format a subcommand writes is honoured; one it cannot
    write exits 1 before any work, naming what it writes: `psik` writes
    csv only, `coeffs` json or csv, the others json only.  Without a
    format each writes its first."""
    text = ODD_CFG.replace("format = json\n",
                           f"format = {fmt}\n" if fmt else "")
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(p), "--out", str(out)] + alpha)
    err = capsys.readouterr().err
    writes = cli.FORMATS[command]
    if fmt is None or fmt in writes:
        assert (code, err) == (0, "")
        body = out.read_text()
        assert body.startswith("{" if (fmt or writes[0]) == "json" else "k,")
    else:
        assert code == 1 and not out.exists()
        assert err == (f"error: {command} writes {' or '.join(writes)} "
                       f"only, not format = {fmt}\n")


def test_pipeline_keys_are_truncation_fields():
    """Every [pipeline] key but regime is a TruncationSpec field, which
    the pipeline reads, and every field has a key: the windows are the
    class's `__slots__`, and its constructor takes each by that name, in
    that order, with the documented defaults."""
    assert cli.WINDOW_KEYS == TruncationSpec.__slots__
    assert cli.PIPELINE_KEYS == {"regime"} | set(TruncationSpec.__slots__)
    params = inspect.signature(TruncationSpec).parameters
    assert tuple(params) == TruncationSpec.__slots__
    spec = TruncationSpec()
    assert {k: getattr(spec, k) for k in cli.WINDOW_KEYS} == {
        k: v.default for k, v in params.items()}


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


@pytest.mark.parametrize("where", ["--out", "path"])
def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch, where):
    """An output file that cannot be written, given by --out or by the
    [output] path key, is one error line with exit 1, not a traceback."""
    monkeypatch.delenv("TWIRL_OUTPUT_DIR", raising=False)
    target = tmp_path / "missing-dir" / "x.json"
    argv = ["coeffs", "--config", str(tmp_path / "cfg.ini")]
    if where == "--out":
        cfg, argv = ODD_CFG, argv + ["--out", str(target)]
    else:
        cfg = ODD_CFG.replace("format = json", f"format = json\npath = {target}")
    (tmp_path / "cfg.ini").write_text(cfg)
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: cannot write output: ")
    assert str(target) in out.err and not target.parent.exists()


def test_removed_flags_are_rejected(odd_cfg, capsys):
    for argv in (["support-scan", "--config", odd_cfg, "--alpha", "pi",
                  "--depth", "6"],
                 ["selftest", "--config", odd_cfg],
                 ["selftest"],
                 ["selftest", "--fast"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: twirl")


@pytest.mark.parametrize("argv", [
    [],
    ["rg-term", "--config", "{cfg}", "--out", "{out}"],
    ["coeffs", "--out", "{out}", "--config", "{cfg}", "--trace", "1"],
    ["coeffs", "--out", "{out}", "--config"],
    ["coeffs", "--out", "{out}", "--config", "{cfg}", "--config={cfg}"],
    ["coeffs", "--out", "{out}"],
    ["psik", "--config", "{cfg}", "--out", "{out}"],
    ["dtwist", "--config", "{cfg}", "--out", "{out}"],
    ["support-scan", "--config", "{cfg}", "--out", "{out}"],
    ["coeffs", "--config", "{cfg}", "--alpha", "2", "--out", "{out}"],
    ["residue", "--config", "{cfg}", "--alpha=2", "--out={out}"],
], ids=["no-arguments", "unknown-subcommand", "unknown-flag",
        "config-without-value", "config-twice", "no-config",
        "psik-without-alpha", "dtwist-without-alpha",
        "support-scan-without-alpha", "coeffs-with-alpha",
        "residue-with-alpha"])
def test_usage_errors_exit_2(odd_cfg, tmp_path, capsys, argv):
    """A command line the reader rejects prints the usage line and one
    error line to stderr, exits 2 (the usual usage-error code) and writes
    no --out file."""
    out = tmp_path / "never.out"
    assert cli.main([a.format(cfg=odd_cfg, out=out) for a in argv]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("usage: twirl {dtwist,support-scan,psik,"
                              "coeffs,residue} --config FILE")
    assert err.err.count("\n") == 2 and "\nerror: " in err.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_subcommand(capsys, flag):
    assert cli.main([flag]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.startswith("usage: twirl")
    for name in ("dtwist", "support-scan", "psik", "coeffs", "residue"):
        assert name in out.out


def test_alpha_space_form_matches_equals_form(odd_csv_cfg, tmp_path):
    """`--alpha VALUE` takes a value with a leading minus sign and gives
    the bytes of `--alpha=VALUE`."""
    space, equals = tmp_path / "space.csv", tmp_path / "equals.csv"
    assert cli.main(["psik", "--config", odd_csv_cfg, "--alpha", "-1+pi*3",
                     "--out", str(space)]) == 0
    assert cli.main(["psik", "--config", odd_csv_cfg, "--alpha=-1+pi*3",
                     f"--out={equals}"]) == 0
    assert space.read_bytes() == equals.read_bytes()


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


def test_cold_residue_leaves_numpy_ma_unloaded(even_cfg, even_csv_cfg):
    """A cold `residue` run and a cold `psik` run at p = 2, both of which
    compute K-average misses, never import numpy.ma, which numpy loads
    lazily and which costs milliseconds per cold job.  (At odd p every
    K-average is 0 without a pass, so no odd-p run makes a miss.)"""
    import twirl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    runs = (["residue", "--config", even_cfg],
            ["psik", "--config", even_csv_cfg, "--alpha=1+pi^2"])
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


def test_cold_psik_leaves_argparse_unloaded(tmp_path):
    """A cold `psik` job on the odd-p7 benchmark config reads its argv
    without argparse, so neither argparse nor the gettext and locale
    modules it loads are imported: together they cost more than the rest
    of that job's solve."""
    import runpy
    import twirl

    workloads = runpy.run_path(os.path.join(
        os.path.dirname(__file__), "..", "perfbench", "workloads.py"))
    w = workloads["WORKLOADS"]["odd-p7-psik"]
    cfg = tmp_path / "odd-p7.ini"
    cfg.write_text(w.config)
    argv = w.job_args(random.Random(1)) + ["--config", str(cfg),
                                           "--out", os.devnull]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    code = textwrap.dedent(f"""
        import sys
        from twirl import cli

        assert cli.main({argv!r}) == 0
        loaded = {{"argparse", "gettext", "locale"}} & set(sys.modules)
        assert not loaded, loaded
        """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=300)


BENCH_WORKLOADS = runpy.run_path(os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_cold_bench_job_imports_nothing_in_main(tmp_path, name):
    """A cold job of each benchmark workload first imports no module
    inside `cli.main` (`sys.modules` before and after): the benchmark
    times `cli.main` as `solve_s`, so a module loaded there lazily bills
    its load, and without `.pyc` its compile, to the solve.  `cmath`,
    once loaded by the even-p2 `residue` report, was such a module."""
    import twirl

    w = BENCH_WORKLOADS[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(w.config)
    argv = w.job_args(random.Random(1)) + ["--config", str(cfg),
                                           "--out", os.devnull]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    code = textwrap.dedent(f"""
        import sys
        from twirl import cli

        before = set(sys.modules)
        assert cli.main({argv!r}) == 0
        loaded = sorted(set(sys.modules) - before)
        assert not loaded, loaded
        """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=300)


@pytest.mark.parametrize("name", ["even-p2-residue", "odd-p7-psik"])
def test_cold_bench_job_leaves_configparser_and_csv_unloaded(tmp_path, name):
    """A cold `psik` job and a cold even-p2 `residue` job on the benchmark
    configs read the config and write their rows without configparser
    and csv: building a ConfigParser for an 11-line file cost more than
    the rest of the odd-p7 psik solve."""
    import twirl

    w = BENCH_WORKLOADS[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(w.config)
    argv = w.job_args(random.Random(1)) + ["--config", str(cfg),
                                           "--out", os.devnull]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    code = textwrap.dedent(f"""
        import sys
        from twirl import cli

        assert cli.main({argv!r}) == 0
        loaded = {{"configparser", "csv"}} & set(sys.modules)
        assert not loaded, loaded
        """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=300)


@pytest.mark.parametrize("name", ["even-p2-residue", "odd-p5-residue"])
@pytest.mark.parametrize("command, fmt", [("residue", "json"),
                                          ("coeffs", "json"),
                                          ("coeffs", "csv")])
def test_run_enters_no_json_encoder_and_no_fraction(tmp_path, name, command,
                                                    fmt):
    """A `residue` or `coeffs` run on the benchmark's residue configs,
    under `sys.setprofile`, enters no frame of `json/encoder.py` (the
    report is written by `_json_dump`), and no `CharacterValue` method
    calls into `fractions.py` (values are integers over one denominator,
    and the pipeline scales them by ints).  These are facts of the call
    graph, not timings."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(BENCH_WORKLOADS[name].config
                   + f"\n[output]\nformat = {fmt}\n")
    encoder = os.path.join("json", "encoder.py")
    found = []

    def profile(frame, event, _arg):
        if event != "call":
            return
        path = frame.f_code.co_filename
        if path.endswith(encoder):
            found.append(("json", frame.f_code.co_name))
        elif path.endswith("fractions.py"):
            caller = frame.f_back
            while caller.f_code.co_filename.endswith("fractions.py"):
                caller = caller.f_back
            if caller.f_code.co_filename.endswith(
                    os.path.join("twirl", "cyclotomic.py")):
                found.append((caller.f_code.co_name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        rc = cli.main([command, "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
    finally:
        sys.setprofile(None)
    assert rc == 0
    assert found == []


def test_output_dir_override(odd_cfg, tmp_path, monkeypatch):
    outdir = tmp_path / "outs"
    outdir.mkdir()
    monkeypatch.setenv("TWIRL_OUTPUT_DIR", str(outdir))
    cfg_text = ODD_CFG.replace("format = json", "format = json\npath = result.json")
    p = tmp_path / "cfg2.ini"
    p.write_text(cfg_text)
    assert cli.main(["dtwist", "--config", str(p), "--alpha", "2"]) == 0
    assert (outdir / "result.json").exists()


def _configparser_sections(text: str) -> dict:
    """The oracle for `cli._read_ini`: what configparser reads from `text`
    without interpolation and without a default section."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.read_string(text)
    return {s: dict(cp[s]) for s in cp.sections()}


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_INI = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)

VALID_CONFIGS = {
    "readme": README_INI,
    "odd": ODD_CFG,
    "even": EVEN_CFG,
    "odd-csv": _csv(ODD_CFG),
    "middle-term": MIDDLE_TERM_CFG.format(p=3, eis="-3,3,1", regime="odd"),
    "deep": DEEP_CFG.format(n=22),
    "residue": RESIDUE_CFG.format(p=5, e=1, eis="-5,1", n=16, regime="odd",
                                  depth=5, ud=2),
    "upper-case-keys": ODD_CFG.replace("k_max", "K_MAX").replace("p =", "P ="),
    "colons": ODD_CFG.replace(" = ", ": ").replace("e = 1", "e:1"),
    "comments": "# a comment\n" + ODD_CFG.replace("[pipeline]",
                                                  "; one\n  # two\n[pipeline]"),
    "no-trailing-newline": ODD_CFG.rstrip("\n"),
    "percent-value": ODD_CFG + "path = out%1.json\n",
    "empty-value": ODD_CFG.replace("[output]\n", "[output]\npath =\n"),
    "spaced": ODD_CFG.replace("p = 5", "p\t=   5  ").replace("e = 1", "e=1"),
    "crlf": ODD_CFG.replace("\n", "\r\n"),
    **{f"bench-{name}": w.config for name, w in BENCH_WORKLOADS.items()},
}


@pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
def test_read_ini_matches_configparser(name):
    """On every config the CLI documents, tests or benchmarks, the literal
    reader gives configparser's sections, keys and values."""
    text = VALID_CONFIGS[name]
    assert cli._read_ini(text) == _configparser_sections(text)


@pytest.mark.parametrize("text, line, what", [
    ("[field]\np = 5\n[field]\ne = 1\n", 3, "repeated section [field]"),
    ("[field]\np = 5\nP = 7\n", 3, "repeated key 'p'"),
    ("; header next\np = 5\n[field]\n", 2, "key 'p' before any section"),
    ("[field]\n\np 5\n", 3, "no key = value in 'p 5'"),
    ("[field]\n= 5\n", 2, "no key = value in '= 5'"),
    ("[field]\neisenstein = -5,\n  1\n", 3, "indented line '1'"),
    ("[field]\n  p = 5\n", 2, "indented line 'p = 5'"),
], ids=["repeated-section", "repeated-key", "key-before-section",
        "no-delimiter", "no-key", "continuation", "indented-key"])
def test_unreadable_config_line_exit_code(tmp_path, capsys, text, line, what):
    """A repeated section or key, a key before any section, a line with no
    delimiter or no key and an indented (continuation) line are one error
    line naming the config line, with exit 1."""
    p = tmp_path / "bad.ini"
    p.write_text(text)
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot read config: line {line}: {what}\n"


def test_percent_in_config_value_is_literal(tmp_path, capsys, monkeypatch):
    """A `%` in a value is read as itself: `path = out%1.json` names the
    output file (configparser's interpolation made it a traceback), and
    `k_max = 8%` is a value that is not an integer."""
    monkeypatch.delenv("TWIRL_OUTPUT_DIR", raising=False)
    target = tmp_path / "out%1.json"
    p = tmp_path / "cfg.ini"
    p.write_text(ODD_CFG.replace("format = json",
                                 f"format = json\npath = {target}"))
    assert cli.main(["coeffs", "--config", str(p)]) == 0
    assert capsys.readouterr() == ("", "")
    assert json.loads(target.read_text())["metadata"]["q"] == 5
    p.write_text(ODD_CFG.replace("k_max = 3", "k_max = 8%"))
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    assert capsys.readouterr().err == \
        "error: k_max = '8%' is not an integer\n"


def test_undecodable_config_exit_code(tmp_path, capsys):
    """A config that is not text in the locale's encoding is an error
    line with exit 1, not a traceback."""
    p = tmp_path / "cfg.ini"
    p.write_bytes(ODD_CFG.encode() + b"\xff\xfe\xff\n")
    assert cli.main(["coeffs", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def _csv_writer_text(ks, values) -> str:
    """The oracle for `cli._coeff_csv`: the same rows through csv.writer."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    p = values[ks[0]].p
    w.writerow(["k"] + [f"coord{i}" for i in range(p - 1)] + ["q_half_power"])
    for k in ks:
        w.writerow([k] + [str(c) for c in values[k].coords] + [0])
    return buf.getvalue()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coeff_csv_matches_csv_writer(tmp_path, p):
    """`_coeff_csv` joins its cells with commas; its cells are ints and
    str(Fraction), which never need quoting, so it writes csv.writer's
    bytes: on the coeffs table of a small config at p and on a seeded
    table with negative and fractional coordinates and k past 9."""
    from twirl.integrator import assemble_coefficients
    from twirl.supercuspidal import CuspidalData

    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MIDDLE_TERM_CFG.format(p=2, eis="-2,2,1", regime="even")
                        if p == 2 else RESIDUE_CFG.format(
                            p=p, e=1, eis=f"{-p},1", n=16, regime="odd",
                            depth=2, ud=1).replace("k_max = 8", "k_max = 3"))
    cfg = cli.RunConfig.load(str(cfg_path))
    table = assemble_coefficients(CuspidalData(cfg.ctx), cfg.trunc)
    assert cli._coeff_csv(table.ks, table.values) == \
        _csv_writer_text(table.ks, table.values)
    rng = random.Random(p)
    seeded = {k: CharacterValue(p, tuple(
        Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(p - 1)))
        for k in range(12)}
    ks = tuple(range(12))
    assert cli._coeff_csv(ks, seeded) == _csv_writer_text(ks, seeded)


def test_main_freezes_the_loaded_heap(odd_cfg, tmp_path):
    """`cli.main` calls `gc.freeze()` before any work, so the objects the
    imports made sit in the permanent generation during the run."""
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    out = tmp_path / "out.json"
    assert cli.main(["coeffs", "--config", odd_cfg, "--out", str(out)]) == 0
    assert gc.get_freeze_count() > 0
