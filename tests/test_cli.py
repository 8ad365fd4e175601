import json
import os
import subprocess
import sys

import pytest

from twirl import cli

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

[selftest]
seed = 7
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


def test_wfactor_csv(odd_cfg, tmp_path):
    out = tmp_path / "w.csv"
    assert cli.main(["wfactor", "--config", odd_cfg, "--out", str(out),
                     "--count", "8"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,delta_vector,closed,oracle,match"
    assert all(line.split(",")[-1] == "1" for line in lines[1:])
    # the pinned k < 0 row has volume 0
    assert lines[-1].split(",")[2] == "0"


def test_dtwist_json(odd_cfg, tmp_path):
    out = tmp_path / "d.json"
    assert cli.main(["dtwist", "--config", odd_cfg, "--alpha", "2",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["kernel_dim"] == 1
    assert rep["regular"] is True


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


def test_coeffs_and_rg(odd_cfg, tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["coeffs", "--config", odd_cfg, "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    assert table["metadata"]["q"] == 5
    out2 = tmp_path / "rg.json"
    assert cli.main(["rg-term", "--config", odd_cfg, "--out", str(out2)]) == 0
    rg = json.loads(out2.read_text())
    assert rg["unit_square_classes"] == 2


def test_residue_report_even(even_cfg, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["residue", "--config", even_cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["checks"]["re_expansion_exact"] is True
    assert "weight_only_constants" in rep
    a = rep["weight_only_constants"]["A"]
    assert json.loads('"%s"' % a)  # string fraction present
    assert rep["metadata"]["additive_character"].startswith("zeta_p")


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text(ODD_CFG.replace("regime = odd", "regime = even"))
    assert cli.main(["coeffs", "--config", str(p)]) == 1


@pytest.mark.parametrize("old, new", [
    ("unit_depth = 2", "unit_depth = 0"),
    ("unit_depth = 2", "unit_depth = 2\ne_window = -1"),
    ("unit_depth = 2", "unit_depth = 2\nworkers = 1"),
    ("unit_depth = 2", "unit_depth = 2\ndepth_m = 3"),
    ("gamma_depth = 2", "gama_depth = 2"),
    ("k_max = 3", "k_max = eight"),
    ("regime = even", "regime = banana"),
    ("regime = even", "regime = odd"),
    ("gamma_depth = 2", "gamma_depth = 5"),
])
def test_rejected_pipeline_config(tmp_path, old, new):
    """Windows out of range, unknown [pipeline] keys, non-integer values,
    a regime other than the one p selects and a precision below
    2*gamma_depth + 2*ord(2) + 6 exit 1 before any work; unit_depth = 0
    would run with every volume q times too large."""
    p = tmp_path / "bad.ini"
    p.write_text(EVEN_CFG.replace(old, new))
    assert cli.main(["coeffs", "--config", str(p)]) == 1


def test_removed_flags_are_rejected(odd_cfg):
    parser = cli.make_parser()
    for argv in (["support-scan", "--config", odd_cfg, "--alpha", "pi",
                  "--depth", "6"],
                 ["selftest", "--config", odd_cfg]):
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


def test_support_scan_short_b_window_exit_code(tmp_path):
    p = tmp_path / "short.ini"
    p.write_text(ODD_CFG.replace("k_max = 3", "k_max = 3\nb_window = 2"))
    assert cli.main(["support-scan", "--config", str(p),
                     "--alpha", "1+pi^4"]) == 2


def test_cold_and_warm_cache_same_bytes(even_cfg, tmp_path):
    """A fresh interpreter (every cache cold) and a warm rerun in this
    process write the same coeffs CSV and residue JSON bytes."""
    import twirl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twirl.__file__)))
    csv_cfg = tmp_path / "csv.ini"
    csv_cfg.write_text(EVEN_CFG.replace("format = json", "format = csv"))
    for command, cfg in (("coeffs", str(csv_cfg)), ("residue", even_cfg)):
        cold, warm = tmp_path / f"{command}.cold", tmp_path / f"{command}.warm"
        subprocess.run([sys.executable, "-m", "twirl.cli", command,
                        "--config", cfg, "--out", str(cold)],
                       env=env, check=True, timeout=300)
        for _ in range(2):
            assert cli.main([command, "--config", cfg, "--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()


def test_output_dir_override(odd_cfg, tmp_path, monkeypatch):
    outdir = tmp_path / "outs"
    outdir.mkdir()
    monkeypatch.setenv("TWIRL_OUTPUT_DIR", str(outdir))
    cfg_text = ODD_CFG.replace("format = json", "format = json\npath = result.json")
    p = tmp_path / "cfg2.ini"
    p.write_text(cfg_text)
    assert cli.main(["dtwist", "--config", str(p), "--alpha", "2"]) == 0
    assert (outdir / "result.json").exists()
