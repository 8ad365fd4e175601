"""Batch driver: config parsing, pipeline orchestration, and table and
report emission.  The subcommands are the residue chain and its
stages: `coeffs` (the c_k table), `residue` (the residue at s = 0),
`psik` (psi_k at one alpha), `dtwist` (the twisted discriminant at one
alpha) and `support-scan` (the search for a support witness at one
alpha).

Config files are INI-style:

    [field]
    p = 5
    e = 1
    eisenstein = -5,1
    precision = 16

    [pipeline]
    regime = odd
    k_max = 6
    gamma_depth = 5
    unit_depth = 2

    [output]
    format = json

Every [pipeline] key is listed above; any other key is an error, and so
is a section other than these three, a missing file or [field] section,
a value that is not an integer, a window out of range, a precision below
2*gamma_depth + 2*ord(2) + 6, or a regime other than the one p selects
("even" at p = 2 with e >= 2, "odd" at odd p; the even regime adds the
weight-only constants to the residue report).  The G/T walk has no
window, and `support-scan` reads the same (i, j) levels as the pipeline.
Exit codes: 0 success, 1 any error.  TWIRL_OUTPUT_DIR overrides output
directories; no other environment variables are read.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields

from .errors import NotRegular, TwirlError
from .integrator import (
    TruncationSpec,
    assemble_coefficients,
    coefficient_A_B,
    discriminant_report,
    orbit_weight_integral,
)
from .localfield import make_field, parse_elem
from .matlattice import orthogonal_form
from .residue import residue_report
from .supercuspidal import CuspidalData, support_scan
from .twisted import TorusElem, norm_preimage, twisted_discriminant


WINDOW_KEYS = tuple(f.name for f in fields(TruncationSpec))
PIPELINE_KEYS = frozenset(WINDOW_KEYS + ("regime",))
FIELD_KEYS = ("p", "e", "eisenstein", "precision")
SECTIONS = ("field", "pipeline", "output")


@dataclass
class RunConfig:
    ctx: object
    regime: str
    trunc: TruncationSpec
    out_format: str
    out_path: str | None

    @staticmethod
    def load(path: str) -> "RunConfig":
        cp = configparser.ConfigParser()
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise TwirlError(f"cannot read config: {exc}") from None
        unknown = sorted(set(cp.sections()) - set(SECTIONS))
        if unknown:
            raise TwirlError(f"unknown config sections: {', '.join(unknown)}")
        f = cp["field"] if cp.has_section("field") else {}
        missing = [k for k in FIELD_KEYS if k not in f]
        if missing:
            raise TwirlError("config lacks [field] keys: " + ", ".join(missing))
        pl = cp["pipeline"] if cp.has_section("pipeline") else {}
        unknown = sorted(set(pl) - PIPELINE_KEYS)
        if unknown:
            raise TwirlError(f"unknown [pipeline] keys: {', '.join(unknown)}")
        ctx = make_field(
            _int(f["p"], "p"),
            _int(f["e"], "e"),
            tuple(_int(c, "eisenstein") for c in f["eisenstein"].split(",")),
            _int(f["precision"], "precision"),
        )
        expected = "even" if ctx.p == 2 else "odd"
        regime = pl.get("regime", expected)
        if regime != expected:
            raise TwirlError(f"regime must be {expected} at p = {ctx.p}, "
                             f"not {regime!r}")
        if regime == "even" and ctx.e < 2:
            raise TwirlError("even regime requires p = 2 with ramification >= 2")
        trunc = TruncationSpec(
            **{k: _int(pl[k], k) for k in WINDOW_KEYS if k in pl})
        if trunc.k_max < 0 or trunc.gamma_depth < 1 or trunc.unit_depth < 1:
            raise TwirlError("pipeline windows out of range: need k_max >= 0, "
                             "gamma_depth and unit_depth >= 1")
        need = 2 * trunc.gamma_depth + 2 * ctx.from_int(2).val + 6
        if ctx.precision < need:
            raise TwirlError(f"precision {ctx.precision} below "
                             f"2*gamma_depth + 2*ord(2) + 6 = {need}")
        out = cp["output"] if cp.has_section("output") else {}
        fmt = out.get("format", "json")
        path_out = out.get("path")
        if path_out and os.environ.get("TWIRL_OUTPUT_DIR"):
            path_out = os.path.join(os.environ["TWIRL_OUTPUT_DIR"],
                                    os.path.basename(path_out))
        return RunConfig(ctx, regime, trunc, fmt, path_out)


def _int(text: str, key: str) -> int:
    """The config value `text` of `key` as an int, or a config error."""
    try:
        return int(text)
    except ValueError:
        raise TwirlError(f"{key} = {text!r} is not an integer") from None


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _coeff_csv(ks, values) -> str:
    """One CSV row per k of the CharacterValue table `values`: its
    cyclotomic coordinates and a zero q half-power."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    p = values[ks[0]].p
    w.writerow(["k"] + [f"coord{i}" for i in range(p - 1)] + ["q_half_power"])
    for k in ks:
        w.writerow([k] + [str(c) for c in values[k].coords] + [0])
    return buf.getvalue()


def cmd_dtwist(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    form = orthogonal_form(ctx, 2)
    alpha = parse_elem(ctx, args.alpha)
    gamma = TorusElem(alpha)
    try:
        # x0 + x1 = -1 for regular gamma, so a report of kernel dim 3 is a
        # digit the precision could not decide, and it raises
        _, rep = discriminant_report(form, alpha, f"alpha = {args.alpha}")
    except NotRegular:
        # alpha - 1 or alpha + 1 is exactly 0 (`regular_preimage`); the
        # N-digit window of `TorusElem.regular` would also take 1 + pi^N
        rep = twisted_discriminant(norm_preimage(gamma, form).inverse(), form)
    out = rep.to_json()
    out["alpha"] = args.alpha
    _emit(_json_dump(out), args.out or cfg.out_path)
    return 0


def cmd_support_scan(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    form = orthogonal_form(ctx, 2)
    data = CuspidalData(ctx)
    alpha = parse_elem(ctx, args.alpha)
    rep = support_scan(data, form, TorusElem(alpha))
    _emit(_json_dump(rep.to_json()), args.out or cfg.out_path)
    return 0


def cmd_psik(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    form = orthogonal_form(ctx, 2)
    data = CuspidalData(ctx)
    alpha = parse_elem(ctx, args.alpha)
    ks = range(0, cfg.trunc.k_max + 1)
    table = orbit_weight_integral(data, form, TorusElem(alpha), ks,
                                  f"alpha = {args.alpha}")
    _emit(_coeff_csv(ks, table), args.out or cfg.out_path)
    return 0


def cmd_coeffs(cfg: RunConfig, args) -> int:
    data = CuspidalData(cfg.ctx)
    form = orthogonal_form(cfg.ctx, 2)
    table = assemble_coefficients(data, form, cfg.trunc)
    if cfg.out_format == "csv":
        _emit(_coeff_csv(table.ks, table.values), args.out or cfg.out_path)
    else:
        _emit(_json_dump(table.to_json()), args.out or cfg.out_path)
    return 0


def cmd_residue(cfg: RunConfig, args) -> int:
    data = CuspidalData(cfg.ctx)
    form = orthogonal_form(cfg.ctx, 2)
    table = assemble_coefficients(data, form, cfg.trunc)
    rep = residue_report(table.a, table.b, table.ks, n=2, q=cfg.ctx.q)
    out = rep.to_json()
    out["metadata"] = table.metadata
    if cfg.regime == "even":
        a, b, incs = coefficient_A_B(data, form, cfg.trunc)
        out["weight_only_constants"] = {
            "A": str(a),
            "B": str(b),
            "per_e_increments": [[e, str(ai), str(bi)] for e, ai, bi in incs],
        }
    _emit(_json_dump(out), args.out or cfg.out_path)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twirl",
                                 description="twisted orbital integrals and "
                                             "residue series over ramified "
                                             "p-adic fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out")
        sp.set_defaults(fn=lambda args: fn(RunConfig.load(args.config), args))
        return sp

    sp = add("dtwist", cmd_dtwist)
    sp.add_argument("--alpha", required=True)
    sp = add("support-scan", cmd_support_scan)
    sp.add_argument("--alpha", required=True)
    sp = add("psik", cmd_psik)
    sp.add_argument("--alpha", required=True)
    add("coeffs", cmd_coeffs)
    add("residue", cmd_residue)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TwirlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
