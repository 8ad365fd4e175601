"""Batch driver: config parsing, pipeline orchestration, and table and
report emission.  The subcommands are the residue chain and its
stages: `coeffs` (the c_k table), `residue` (the residue at s = 0),
`psik` (psi_k at one alpha), `dtwist` (the twisted discriminant at one
alpha) and `support-scan` (the search for a support witness at one
alpha).

Config files are INI, read literally by `_read_ini`: `[name]` headers,
`key = value` or `key: value` lines split at the first `=` or `:`, keys
case-folded to lower case, keys and values stripped, and blank lines and
lines whose first non-blank character is `#` or `;` skipped.  There are
no continuation lines (an indented line is an error), a `%` is read as
itself, and a repeated section or key, a key before any section and a
line without a delimiter are errors that name the line:

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
    path = out.json

Every key of the three sections is listed above; any other key is an
error, and so is a section other than these three ([DEFAULT] included),
a missing file or [field] section, a format other than json or csv, a
format the subcommand does not write (`FORMATS`; an unset format is
json, or csv for `psik`), a value that is not an integer, a window out
of range, a precision below 2*gamma_depth + 2*ord(2) + 6, or a regime
other than the one p selects ("even" at p = 2 with e >= 2, "odd" at odd
p).  The `regime` key is only checked: the regime is p's, and at p = 2
the residue report adds the weight-only constants.  The G/T walk has no
window, and `support-scan` reads the same (i, j) levels as the pipeline.
Exit codes: 0 success, 1 a config or run error, 2 a usage error.  An
exit-1 line is `error: <place>: <reason>`: the library raises only the
reason, and the place is added once, by the code that knows it.  Every
error of `dtwist`, `psik` and `support-scan`, the parse of `--alpha`
included, gets `alpha = <text>` (`_run_at_alpha`); a run error of
`coeffs` and `residue` gets the torus stratum's label
(`assemble_coefficients`) or `1+pi^<gamma_depth>` (`coefficient_A_B`).
Only TWIRL_OUTPUT_DIR is read from the environment; it overrides output
dirs.

`main` first calls `gc.freeze()`: the loaded modules leave the cyclic
collector's generations, so a collection inside a run scans only the
run's own objects, and the run's time does not depend on how many
containers the imports allocated.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import TwirlError
from .integrator import (
    TruncationSpec,
    assemble_coefficients,
    coefficient_A_B,
    discriminant_report,
    orbit_weight_integral,
)
from .localfield import LocalFieldCtx, parse_elem
from .residue import residue_report
from .supercuspidal import CuspidalData, support_scan
# unused; tracer lookup points of perfbench/spans.py
from .twisted import norm_preimage, twisted_discriminant


WINDOW_KEYS = TruncationSpec.__slots__
PIPELINE_KEYS = frozenset(WINDOW_KEYS + ("regime",))
FIELD_KEYS = ("p", "e", "eisenstein", "precision")
SECTION_KEYS = {"field": frozenset(FIELD_KEYS), "pipeline": PIPELINE_KEYS,
                "output": frozenset({"format", "path"})}
# the [output] formats each subcommand writes; the first when none is set
FORMATS = {"dtwist": ("json",), "support-scan": ("json",), "psik": ("csv",),
           "coeffs": ("json", "csv"), "residue": ("json",)}


class RunConfig:
    """A checked config file (`load`): the field, the windows, and the
    [output] format and path."""

    __slots__ = ("ctx", "trunc", "out_format", "out_path")

    def __init__(self, ctx: LocalFieldCtx, trunc: TruncationSpec,
                 out_format: str | None, out_path: str | None):
        self.ctx = ctx
        self.trunc = trunc
        self.out_format = out_format
        self.out_path = out_path

    @staticmethod
    def load(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                cp = _read_ini(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise TwirlError(f"cannot read config: {exc}") from None
        unknown = sorted(set(cp) - set(SECTION_KEYS))
        if unknown:
            raise TwirlError(f"unknown config sections: {', '.join(unknown)}")
        for name in cp:
            unknown = sorted(set(cp[name]) - SECTION_KEYS[name])
            if unknown:
                raise TwirlError(f"unknown [{name}] keys: {', '.join(unknown)}")
        f = cp.get("field", {})
        missing = [k for k in FIELD_KEYS if k not in f]
        if missing:
            raise TwirlError("config lacks [field] keys: " + ", ".join(missing))
        pl = cp.get("pipeline", {})
        ctx = LocalFieldCtx(
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
        need = 2 * trunc.gamma_depth + 2 * ctx.ord2 + 6
        if ctx.precision < need:
            raise TwirlError(f"precision {ctx.precision} below "
                             f"2*gamma_depth + 2*ord(2) + 6 = {need}")
        out = cp.get("output", {})
        fmt = out.get("format")
        if fmt not in (None, "json", "csv"):
            raise TwirlError(f"format must be json or csv, not {fmt!r}")
        path_out = out.get("path")
        if path_out and os.environ.get("TWIRL_OUTPUT_DIR"):
            path_out = os.path.join(os.environ["TWIRL_OUTPUT_DIR"],
                                    os.path.basename(path_out))
        return RunConfig(ctx, trunc, fmt, path_out)


def _read_ini(text: str) -> dict:
    """The sections of INI `text` as {section: {key: value}}, read by the
    grammar of the module docstring; a line it refuses is a TwirlError
    that names the line."""
    sections, cur = {}, None
    for n, line in enumerate(text.split("\n"), 1):
        body = line.strip()
        if not body or body[0] in "#;":
            continue
        try:
            if body != line.rstrip():
                raise ValueError(f"indented line {body!r}")
            if body[0] == "[" and body[-1] == "]" and len(body) > 2:
                if body[1:-1] in sections:
                    raise ValueError(f"repeated section {body}")
                cur = sections[body[1:-1]] = {}
                continue
            cut = next((i for i, c in enumerate(body) if c in "=:"), 0)
            key = body[:cut].strip().lower()
            if not key:
                raise ValueError(f"no key = value in {body!r}")
            if cur is None:
                raise ValueError(f"key {key!r} before any section")
            if key in cur:
                raise ValueError(f"repeated key {key!r}")
        except ValueError as exc:
            raise TwirlError(f"cannot read config: line {n}: {exc}") from None
        cur[key] = body[cut + 1:].strip()
    return sections


def _int(text: str, key: str) -> int:
    """The config value `text` of `key` as an int, or a config error."""
    try:
        return int(text)
    except ValueError:
        raise TwirlError(f"{key} = {text!r} is not an integer") from None


def _json_dump(obj) -> str:
    """The bytes of `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`,
    written in one recursive pass (`_json_write`): `json.dumps` never
    takes its C encoder when `indent` is set, and its Python encoder
    makes several calls per value."""
    out: list = []
    _json_write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _json_write(obj, out: list, nl: str) -> None:
    """Append the JSON text of `obj` to `out` as `json.dumps` with
    indent=2 and sort_keys=True writes it, `nl` being the newline and
    indentation of `obj`'s own line.  A str goes through
    `encode_basestring_ascii`, an int through `int.__repr__`, a finite
    float through `float.__repr__`, and True, False and None as true,
    false and null; lists and tuples are arrays, and dicts are objects
    with their keys sorted.  A key that is not a str, and a value of any
    other type, raise TypeError, and a NaN or infinite float (which no
    report holds) ValueError.  The str items of a container, most of a
    report's values, are written in place, so the pass makes one call per
    container and per other scalar."""
    if isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = nl + "  "
        if isinstance(obj, dict):
            keys = sorted(obj)
            # encode_basestring_ascii refuses a key that is not a str
            items = zip(map(_encode_str, keys), map(obj.__getitem__, keys))
            sep, colon, end = "{" + inner, ": ", nl + "}"
        else:
            items = zip(repeat(""), obj)
            sep, colon, end = "[" + inner, "", nl + "]"
        for key, v in items:
            if isinstance(v, str):
                out.append(sep + key + colon + _encode_str(v))
            else:
                out.append(sep + key + colon)
                _json_write(v, out, inner)
            sep = "," + inner
        out.append(end)
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the float {obj!r} as JSON")
        out.append(float.__repr__(obj))
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _coeff_csv(ks, values) -> str:
    """One CSV row per k of the CharacterValue table `values`: its
    cyclotomic coordinates, as `to_json` prints them, and a zero q
    half-power."""
    p = values[ks[0]].p
    rows = [["k"] + [f"coord{i}" for i in range(p - 1)] + ["q_half_power"]]
    rows += [[str(k)] + values[k].to_json() + ["0"] for k in ks]
    return "".join(",".join(row) + "\n" for row in rows)


def _run_at_alpha(cmd, cfg: RunConfig, alpha_text: str) -> str:
    """`cmd(cfg, alpha, alpha_text)` on the parsed `--alpha`.  The library
    raises only the reason, so every error of the parse or the run gets
    `alpha = <text>` in front here, and its line names the alpha once."""
    try:
        return cmd(cfg, parse_elem(cfg.ctx, alpha_text), alpha_text)
    except TwirlError as exc:
        raise TwirlError(f"alpha = {alpha_text}: {exc}") from exc


def cmd_dtwist(cfg: RunConfig, alpha, alpha_text: str) -> str:
    # x0 + x1 = -1 for every gamma != 1, so a report of kernel dim 3 is a
    # digit the precision could not decide, and it raises
    out = discriminant_report(alpha).to_json()
    out["alpha"] = alpha_text
    return _json_dump(out)


def cmd_support_scan(cfg: RunConfig, alpha, _alpha_text: str) -> str:
    return _json_dump(support_scan(CuspidalData(cfg.ctx), alpha))


def cmd_psik(cfg: RunConfig, alpha, _alpha_text: str) -> str:
    ks = range(0, cfg.trunc.k_max + 1)
    table = orbit_weight_integral(CuspidalData(cfg.ctx), alpha, ks)
    return _coeff_csv(ks, table)


def cmd_coeffs(cfg: RunConfig) -> str:
    table = assemble_coefficients(CuspidalData(cfg.ctx), cfg.trunc)
    if cfg.out_format == "csv":
        return _coeff_csv(table.ks, table.values)
    return _json_dump(table.to_json())


def cmd_residue(cfg: RunConfig) -> str:
    data = CuspidalData(cfg.ctx)
    table = assemble_coefficients(data, cfg.trunc)
    out = residue_report(table.a, table.b, table.ks, n=2, q=cfg.ctx.q)
    out["metadata"] = table.metadata
    if cfg.ctx.p == 2:
        a, b, incs = coefficient_A_B(data, cfg.trunc)
        out["weight_only_constants"] = {
            "A": str(a),
            "B": str(b),
            "per_e_increments": [[e, str(ai), str(bi)] for e, ai, bi in incs],
        }
    return _json_dump(out)


COMMANDS = {"dtwist": cmd_dtwist, "support-scan": cmd_support_scan,
            "psik": cmd_psik, "coeffs": cmd_coeffs, "residue": cmd_residue}
ALPHA_COMMANDS = frozenset({"dtwist", "support-scan", "psik"})
USAGE = ("usage: twirl {" + ",".join(COMMANDS)
         + "} --config FILE [--out FILE] [--alpha ALPHA]")


def read_argv(argv) -> dict:
    """The flags of subcommand argv[0]: --config, --out and (ALPHA_COMMANDS
    only) --alpha, each once as `--key=value` or `--key value`."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError("the first argument must be a subcommand")
    keys = ["--config", "--out", "--alpha"][:2 + (argv[0] in ALPHA_COMMANDS)]
    opts, rest = {}, iter(argv[1:])
    for token in rest:
        key, eq, value = token.partition("=")
        if key not in keys or key in opts:
            raise ValueError(f"unrecognized or repeated argument {token!r}")
        opts[key] = value if eq else next(rest, None)
        if opts[key] is None:
            raise ValueError(f"{key} expects a value")
    for key in ("--config", "--alpha"):
        if key in keys and key not in opts:
            raise ValueError(f"{argv[0]} requires {key}")
    return opts


def main(argv=None) -> int:
    # The interpreter, numpy and every twirl module are loaded by now and
    # live until exit.  Frozen, they leave the collector's generations, so
    # a gen-1 or gen-2 pass inside the run scans only the run's objects
    # (garbage cycles of the run are still collected), and whether one
    # falls inside the run no longer depends on how many containers the
    # imports allocated.  Unfrozen, one pass over the import heap costs
    # about as much as a whole odd-p run.
    gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        opts = read_argv(argv)
    except ValueError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig.load(opts["--config"])
        if cfg.out_format not in (None,) + FORMATS[argv[0]]:
            raise TwirlError(f"{argv[0]} writes "
                             f"{' or '.join(FORMATS[argv[0]])} only, "
                             f"not format = {cfg.out_format}")
        cmd = COMMANDS[argv[0]]
        text = (_run_at_alpha(cmd, cfg, opts["--alpha"])
                if argv[0] in ALPHA_COMMANDS else cmd(cfg))
    except TwirlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = opts.get("--out") or cfg.out_path
    try:
        if path:
            with open(path, "wb") as f:
                f.write(text.encode())
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
