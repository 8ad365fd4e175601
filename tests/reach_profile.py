"""The functions of `src/twirl` that a run never calls.

A run is every CLI subcommand, called in process through `cli.main`, on
the three benchmark configs of `perfbench/workloads.py` (read with
`runpy`, so nothing is written under `perfbench/`): `coeffs` as JSON and
as CSV, `residue`, and `psik`, `dtwist` and `support-scan` at each alpha
of `ALPHAS` and of the psik workload's seeds, error cases included.
`sys.setprofile` records every function of the package that is entered.
Each run's tables live on the field context that the run builds, so the
answer does not depend on what ran before in the process.

    python tests/reach_profile.py

prints each function that no run calls, with its module and line count.
`tests/test_reach.py` imports `never_called` and checks the list.

    python tests/reach_profile.py --lines

prints instead, for each function that some run enters, the lines of its
body that no run executes (`never_executed`, by `sys.settrace`).

    python tests/reach_profile.py --digests

prints instead one JSON line per run of the byte check (`digests`): its
argv with the temporary directory as `<tmp>`, its exit code, the sha-256
of its output file (null when it wrote none) and its stderr text.  The
byte check is wider than the reach runs: every config of `_sweep_configs`
(the bench configs and further fields, among them configs the CLI
refuses) at every alpha of `_alphas` and `SWEEP_ALPHAS`, then one record
per demo, with the sha-256 of its stdout.  Two trees that print the same
lines give the same answer on every run."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import random
import runpy
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))[
    "WORKLOADS"]
# u reaches the square classes at p = 2; -1 is not regular (psik refuses
# it); 0, 3/0 and 1 + pi^40 (1 through every bench precision) are errors
ALPHAS = ("u", "1+pi*u", "1/3", "pi^-1", "-1", "0", "3/0", "1+pi^40")
SEEDS = range(1, 6)
# further alphas of the byte check: 1 is not regular; at p = 5, precision
# 18, alpha - 1 at 1 + pi^24 and alpha + 1 at -1 + pi^25 (read by psik
# only) lead inside the guard levels, and pi^30 is beyond the kept digits
SWEEP_ALPHAS = ("1", "2", "pi^2", "1+pi", "-1+pi", "1+pi^3*u", "-1+pi^2*u",
                "1+pi^24", "-1+pi^25", "1+pi^30")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = {name: w.config for name, w in sorted(WORKLOADS.items())}


def _alphas() -> list:
    psik = WORKLOADS["odd-p7-psik"]
    seeded = [psik.job_args(random.Random(s))[1].removeprefix("--alpha=")
              for s in SEEDS]
    return list(dict.fromkeys(seeded)) + list(ALPHAS)


def _variant(config: str, **values) -> str:
    """The INI text `config` with the line of each key set to its value."""
    lines = config.splitlines()
    for key, value in values.items():
        [n] = [n for n, line in enumerate(lines)
               if line.startswith(f"{key} = ")]
        lines[n] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _sweep_configs() -> dict:
    """{name: INI text} of the byte check: the bench configs, six more
    uniformizers and fields (p = 11 among them, where GL_2(F_p) has
    13,200 rows), and three configs the CLI refuses (a precision below
    the rule, p = 2 with e = 1, and a regime that is not p's)."""
    even, odd = CONFIGS["even-p2-residue"], CONFIGS["odd-p5-residue"]
    return CONFIGS | {
        "x2+2": _variant(even, eisenstein="2,0,1"),
        "x2+2x-2": _variant(even, eisenstein="-2,2,1"),
        "x3-2": _variant(even, e=3, eisenstein="-2,0,0,1"),
        "x-3": _variant(odd, p=3, eisenstein="-3,1"),
        "x2-3": _variant(odd, p=3, e=2, eisenstein="-3,0,1"),
        "x-11": _variant(odd, p=11, eisenstein="-11,1"),
        "p5-precision-15": _variant(odd, precision=15),
        "p2-e1": _variant(even, e=1, eisenstein="-2,1"),
        "p5-regime-even": _variant(odd, regime="even"),
    }


def _runs(tmp: pathlib.Path, configs: dict = CONFIGS,
          alphas: list | None = None) -> list:
    """The argv of every run, each with its --config and --out: by
    default on the bench configs at the alphas of `_alphas`."""
    out = str(tmp / "run.out")
    if alphas is None:
        alphas = _alphas()
    runs = []
    for name, config in configs.items():
        cfg, csv = tmp / f"{name}.ini", tmp / f"{name}-csv.ini"
        cfg.write_text(config)
        csv.write_text(config + "\n[output]\nformat = csv\n")
        for command, path in (("coeffs", cfg), ("coeffs", csv),
                              ("residue", cfg)):
            runs.append([command, "--config", str(path), "--out", out])
        for alpha in alphas:
            for command in ("psik", "dtwist", "support-scan"):
                path = csv if command == "psik" else cfg
                runs.append([command, "--config", str(path), "--out", out,
                             f"--alpha={alpha}"])
    return runs


def definitions(pkg: pathlib.Path) -> dict:
    """{(file, first line): (module.qualname, lines)} of every function,
    method and nested function of the package in directory `pkg`, read
    off the code objects the interpreter loaded, so that the keys are
    those a profiler sees even when a file changes on disk after its
    import.  Each module of the package is imported, and its functions
    and the methods of its classes (a property's getter, setter and
    deleter, and the function of a static or class method, included) are
    walked with the code objects nested in them whose name does not start
    with `<` (a comprehension, lambda or generator expression belongs to
    its function).  The first line is that of the first decorator, and
    `lines` runs from there to the last line of the body."""
    out = {}

    def add(code, module):
        if code.co_name.startswith("<"):
            return
        out[(code.co_filename, code.co_firstlineno)] = (
            f"{module}.{code.co_qualname}",
            _last_line(code) - code.co_firstlineno + 1)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, module)

    def walk(namespace, module, home):
        for value in vars(namespace).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, property):
                for fn in (value.fget, value.fset, value.fdel):
                    if isinstance(fn, types.FunctionType):
                        add(fn.__code__, module)
            elif isinstance(value, types.FunctionType):
                if value.__module__ == home:
                    add(value.__code__, module)
            elif isinstance(value, type) and value.__module__ == home:
                walk(value, module, home)

    for path in sorted(pkg.glob("*.py")):
        name = pkg.name if path.stem == "__init__" else \
            f"{pkg.name}.{path.stem}"
        walk(importlib.import_module(name), path.stem, name)
    return out


def _last_line(code) -> int:
    """The last source line of `code` and of the code nested in it."""
    return max([code.co_firstlineno]
               + [end for _s, end, _c, _e in code.co_positions()
                  if end is not None]
               + [_last_line(const) for const in code.co_consts
                  if isinstance(const, types.CodeType)])


def _package() -> pathlib.Path:
    """The directory of the `twirl` package that the runs import."""
    from twirl import cli

    return pathlib.Path(cli.__file__).resolve().parent


def _run_all(install, hook) -> None:
    """Every run of `_runs`, in process, with `hook` installed by
    `install` (`sys.setprofile` or `sys.settrace`)."""
    from twirl import cli

    with tempfile.TemporaryDirectory() as tmp:
        runs = _runs(pathlib.Path(tmp))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            install(hook)
            try:
                for argv in runs:
                    cli.main(argv)
            finally:
                install(None)


def never_called() -> dict:
    """{module.qualname: lines} of the `twirl` functions that no run of
    `_runs` enters."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    _run_all(sys.setprofile, profile)
    defs = definitions(_package())
    return {name: lines for key, (name, lines) in defs.items()
            if key not in called}


def _sweep_runs(tmp: pathlib.Path) -> list:
    """The argv of every CLI run of `digests`."""
    return _runs(tmp, _sweep_configs(), _alphas() + list(SWEEP_ALPHAS))


def digests() -> list:
    """One record per run of `_sweep_runs`, in order, then one per demo:
    {"argv", "exit", "sha256", "stderr"}, the argv with the temporary
    directory as `<tmp>`.  Each run starts with no output file, so a run
    that fails has sha256 None.  A demo's argv is ["demo", its file
    name], its sha256 that of its stdout, and its exit 1 with the
    exception in stderr when it raises."""
    from twirl import cli

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _sweep_runs(pathlib.Path(tmp)):
            out = pathlib.Path(argv[argv.index("--out") + 1])
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            records.append({
                "argv": [a.replace(tmp, "<tmp>") for a in argv],
                "exit": code,
                "sha256": (hashlib.sha256(out.read_bytes()).hexdigest()
                           if out.exists() else None),
                "stderr": err.getvalue()})
    for demo in DEMOS:
        out, err, code = io.StringIO(), io.StringIO(), 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                runpy.run_path(str(demo), run_name="__main__")
            except Exception as exc:
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        records.append({
            "argv": ["demo", demo.name], "exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()})
    return records


def _body_lines(code) -> set:
    """The source lines of `code` that carry bytecode, with those of the
    comprehensions and lambdas it holds; nested functions are their own."""
    lines = {line for _s, _e, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines") and const.co_name.startswith("<"):
            lines |= _body_lines(const)
    return lines


def never_executed() -> dict:
    """{module.qualname: sorted lines} of the `twirl` functions that some
    run of `_runs` enters, each with the lines of its body (`_body_lines`)
    that no run executes; a function whose every line runs is left out."""
    pkg = _package()
    entered, ran = {}, set()

    def line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, _arg):
        code = frame.f_code
        if not code.co_filename.startswith(str(pkg)):
            return None
        entered[(code.co_filename, code.co_firstlineno)] = code
        return line

    _run_all(sys.settrace, call)
    defs = definitions(pkg)
    out = {}
    for key, code in entered.items():
        if key not in defs:     # a comprehension or lambda frame
            continue
        missed = sorted(n for n in _body_lines(code) - {key[1]}
                        if (key[0], n) not in ran)
        if missed:
            out[defs[key][0]] = missed
    return out


def _spans(lines: list) -> str:
    """Sorted line numbers as runs, '12, 15-17'."""
    runs = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] == ["--digests"]:
        for record in digests():
            print(json.dumps(record, sort_keys=True))
        sys.exit(0)
    if sys.argv[1:] == ["--lines"]:
        unrun = never_executed()
        for name, lines in sorted(unrun.items()):
            print(f"{name}: {_spans(lines)}")
        print(f"{len(unrun)} entered functions, "
              f"{sum(map(len, unrun.values()))} lines never executed")
        sys.exit(0)
    missed = never_called()
    width = max(map(len, missed), default=0)
    for name, lines in sorted(missed.items()):
        print(f"{name:<{width}}  {lines:>4}")
    print(f"{len(missed)} functions, {sum(missed.values())} lines never "
          "called")
