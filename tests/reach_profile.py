"""The functions of `src/twirl` that a run never calls.

A run is every CLI subcommand, called in process through `cli.main`, on
the three benchmark configs of `perfbench/workloads.py` (read with
`runpy`, so nothing is written under `perfbench/`): `coeffs` as JSON and
as CSV, `residue`, and `psik`, `dtwist` and `support-scan` at each alpha
of `ALPHAS` and of the psik workload's seeds, error cases included.
`sys.setprofile` records every function of the package that is entered.
The module caches are emptied first, so the answer does not depend on
what ran before in the process.

    python tests/reach_profile.py

prints each function that no run calls, with its module and line count.
`tests/test_reach.py` imports `never_called` and checks the list."""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import random
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))[
    "WORKLOADS"]
# u reaches the square classes at p = 2; -1 is not regular (psik refuses
# it); 0, 3/0 and 1 + pi^40 (1 through every bench precision) are errors
ALPHAS = ("u", "1+pi*u", "1/3", "pi^-1", "-1", "0", "3/0", "1+pi^40")
SEEDS = range(1, 6)


def _alphas() -> list:
    psik = WORKLOADS["odd-p7-psik"]
    seeded = [psik.job_args(random.Random(s))[1].removeprefix("--alpha=")
              for s in SEEDS]
    return list(dict.fromkeys(seeded)) + list(ALPHAS)


def _runs(tmp: pathlib.Path) -> list:
    """The argv of every run, each with its --config and --out."""
    out = str(tmp / "run.out")
    runs = []
    for name, w in sorted(WORKLOADS.items()):
        cfg, csv = tmp / f"{name}.ini", tmp / f"{name}-csv.ini"
        cfg.write_text(w.config)
        csv.write_text(w.config + "\n[output]\nformat = csv\n")
        for command, path in (("coeffs", cfg), ("coeffs", csv),
                              ("residue", cfg)):
            runs.append([command, "--config", str(path), "--out", out])
        for alpha in _alphas():
            for command in ("psik", "dtwist", "support-scan"):
                path = csv if command == "psik" else cfg
                runs.append([command, "--config", str(path), "--out", out,
                             f"--alpha={alpha}"])
    return runs


def definitions(pkg: pathlib.Path) -> dict:
    """{(file, first line): (module.qualname, lines)} of every function,
    method and nested function defined in `pkg`; the first line is that
    of the first decorator, as in the function's code object."""
    out = {}

    def walk(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(path, first)] = (f"{module}.{name}",
                                      child.end_lineno - first + 1)
                walk(child, name + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path, module)

    for path in sorted(pkg.glob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path), path.stem)
    return out


def never_called() -> dict:
    """{module.qualname: lines} of the `twirl` functions that no run of
    `_runs` enters."""
    from twirl import cli, integrator, localfield

    pkg = pathlib.Path(cli.__file__).resolve().parent
    defs = definitions(pkg)
    integrator._y01_cache.clear()
    localfield._square_residue_cache.clear()
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        runs = _runs(pathlib.Path(tmp))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                for argv in runs:
                    cli.main(argv)
            finally:
                sys.setprofile(None)
    return {name: lines for key, (name, lines) in defs.items()
            if key not in called}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    missed = never_called()
    width = max(map(len, missed), default=0)
    for name, lines in sorted(missed.items()):
        print(f"{name:<{width}}  {lines:>4}")
    print(f"{len(missed)} functions, {sum(missed.values())} lines never "
          "called")
