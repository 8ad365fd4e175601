"""`src/twirl` is the code a run executes.

Syntactically, every public top-level function or class of `twirl` is
reached by the library itself (the pipeline or the CLI) or is a test
oracle of a fast path: a name counts as reached when some module of the
package other than `__init__` names it outside its own definition.  At
run time, every function of the package, private and nested ones too,
runs in some CLI run of `reach_profile.py`, or is in `KEPT` with its
reason."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import twirl

# oracle -> the fast path it checks
ORACLES = {
    "symplectic_form": "the paper's symplectic twist, under which the "
                       "tests hold f(k y k^vdash) = 1 at y = 1, the value a "
                       "symplectic K-average must reproduce",
    "orthogonal_form": "the split form J = w of the matrix twist "
                       "g -> J tg J^(-1), which the oracles apply by `vdash` "
                       "and hold the closed-form twists of `integrator`, "
                       "`twisted` and `support_scan` to",
    "n_b": "the Iwasawa factor n_b of the per-coset walk "
           "(`tests/coset_walk.py`), the oracle of `orbit_strata`",
    "a_e": "the Iwasawa factor a_i of the per-coset walk "
           "(`tests/coset_walk.py`), the oracle of `orbit_strata`",
}


def _modules():
    pkg = pathlib.Path(twirl.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in sorted(pkg.glob("*.py"))}


def _public_defs(trees):
    return {node.name: (mod, node.lineno, node.end_lineno)
            for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [a.name for a in node.names]
    return []


def test_every_public_name_is_reached_or_an_oracle():
    trees = _modules()
    defs = _public_defs(trees)
    reached = set()
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for node in ast.walk(tree):
            for name in _names(node):
                if name not in defs:
                    continue
                home, lo, hi = defs[name]
                if home == mod and lo <= node.lineno <= hi:
                    continue
                reached.add(name)
    assert set(ORACLES) <= set(defs)
    unreached = sorted(f"{defs[n][0]}.{n}" for n in set(defs) - reached
                       - set(ORACLES))
    assert unreached == []


# The functions of `src/twirl` that no run of `reach_profile` calls, each
# with why it stays.  (a) perfbench reads it; (b) a method of a value type
# that the tests, oracles or demos call; (c) the paper's symplectic case;
# (d) read by the per-stratum tables the p = 2 closed form will print;
# (e) a guard against a misuse that no run makes; (f) the paper's
# pointwise test function f = psi 1_C, which `support_scan` and the
# K-average pass state in closed form.
_PERFBENCH = "(a) perfbench/job.py probes it"
_TRACER = "(a) a lookup point of perfbench/spans.py"
_VALUE = "(b) the tests, oracles or demos call it"
_REPR = "(b) pytest prints it in the report of a failing assertion"
_POINTWISE = ("(f) the paper's pointwise test function, the reference of "
              "the pass and the witness, and demo 04's vocabulary")
KEPT = {
    "localfield.LocalFieldCtx.random_elem": _PERFBENCH,
    "localfield.LocalFieldCtx.random_unit": _PERFBENCH,
    "ringvec.ResidueRing.mul": _PERFBENCH,
    "twisted.norm_preimage": _TRACER,
    "matlattice.vdash": _TRACER,
    "cyclotomic.CharacterValue.__init__": _VALUE,
    "cyclotomic.CharacterValue.__hash__": _VALUE,
    "cyclotomic.CharacterValue.__mul__": _VALUE,
    "cyclotomic.CharacterValue.__repr__": _REPR,
    "cyclotomic.CharacterValue.coords": _VALUE,
    "cyclotomic.CharacterValue.one": _VALUE,
    "cyclotomic.CharacterValue.rational_part": _VALUE,
    "localfield.Elem.__hash__": _VALUE,
    "localfield.Elem.__init__": _VALUE,
    "localfield.Elem.__pow__": _VALUE,
    "localfield.Elem.__repr__": _REPR,
    "localfield.Elem.__str__": _VALUE,
    "localfield.LocalFieldCtx.__eq__": _VALUE,
    "localfield.LocalFieldCtx.__hash__": _VALUE,
    "localfield.LocalFieldCtx.__repr__": _VALUE,
    "localfield.LocalFieldCtx.__setattr__": "(e) a field context refuses "
                                            "assignment",
    "localfield.LocalFieldCtx.from_rational": _VALUE,
    "matlattice.Mat.__add__": _VALUE,
    "matlattice.Mat.__eq__": _VALUE,
    "matlattice.Mat.__init__": _VALUE,
    "matlattice.Mat.__mul__": _VALUE,
    "matlattice.Mat.__neg__": _VALUE,
    "matlattice.Mat.__repr__": _VALUE,
    "matlattice.Mat.__sub__": _VALUE,
    "matlattice.Mat._gauss": "(b) det at n != 2, and the symplectic vdash "
                             "through Mat.inverse",
    "matlattice.Mat.column": _VALUE,
    "matlattice.Mat.det": _VALUE,
    "matlattice.Mat.diag": _VALUE,
    "matlattice.Mat.from_ints": _VALUE,
    "matlattice.Mat.identity": _VALUE,
    "matlattice.Mat.inverse": "(b) the symplectic vdash, and the tests' "
                              "S(gamma)^(-1)",
    "matlattice.Mat.scale": _VALUE,
    "matlattice.Mat.shift": _VALUE,
    "matlattice.Mat.to_digit_lists": _VALUE,
    "matlattice.Mat.transpose": _VALUE,
    "matlattice.Mat.zero": _VALUE,
    "matlattice.GroupForm.__init__": "(b) the oracles' forms, orthogonal "
                                     "and symplectic",
    "matlattice.a_e": _VALUE,
    "matlattice.antidiag_w": "(b) the block of the oracles' orthogonal form",
    "matlattice.n_b": _VALUE,
    "matlattice.orthogonal_form": _VALUE,
    "matlattice.antidiag_u": "(c) the symplectic form",
    "matlattice.symplectic_form": "(c) the tests' symplectic twist",
    "localfield.additive_char": _POINTWISE,
    "supercuspidal.CuspidalData.f": _POINTWISE,
    "supercuspidal.CuspidalData.psi": _POINTWISE,
    "supercuspidal.level_character": _POINTWISE,
    "supercuspidal.member": _POINTWISE,
    "supercuspidal.pi_e_inverse_power": _POINTWISE,
    "integrator.CoefficientTable.per_stratum": "(d)",
    "integrator.CoefficientTable.per_e_increments": "(d)",
}


def test_the_chain_takes_no_form():
    """The split orthogonal twist of GL_2 is a fact of the chain, not an
    argument: no function of `cli`, `integrator`, `supercuspidal` or
    `twisted` has a parameter named `form`, and no module but
    `matlattice`, whose `vdash` and `GroupForm` are the form's home,
    reads a `.kind` or `.split` attribute (a call such as `str.split`
    is not a read of the form)."""
    trees = _modules()
    assert _taking(trees, "form", ("cli", "integrator", "supercuspidal",
                                   "twisted")) == []
    reads = []
    for mod, tree in trees.items():
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        reads += [f"{mod}:{node.lineno}" for node in ast.walk(tree)
                  if mod != "matlattice" and isinstance(node, ast.Attribute)
                  and node.attr in ("kind", "split") and id(node) not in called]
    assert reads == []


def _taking(trees, name, modules) -> list:
    """`module:line` of each function or lambda of `modules` that has a
    parameter `name`."""
    return sorted(f"{mod}:{node.lineno}" for mod in modules
                  for node in ast.walk(trees[mod])
                  if isinstance(node, (ast.FunctionDef, ast.Lambda))
                  and name in [a.arg for a in node.args.args
                               + node.args.kwonlyargs])


def test_the_chain_takes_no_label():
    """An error names its place once, where the place is known: the
    library raises the reason, and `cli._run_at_alpha` and the strata
    loops of `integrator` add the place.  So no function of
    `integrator`, `supercuspidal` or `twisted` takes a `label` to put in
    its messages; the one such parameter is `TorusStratum.__init__`'s,
    the stratum's own name, which `assemble_coefficients` reads."""
    trees = _modules()
    [init] = [node for cls in trees["integrator"].body
              if isinstance(cls, ast.ClassDef) and cls.name == "TorusStratum"
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    assert _taking(trees, "label", ("integrator", "supercuspidal",
                                    "twisted")) == [f"integrator:{init.lineno}"]


def test_every_src_function_runs_or_is_kept():
    """Every function of `src/twirl` runs in some CLI run of
    `tests/reach_profile.py`, or is in `KEPT` with its reason: a function
    only the tests call lives in `tests/`, and a kept one that starts to
    run, or stops being kept, fails here.  No run enters `matlattice` or
    the pointwise f: the chain passes a diagonal x as its two entries,
    the K-average pass reads digit tuples, and `support_scan`'s witness
    is proved, so matrices and the paper's f serve the tests, the oracles
    and the demos alone."""
    from reach_profile import _package, definitions, never_called

    never = never_called()
    assert sorted(never) == sorted(KEPT)
    pointwise = {"localfield.additive_char", "supercuspidal.member",
                 "supercuspidal.level_character",
                 "supercuspidal.pi_e_inverse_power",
                 "supercuspidal.CuspidalData.psi",
                 "supercuspidal.CuspidalData.f"}
    names = {name for name, _lines in definitions(_package()).values()}
    assert pointwise <= names
    wanted = pointwise | {n for n in names if n.startswith("matlattice.")}
    assert sorted(wanted - set(never)) == []


PROBE = """\
def f():
    return 1


class C:
    @property
    def g(self):
        def h():
            return [x for x in ()]
        return h

    @staticmethod
    def s():
        return 2
"""


def test_definitions_read_the_loaded_code(tmp_path, monkeypatch):
    """`definitions` keys a function by the code the interpreter loaded,
    as `never_called` does, not by its file on disk: a line prepended to
    a module after its import moves no first line and renames nothing,
    so an edit during a run cannot make a called function look uncalled.
    The comprehension is its function's, and the nested h is its own."""
    from reach_profile import definitions

    pkg = tmp_path / "reach_probe"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(PROBE)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("reach_probe", "reach_probe.mod"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module("reach_probe.mod")
    want = [(1, "mod.f", 2), (6, "mod.C.g", 5), (8, "mod.C.g.<locals>.h", 2),
            (12, "mod.C.s", 3)]

    def read():
        return sorted((first, name, lines) for (_file, first), (name, lines)
                      in definitions(pkg).items())

    assert read() == want
    (pkg / "mod.py").write_text("# a new first line\n" + PROBE)
    assert read() == want


def test_digests_print_one_record_per_run(tmp_path):
    """`python tests/reach_profile.py --digests` prints one JSON record
    per CLI run of `_sweep_runs`, which holds every run of `_runs`, then
    one per demo, and a second call, in process, gives the same lines."""
    from reach_profile import DEMOS, _runs, _sweep_runs, digests

    script = pathlib.Path(__file__).with_name("reach_profile.py")
    first = subprocess.run([sys.executable, str(script), "--digests"],
                           check=True, capture_output=True, text=True,
                           timeout=300).stdout.splitlines()
    second = [json.dumps(r, sort_keys=True) for r in digests()]
    assert first == second
    runs = _sweep_runs(tmp_path)
    assert len(runs) == 828
    assert all(argv in runs for argv in _runs(tmp_path))
    assert ([json.loads(line)["argv"][0] for line in first]
            == [argv[0] for argv in runs] + ["demo"] * len(DEMOS))


GOLDEN = pathlib.Path(__file__).with_name("golden") / "digests.jsonl"


def test_digests_match_the_golden_file():
    """The sweep of `reach_profile.digests` prints the lines of
    `tests/golden/digests.jsonl`: every CLI run's exit code, stderr and
    output sha-256, and each demo's stdout hash.  A change that alters
    any of them regenerates the file (`python tests/reach_profile.py
    --digests > tests/golden/digests.jsonl`), so its diff names every
    changed run.  A mismatch lists every changed argv with each field
    that differs, not only the first.  The file is this platform's: the
    `residue` reports print floats, so a nonzero residue's bytes carry
    the last bits of the platform's libm."""
    from reach_profile import digests

    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    got = digests()
    changed = [f"{' '.join(w['argv'])}: " + ", ".join(
                   f"{k} {w[k]!r} -> {g[k]!r}" for k in sorted(w)
                   if w[k] != g.get(k))
               for w, g in zip(want, got) if w != g]
    changed += [f"missing: {' '.join(w['argv'])}" for w in want[len(got):]]
    changed += [f"extra: {' '.join(g['argv'])}" for g in got[len(want):]]
    assert not changed, "\n".join(changed)


def test_package_init_imports_nothing():
    """Each name has one import path, its module: `twirl/__init__.py`
    re-exports nothing."""
    tree = _modules()["__init__"]
    assert not [n for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_localfield_loads_without_numpy():
    """`import twirl.localfield` loads the field and its errors only, not
    numpy or the rest of the chain."""
    code = ("import sys, twirl.localfield; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'twirl')))")
    src = str(pathlib.Path(twirl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == str(["twirl", "twirl.errors", "twirl.localfield"])


def test_cold_cli_import_loads_nothing_outside_twirl():
    """In a fresh interpreter that has loaded what a benchmark job loads
    first (its own `from __future__` line, numpy and json), `import
    twirl.cli` adds no module outside `twirl` but the built-in `gc`: no
    `fractions` (with `decimal`), no `dataclasses`.  And no class of
    `twirl` is built by generated code: none is a dataclass, whose
    decorator compiles generated methods at import, and none subclasses
    `tuple`, as a `NamedTuple` does, whose class is built the same way."""
    code = ("from __future__ import annotations\n"
            "import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import twirl.cli\n"
            "added = sorted(set(sys.modules) - before)\n"
            "classes = [f'{m}.{k}' for m in added if m.startswith('twirl')\n"
            "           for k, v in vars(sys.modules[m]).items()\n"
            "           if isinstance(v, type)\n"
            "           and (hasattr(v, '__dataclass_fields__')\n"
            "                or issubclass(v, tuple))]\n"
            "print(json.dumps([added, classes]))\n")
    src = str(pathlib.Path(twirl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    added, classes = json.loads(out)
    assert [m for m in added if m.split(".")[0] != "twirl"] == ["gc"]
    assert "twirl.cli" in added
    assert classes == []


def test_no_module_level_cache():
    """No module of `twirl` binds a module-level name to an empty dict,
    list or set, the shape of a cache that outlives a run: per-field
    tables live on the field context (`LocalFieldCtx._memo`)."""
    def empty(node):
        if isinstance(node, (ast.Dict, ast.List, ast.Set)):
            return not (getattr(node, "keys", None)
                        or getattr(node, "elts", None))
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "list", "set")
                and not (node.args or node.keywords))

    found = [f"{mod}:{node.lineno}" for mod, tree in _modules().items()
             for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value is not None and empty(node.value)]
    assert found == []


def test_supercuspidal_imports_no_numpy():
    """The test function and its K-average pass run on plain ints: numpy
    enters a run only through `ringvec`, for the GL_2(F_p) table."""
    from twirl import supercuspidal

    tree = ast.parse(pathlib.Path(supercuspidal.__file__).read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names}
    modules |= {n.module for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)}
    assert not any(m and m.split(".")[0] == "numpy" for m in modules)
