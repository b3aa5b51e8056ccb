import ast
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import zerogap
from zerogap import certification, explicit_formula, region_scan

# import zerogap in a fresh interpreter and list the scipy modules it loaded:
# none are needed.  The special functions are the package's own series and
# the lattice's sums numpy's; scipy.special and scipy.fft alone took about
# 0.35 s of import time and 25 MB
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import zerogap; "
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def test_import_loads_no_unneeded_scipy_subpackage():
    src = str(Path(zerogap.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", PROBE, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert ast.literal_eval(done.stdout.strip()) == []


# the three workloads' entry points in an interpreter where `import scipy`
# fails; each output line is the repr of a result, floats in full, and must
# match the same call here
NO_SCIPY_CALLS = (
    "certification.certify_gap(4, L, re_max=3.0, im_max=10.0, step=0.5).to_dict()",
    "[r._asdict() for r in region_scan.scan_region(2.0, 2.0)]",
    "[explicit_formula.verify(data, extremal.selberg_minorant(-H, H, d)).to_dict() "
    "for d in (explicit_formula.PRIME_FREE_RADIUS, math.log(7.9) / (2 * math.pi))]",
)
NO_SCIPY_SETUP = (
    "import math; "
    "from zerogap import certification, explicit_formula, extremal, lfunctions, region_scan; "
    "L = 10 * math.pi / math.log(2); H = 2.5 / explicit_formula.PRIME_FREE_RADIUS; "
    "data = lfunctions.load_lfunction(lfunctions.bundled_example_path())"
)
NO_SCIPY_PROBE = (
    "import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
    + NO_SCIPY_SETUP + "; [print(repr(eval(code))) for code in sys.argv[2:]]"
)


def test_workloads_run_without_scipy():
    src = str(Path(zerogap.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, src, *NO_SCIPY_CALLS],
                          capture_output=True, text=True, timeout=300, check=True)
    scope = {}
    exec(NO_SCIPY_SETUP, scope)
    assert done.stdout.splitlines() == [repr(eval(code, scope)) for code in NO_SCIPY_CALLS]


def _load_tracer(monkeypatch):
    # the benchmark's tracer, loaded by path and only read
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_patch_points_resolve(monkeypatch):
    # the traced benchmark run replaces these bindings; a rename that leaves
    # one unbound would break it, and one that rebinds it to another
    # function would time that function under the old span name
    tracer = _load_tracer(monkeypatch)
    for module_name, attr, span_name in tracer.PATCH_POINTS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"
        assert f"{fn.__module__}.{fn.__name__}" == f"zerogap.{span_name}", (
            f"{module_name}.{attr}")


def test_scan_makes_one_ell_call_per_kernel(monkeypatch):
    # the benchmark's scan operation: both kernels and every nu go through
    # one ell call over the kernel tuple (fejer, windowed_fejer), whose
    # closed form takes one polygamma jet, orders 0-3, at the grid's 9 nu
    tr = _load_tracer(monkeypatch).Tracer()
    with tr.patched(), tr.operation():
        region_scan.scan_region(16.0, 2.0)
    layers = tr.summary(1)
    assert sum(row["calls"] for name, row in layers.items()
               if name.startswith("explicit_formula.ell")) == 1
    assert layers["region_scan.scan_region"]["calls"] == 1

    kernels, psi_calls = [], []
    ell, polygamma = region_scan.ell, explicit_formula._polygamma
    monkeypatch.setattr(region_scan, "ell",
                        lambda mu, f, *args: kernels.append(f) or ell(mu, f, *args))
    monkeypatch.setattr(explicit_formula, "_polygamma",
                        lambda m, z: psi_calls.append((m, np.size(z))) or polygamma(m, z))
    region_scan.scan_region(16.0, 2.0)
    assert [[g.label.split("@")[0] for g in f] for f in kernels] == [["fejer", "windowed_fejer"]]
    assert psi_calls == [((0, 1, 2, 3), 9)]


def test_tracer_counts_the_certify_columns(monkeypatch):
    # the benchmark's certify operation: one ell_grid span, whose items, the
    # tracer's len(re_values) * len(im_values), are the columns evaluated
    tr = _load_tracer(monkeypatch).Tracer()
    with tr.patched(), tr.operation():
        cert = certification.certify_gap(4, 10.0 * math.pi / math.log(2.0))
    spans = [s for s in tr.spans if s.name == "explicit_formula.ell_grid"]
    assert [s.items for s in spans] == [cert.search.columns_evaluated] == [66]


def test_ell_grid_is_private_to_the_certification_search():
    # the lattice is not exported; the one binding the search calls, and the
    # tracer wraps, is explicit_formula's function itself
    assert not hasattr(zerogap, "ell_grid")
    assert "ell_grid" not in zerogap.__all__
    assert "ell_grid" not in explicit_formula.__all__
    assert certification.ell_grid is explicit_formula.ell_grid


def test_benchmark_output_checks_pass():
    # the benchmark's own checks (pinned margin, scan counts, classify_point
    # against the scan, consistency) on the fixed and the first seeded input
    # of every workload, so that tier-1 sees what would fail a benchmark run;
    # its files are loaded by path and only read
    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    refs = json.loads((root / "references.json").read_text(encoding="utf-8"))
    for name, kind in workloads.WORKLOADS.items():
        w = kind()
        for x, fixed in ((w.fixed, True), (next(iter(w.inputs(1))), False)):
            assert w.check(x, w.run(x), fixed, refs).problems == [], (name, x)


# the same calls in either order; each output line is a call's name and the
# repr of its result, floats in full
CALLS = {
    "ell": "explicit_formula.ell(np.array([0.0, 2j, 3.5 - 7j]), f).tolist()",
    "floor": "explicit_formula.ell_column_floor(f).floor("
             "np.array([0.0, 20j, 200j, 3.0, 3.0 + 20j, 3.0 + 200j])).tolist()",
    "certify": "certification.certify_gap(4, L, re_max=3.0, im_max=10.0, step=0.5)",
    "scan": "region_scan.scan_region(4.0, 1.0)",
    "verify": "explicit_formula.verify(lfunctions.load_lfunction("
              "lfunctions.bundled_example_path()), f)",
}
ORDER_PROBE = (
    "import math, sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
    "from zerogap import certification, explicit_formula, extremal, lfunctions, region_scan; "
    "L = 10 * math.pi / math.log(2); "
    "f = extremal.selberg_minorant(-L / 2, L / 2, explicit_formula.PRIME_FREE_RADIUS); "
    "calls = dict(arg.split('=', 1) for arg in sys.argv[2:]); "
    "[print(name, repr(eval(code))) for name, code in calls.items()]"
)


def test_results_do_not_depend_on_call_order():
    src = str(Path(zerogap.__file__).resolve().parents[1])
    outputs = []
    for names in (list(CALLS), list(reversed(CALLS))):
        done = subprocess.run(
            [sys.executable, "-c", ORDER_PROBE, src, *(f"{n}={CALLS[n]}" for n in names)],
            capture_output=True, text=True, timeout=300, check=True)
        outputs.append(sorted(done.stdout.splitlines()))
    assert len(outputs[0]) == len(CALLS)
    assert outputs[0] == outputs[1]


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a name listed in __all__ is re-exported, which counts as a read
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # no linter is a dependency; this keeps imported-but-unread names out
    root = Path(__file__).resolve().parents[1]
    unused = [f"{path.relative_to(root)}:{entry}" for folder in ("src", "tests")
              for path in sorted((root / folder).rglob("*.py"))
              for entry in _unused_imports(path)]
    assert unused == []


def _module_definitions(tree):
    # functions, classes and constants bound at module level, dunders aside
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("__")}


def _names_read(tree):
    # a load of the name, an attribute of that name, or an import of it;
    # the strings of __all__ are not reads
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unreferenced_definitions():
    # every module-level function, class and constant of the package is used
    # somewhere in it; exporting a name in its own module's __all__ is not use
    package = Path(zerogap.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    unread = [f"{path.name}:{name}" for path, tree in trees.items()
              for name in sorted(_module_definitions(tree) - read)]
    assert unread == []
