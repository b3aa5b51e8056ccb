import importlib.util
import subprocess
import sys
from pathlib import Path

import zerogap

# import zerogap in a fresh interpreter and list the scipy.signal modules it
# loaded; scipy.signal pulls in scipy.stats and scipy.interpolate, about a
# second of import time that the package does not need
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import zerogap; "
    "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
)


def test_import_does_not_load_scipy_signal():
    src = str(Path(zerogap.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", PROBE, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_tracer_patch_points_resolve(monkeypatch):
    # the traced benchmark run replaces these bindings; a rename that leaves
    # one unbound would break it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.PATCH_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}")
