import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nullrec

MODULES = sorted(m.name for m in pkgutil.iter_modules(nullrec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # tooling such as a call tracer does getattr(module, name) over __all__,
    # so an entry left behind by a deletion must fail here first
    module = importlib.import_module(f"nullrec.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(nullrec))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert not [n for n in names if not hasattr(nullrec, n)]


_NUMPY_ONLY_RUN = """
import contextlib, io, json, sys
import nullrec
from nullrec.cli import main
from nullrec.harness import ExperimentConfig, run_experiment

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_loaded(),
          "import_concurrent": sorted(m for m in sys.modules if m.startswith("concurrent"))}
run_experiment(ExperimentConfig(kind="identity", theta1=0.1, theta2=(-0.3,),
                                horizons=(2,), replications=4))
loaded["identity"] = scipy_loaded()
run_experiment(ExperimentConfig(kind="tail", theta2=(0.0,), horizons=(20,), dt=1e-2,
                                replications=4, target_cycles=2, max_waves=1))
loaded["tail"] = scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["constants", "--sigma", "1", "--basis", "sinc", "--theta1", "0.1",
                 "--theta2", "-0.3", "--n", "100"])
assert code == 0
loaded["constants"] = scipy_loaded()
nullrec.mu_moment_matrix(nullrec.ModelSpec.from_names(1.0, "sinc"),
                         nullrec.ParamVector(0.0, (0.3,)), window=(-2.0, 2.0))
loaded["moments"] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_numpy_only_paths_never_load_scipy():
    # scipy costs a fresh process about 0.5 s of import; only quadrature may pay it
    env = dict(os.environ, PYTHONPATH=str(Path(nullrec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_RUN], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    for step in ("import", "identity", "tail", "constants"):
        assert loaded[step] == [], step
    # the worker pool's concurrent.futures is imported where a pool opens
    assert loaded["import_concurrent"] == []
    assert "scipy.special" in loaded["moments"]  # the control: a windowed moment matrix needs Si


def test_import_builds_no_compiled_step(tmp_path):
    # the compiled code is built and loaded at the first run of any kind,
    # never at import: a fresh import leaves the cache untouched
    env = dict(os.environ, PYTHONPATH=str(Path(nullrec.__file__).parents[1]),
               XDG_CACHE_HOME=str(tmp_path))
    code = ("import sys, nullrec; "
            "print(len(nullrec.simulate._c_steps), 'subprocess' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["0", "False"]
    assert list(tmp_path.iterdir()) == []
