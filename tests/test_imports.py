"""The package's public surface is the union of its modules' `__all__`.
scipy and the verify suite are loaded on first use only: importing the
package and the CLI subcommands that need only numpy load neither of them,
and no call starts a thread.  Each such case runs
in a fresh interpreter, since this test process has them loaded already."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
import threading

import numpy as np
import pytest

import itofrft
from itofrft import ito_hermite, kernels, quadrature, spectral, transforms
from itofrft.quadrature import bidisk_rule

MODULES = (ito_hermite, quadrature, kernels, transforms, spectral)


def exported():
    return {name for name, obj in vars(itofrft).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def test_exports_are_the_modules_all():
    assert exported() == {name for mod in MODULES for name in mod.__all__}


def test_verify_imports_public_names_only():
    # the checks reach the package as a user does, so no private helper can
    # creep back into them; scipy_special only hands out scipy's functions
    tree = ast.parse(inspect.getsource(importlib.import_module("itofrft.verify")))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert ("transforms", "frft_apply") in imports
    private = [(mod, name) for mod, name in imports if (mod, name) != ("specfun", "scipy_special")
               and name not in importlib.import_module("itofrft." + mod).__all__]
    assert private == []


def test_removed_names_stay_removed():
    # aliases of another function, or names with no caller but their tests
    removed = {"singular_value", "operator_norm_bound", "gram_kernel", "angular_coefficients",
               "hermite_real", "psi"}
    assert not removed & exported()

# runs the CLI commands given as JSON argument lists in one interpreter, then
# prints which scipy modules, and whether itofrft.verify and
# concurrent.futures, it has loaded, and how many threads are running
PROGRAM = """
import contextlib, io, json, sys, threading
import itofrft
from itofrft import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit("%s exited %d" % (" ".join(argv), code))
watched = ("itofrft.verify", "concurrent.futures")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in watched)))
print(threading.active_count())
"""


def run_program(commands):
    res = subprocess.run(
        [sys.executable, "-c", PROGRAM, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    modules, threads = res.stdout.splitlines()
    return json.loads(modules), int(threads)


@pytest.fixture
def coeff_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "nu": 1.0,
        "coeffs": [{"m": 2, "n": 1, "re": 1.0, "im": 0.0}, {"m": 1, "n": 0, "re": 0.5, "im": 0.0}],
    }))
    return str(path)


def test_numpy_only_commands_never_load_scipy(coeff_file):
    commands = [
        ["hermite", "eval", "--m", "3", "--n", "2", "--z-re", "0.4"],
        ["hermite", "nullset", "--w-re", "1"],
        ["kernel", "--kind", "frft", "--u-re", "0.3", "--z-re", "0.5"],
        ["kernel", "--kind", "mehler", "--v-re", "0.2", "--w-im", "0.5"],
        ["kernel", "--kind", "bergman", "--z-re", "0.3"],
        ["transform", "--kind", "frft", "--input", coeff_file, "--u-re", "0.5"],
        ["transform", "--kind", "dual", "--input", coeff_file, "--w-re", "1"],
        ["transform", "--kind", "hankel", "--input", coeff_file, "--u-re", "0.3", "--v-re", "0.4"],
    ]
    assert run_program(commands) == ([], 1)
    assert run_program([]) == ([], 1)  # `import itofrft` alone


@pytest.mark.parametrize(
    "argv",
    [
        ["hermite", "zeros", "--m", "3", "--n", "2"],
        ["spectrum", "--alpha", "1", "--beta", "1", "--max-m", "2", "--max-n", "2"],
    ],
    ids=["hermite_zeros", "spectrum"],
)
def test_scipy_commands_load_it_on_first_use(argv, tmp_path):
    if argv[0] == "spectrum":
        argv = argv + ["--out-dir", str(tmp_path)]
    assert "scipy.special" in run_program([argv])[0]


def test_adjoint_apply_starts_no_thread(monkeypatch):
    ran_on = set()

    def spy(*args):
        ran_on.add(threading.current_thread().name)
        return kernels.frft_kernel_raw(*args)

    monkeypatch.setattr(transforms, "frft_kernel_raw", spy)
    brule = bidisk_rule(1.0, 1.0, 8, 8)
    zs = np.linspace(-1.0, 1.0, 100) + 0.2j
    assert zs.size > kernels.BLOCK_ENTRIES // len(brule.weights)
    before = threading.active_count()
    out = transforms.adjoint_apply(1.0, 0.5, lambda u, v: u, zs, brule)
    assert np.all(np.isfinite(out))
    assert ran_on == {threading.main_thread().name}  # every block ran on the caller
    assert threading.active_count() == before


# prints scipy_special.import_s before and after the first call, with
# scipy.special and scipy.linalg imported beforehand if the argument says so
IMPORT_TIME = """
import sys
if sys.argv[1] == "preloaded":
    import scipy.linalg, scipy.special
from itofrft.specfun import scipy_special
before = scipy_special.import_s
scipy_special()
print(before, scipy_special.import_s)
"""


@pytest.mark.parametrize("state", ["cold", "preloaded"])
def test_scipy_import_is_timed_once(state):
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_TIME, state], capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    before, after = res.stdout.split()
    assert before == "None"
    if state == "cold":
        assert float(after) > 0
    else:
        assert float(after) == 0.0
