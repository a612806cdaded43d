"""scipy and the verify suite are loaded on first use only: importing the
package and the CLI subcommands that need only numpy load neither.  Each case
runs in a fresh interpreter, since this test process has both loaded already."""

import json
import subprocess
import sys

import pytest

# runs the CLI commands given as JSON argument lists in one interpreter,
# then prints which scipy modules, and whether itofrft.verify, it has loaded
PROGRAM = """
import contextlib, io, json, sys
import itofrft
from itofrft import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit("%s exited %d" % (" ".join(argv), code))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "itofrft.verify")))
"""


def loaded_modules(commands):
    res = subprocess.run(
        [sys.executable, "-c", PROGRAM, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.fixture
def coeff_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "nu": 1.0,
        "coeffs": [{"m": 2, "n": 1, "re": 1.0, "im": 0.0}, {"m": 0, "n": 0, "re": 0.5, "im": 0.0}],
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
    ]
    assert loaded_modules(commands) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["hermite", "zeros", "--m", "3", "--n", "2"],
        ["transform", "--kind", "hankel", "--u-re", "0.3", "--v-re", "0.4", "--order", "1"],
    ],
    ids=["hermite_zeros", "transform_hankel"],
)
def test_scipy_commands_load_it_on_first_use(argv, coeff_file):
    if argv[0] == "transform":
        argv = argv + ["--input", coeff_file]
    assert "scipy.special" in loaded_modules([argv])
