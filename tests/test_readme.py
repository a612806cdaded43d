"""Every `itofrft` line of the README's CLI block runs, in process, and exits 0."""

import json
import re
import shlex
from pathlib import Path

import pytest

from itofrft import cli

from helpers import strict_json

README = Path(__file__).parents[1] / "README.md"


def readme_cli_lines():
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("itofrft ")]
    assert lines, "no itofrft lines in the README's CLI block"
    # the bare run is the whole acceptance battery, which test_acceptance.py covers
    return [line for line in lines if line != "itofrft verify"]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_line_runs(line, tmp_path, monkeypatch, capsys):
    # the files the lines name, in the directory they run in
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ITOFRFT_OUT_DIR", str(tmp_path / "out"))
    f = {"nu": 1.0, "coeffs": [{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]}
    (tmp_path / "f.json").write_text(json.dumps(f))
    code = cli.main(shlex.split(line)[1:])
    printed = capsys.readouterr()
    assert code == 0, printed.err
    # verify prints a table; every other subcommand prints one JSON document
    if not line.startswith("itofrft verify"):
        strict_json(printed.out)
    for path in (tmp_path / "out").glob("*.json"):
        strict_json(path.read_text())
