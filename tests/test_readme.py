"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from walkforge import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(_block("Library", "python"), str(README), "exec"), {})


def test_cli_examples_run(capsys, tmp_path, monkeypatch):
    # In order: later lines read the schedules that earlier ones write.
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _block("CLI", "sh").splitlines()
             if line.startswith("walkforge ")]
    assert len(lines) == 12
    stdout = {}
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), line
        stdout[" ".join(argv)] = out
    # mc writes the same bytes to stdout as to its --out file.
    mc = "mc --schedule jumps.json -N 10000 --seed 7"
    assert stdout[mc].encode() == (tmp_path / "mc.csv").read_bytes()
    assert stdout[mc + " --out mc.csv"] == ""
