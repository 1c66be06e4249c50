"""The demo scripts and the README's quick start run against src/; its command lines parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from netepi.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs_and_prints_what_it_says():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # The first line prints R0, which the block's comment quotes in full.
    assert f"# {proc.stdout.splitlines()[0]}:" in block


def test_readme_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("netepi")]
    assert len(commands) == 8
    parser = build_parser(exit_on_error=False)
    for argv in commands:
        args, extras = parser.parse_known_args(argv)
        assert args.command == argv[0]
        assert extras == [], argv
