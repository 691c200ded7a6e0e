"""The README's examples run as written: its Python blocks, in order, and
its command-line walkthrough, which must end with the lines it shows."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import sdcprobe

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def fenced(lang):
    """The bodies of the README's ```lang blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", TEXT, flags=re.M | re.S)


def test_python_blocks_run_in_order():
    """Each block runs in the namespace the blocks before it left."""
    blocks = fenced("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert 0.0 <= namespace["accuracy"] <= 1.0


def test_cli_walkthrough_ends_as_shown(tmp_path):
    """config.json, then train, attribute, campaign and report, each run as
    `python -m sdcprobe.cli` in a fresh directory."""
    walkthrough = next(b for b in fenced("sh") if "cat > config.json" in b)
    config = re.search(r"<<'JSON'\n(.*?)^JSON$", walkthrough, flags=re.M | re.S)
    (tmp_path / "config.json").write_text(config.group(1), encoding="utf-8")
    commands = [shlex.split(line) for line in walkthrough.replace("\\\n", " ").splitlines()
                if line.startswith("sdcprobe ")]
    assert [c[1] for c in commands] == ["train", "attribute", "campaign", "report"]
    package_root = str(Path(sdcprobe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    printed = []
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "sdcprobe.cli", *command[1:]],
                              cwd=tmp_path, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (command, proc.stderr)
        printed += proc.stdout.splitlines()
    shown = re.search(r"which ends with\n\n```\n(.*?)```", TEXT, flags=re.S).group(1)
    shown = shown.splitlines()
    assert shown[0] == "GBINw precision@0.05: mean 0.4375 stddev 0.0162 over 3 seeds"
    assert printed[-len(shown):] == shown
