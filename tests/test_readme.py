"""The README stays true to the code: its Python examples run on the package
in src/, its command lines parse with the package's argument parser, its API
section lists exactly ``nncorr.__all__``, and its package layout lists
exactly the modules in src/nncorr/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nncorr
from nncorr.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=600, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_commands_parse():
    # Every `nncorr ...` or `python -m nncorr ...` line of the bash blocks;
    # a renamed or removed flag fails here, not in a reader's shell.
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```$", README, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if "nncorr" in words:
                i = words.index("nncorr")
                if i == 0 or words[i - 1] == "-m":
                    commands.append(words[i + 1 :])
    assert {argv[0] for argv in commands} == {"estimate", "simulate", "selftest"}
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_package_layout_lists_every_module():
    layout = re.search(r"^## Package layout\n\n```\n(.*?)^```$", README, flags=re.M | re.S)
    assert layout, "README has no Package layout block"
    listed = set(re.findall(r"^\s+(\w+\.py)\s", layout.group(1), flags=re.M))
    modules = {p.name for p in (REPO_ROOT / "src" / "nncorr").glob("*.py")}
    assert listed == modules - {"__init__.py", "__main__.py"}


def test_api_section_lists_exactly_all():
    section = re.search(r"^## API\n(.*?)^## ", README, flags=re.M | re.S)
    assert section, "README has no API section"
    listed = re.findall(r"^- `(\w+)`", section.group(1), flags=re.M)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(nncorr.__all__)
    assert f"holds these {len(listed)} names" in section.group(1)
