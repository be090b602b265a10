"""Package surface: the star import, every exported name and the README's examples."""

import re
from pathlib import Path

import redcrawl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from redcrawl import *", namespace)
    for name in redcrawl.__all__:
        assert name in namespace, name


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
