"""The README matches the package: its Library snippet and its config keys."""

import re
from pathlib import Path

import galvomosaic
from galvomosaic.config import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_matches_package_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)  # ImportError if the README names a dropped export
    imported = set(namespace) - {"__builtins__"}
    assert imported | {"GalvoMosaicError"} == set(galvomosaic.__all__)
    assert all(hasattr(galvomosaic, name) for name in galvomosaic.__all__)


def test_configuration_keys_match_loader():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration\n"):text.index("## Library\n")]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(keys) == len(set(keys))
    assert set(keys) == CONFIG_KEYS
