"""The README's Library snippet imports exactly what the package exports."""

import re
from pathlib import Path

import galvomosaic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_matches_package_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)  # ImportError if the README names a dropped export
    imported = set(namespace) - {"__builtins__"}
    assert imported | {"GalvoMosaicError"} == set(galvomosaic.__all__)
    assert all(hasattr(galvomosaic, name) for name in galvomosaic.__all__)
