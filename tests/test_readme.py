import re
from pathlib import Path

import windlssvm

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_names_resolve_on_the_package():
    block = _library_block()
    assert "import windlssvm as w" in block
    names = sorted(set(re.findall(r"\bw\.([A-Za-z_]\w*)", block)))
    assert len(names) >= 10, names
    missing = [name for name in names if not hasattr(windlssvm, name)]
    assert not missing, f"README's Library block calls names windlssvm does not export: {missing}"
