"""The README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "expected one python block in the quick start"
    return blocks[0]


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {})
    mse, vs, label, baseline = capsys.readouterr().out.split()
    assert (vs, label) == ("vs", "baseline")
    assert float(mse) <= float(baseline) + 1e-9
