"""The README's library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    desc, report = namespace["desc"], namespace["report"]
    assert desc.dim == 2
    assert desc.case_label == "Thm1.17(1)"
    assert report.passed
