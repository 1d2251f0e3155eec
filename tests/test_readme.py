"""The README's library example runs as written, so the docs track the API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Library quick start python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    d_v, blowup, satisfied, rate = out.getvalue().split()
    assert float(d_v) >= 0.0 and blowup == "None"
    assert satisfied == "True" and float(rate) > 0.0
