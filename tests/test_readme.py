"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

from bvsigma import BfBlock, ModelSpec, build_S1_generic
from bvsigma.master import extract_identities
from bvsigma.pstructure import PStructure

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_one_line_per_equation():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    spec = ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))
    equations = extract_identities(PStructure(spec), build_S1_generic(spec).expr)
    assert equations
    assert out.getvalue().splitlines() == ["%s = %s" % (tag, poly) for tag, poly in equations]
