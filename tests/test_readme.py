"""The README's code examples run as written and print what they promise."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start():
    """The "Library quick start" block: Li levels, a nodeless pseudo-orbital, ε_pk = ε_ae."""
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    levels, nodes, delta = out.getvalue().splitlines()
    eps_1s, eps_2s = ast.literal_eval(levels)
    assert repr(eps_1s).startswith("-2.4776")
    assert repr(eps_2s).startswith("-0.1963")
    assert int(nodes) == 0
    assert abs(float(delta)) < 1e-12
