"""README's two-minute tour runs as written, and its two moments agree.

The tour is README's one ```python block.  Its last two statements are the
moment of the word in the realization and by the monotone formula; both are
evaluated and must read the 0.064 the comments show.  A public name that the
tour uses and the package no longer has fails here.
"""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_moments_agree_with_each_other_and_with_its_comment():
    [block] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    *setup, realized, formula = ast.parse(block).body
    assert ast.unparse(realized).startswith("real.scalar_moment(word)")
    assert ast.unparse(formula).startswith("monotone_moment_formula(")
    namespace: dict = {}
    exec(compile(ast.Module(setup, type_ignores=[]), "README.md", "exec"), namespace)
    got, want = (eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace) for stmt in (realized, formula))
    assert abs(got - want) <= 1e-12
    assert abs(got - 0.064) <= 1e-12
    assert abs(want - 0.064) <= 1e-12
