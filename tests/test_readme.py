"""The README's library quick tour runs, and every value its comments state holds.

A comment after an expression, or a ``# -> ...`` line right below it, states
its value: a number, a repr, or a verdict, and for a counterexample its
witness ``(u=..., eps=...)``.  When a value changes, mend the comment.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated(lines, node) -> str | None:
    """The comment stating the value of the expression ``node``, if any."""
    last = lines[node.end_lineno - 1]
    if "#" in last:
        return last.split("#", 1)[1].strip()
    below = lines[node.end_lineno].strip() if node.end_lineno < len(lines) else ""
    return below[len("# ->"):].strip() if below.startswith("# ->") else None


def check(value, comment: str, owner) -> None:
    """``owner`` is the object whose attribute ``value`` is, or None."""
    if comment.startswith("RiskValue("):
        assert repr(value) == comment
        return
    head, _, rest = comment.partition(" ")
    try:
        number = float(head)
    except ValueError:
        assert str(value.verdict) == head
        return
    assert value == number
    witness = re.search(r"\(u=([\d.]+), eps=([\d.]+)\)", rest)
    if witness:
        assert (owner.u, owner.eps) == tuple(map(float, witness.groups()))


def test_every_stated_value_holds():
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    evaluate = lambda expr: eval(compile(ast.Expression(expr), str(README), "eval"), namespace)
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        value = evaluate(node.value)
        comment = stated(lines, node)
        if comment is not None:
            check(value, comment, evaluate(node.value.value) if isinstance(node.value, ast.Attribute) else None)
            checked += 1
    assert checked == 6
