"""The size budget of `src/viscoflow`: two counts, each pinned at its value.

- Code lines: lines holding a token other than a comment, docstrings
  excluded. Blank lines, comments and docstrings cost nothing, and a
  statement split over three lines costs three.
- Settable values: the keyword defaults of public functions and of
  `__init__`, plus the dataclass fields with a default (`ClassVar` excluded).
  Each is a value a caller can set, which tests and benchmarks must cover.

A change that adds a line or a knob raises its pin and says why in
CHANGES.md; a change that removes some lowers it.
"""

import ast
import io
import tokenize
from pathlib import Path

CODE_LINES = 1837
SETTABLE_VALUES = 53

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "viscoflow").glob("*.py"))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)


def settable_values(text: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and (not node.name.startswith("_") or node.name == "__init__"):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and "ClassVar" not in ast.unparse(s.annotation) for s in node.body)
    return count


def test_code_lines_stay_within_the_budget():
    total = sum(code_lines(p.read_text(encoding="utf-8")) for p in SOURCES)
    assert total == CODE_LINES, "move the pin and say why in CHANGES.md"


def test_settable_values_stay_within_the_budget():
    total = sum(settable_values(p.read_text(encoding="utf-8")) for p in SOURCES)
    assert total == SETTABLE_VALUES, "move the pin and say why in CHANGES.md"


def test_the_counts_follow_their_definitions():
    text = '''"""Module docstring."""
from dataclasses import dataclass
from typing import ClassVar


def public(a, b=1, *, c=2, d):
    """Docstring
    over two lines."""
    # a comment
    return (a +
            b)


def _private(x=1):
    return x


@dataclass(frozen=True)
class Record:
    n: int
    m: int = 3
    k: ClassVar[int] = 4

    def __init__(self, q=0):
        self.q = q
'''
    assert code_lines(text) == 14
    assert settable_values(text) == 4  # b, c, m, q
