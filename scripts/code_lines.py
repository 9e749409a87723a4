"""Print the code lines of each `src/upliftmil` module and their total,
then the total line count of the Python files in `tests/`.

A code line is a line that is not blank, not a comment line and not part
of a docstring (the first statement of a module, class or function when
it is a string literal). Test files are counted whole, every line, as
ROADMAP.md quotes them. Run from anywhere:

    python scripts/code_lines.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "upliftmil"
TESTS = ROOT / "tests"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    tests = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in TESTS.glob("*.py"))
    print(f"{'tests/ lines':<16}{tests:>6}")


if __name__ == "__main__":
    main()
