"""Print every line of `src/upliftmil` that the Tier-1 tests never
execute, then their count.

The Tier-1 tests (`tests/`) run in this process, through `pytest.main`
with the cache provider off (`-p no:cacheprovider`, so nothing is
written to the checkout), under a line tracer installed with
`sys.settrace` and `threading.settrace`. A line is executable when the
compiler attributes code to it in the line table of one of its
module's code objects, so docstrings, comments and blank lines never
count. Code that runs only in a subprocess, such as a child process a
test starts or a process pool's workers, counts as unexecuted: the
tracer sees this process alone. Standard library only, besides the
pytest that runs the tests. It prints and gates nothing: the exit
status is 0 whatever the tests do. Run from anywhere:

    python scripts/unexecuted.py
"""

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "upliftmil"


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from `path` runs."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status for `args` and the package lines that ran,
    by resolved file path."""
    hits: dict[Path, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename: its hits, None if not ours

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(name).resolve()
            ours[name] = hits.setdefault(path, set()) if path.parent == PACKAGE else None
        lines = ours[name]
        if lines is None:
            return None  # no line events for code outside the package
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the package of this checkout
    status, hits = run_traced([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(path, set())
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} unexecuted lines (pytest exit status {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
