"""List the lines of ``src/onionkep`` that no test runs.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``, so the servers' loop threads are traced too) and
prints, per module, each executable line that no test reached: each
line that some code object of the module maps an instruction to.

    python tools/linecov.py                      # the tier-1 suite
    python tools/linecov.py tests/test_cli.py -q # any pytest arguments

It exits with pytest's status and never fails on what it finds: socket
timing decides whether some paths run, so a line may come and go. The
tests call ``cli.main`` in process, so ``cli``'s ``__main__`` line is
always listed.

Standard library only; it needs pytest and Hypothesis to run the tests.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "onionkep"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def trace(paths: set[str], reached: dict[str, set[int]]):
    """A global trace function that records the line events of ``paths`` alone."""
    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in paths else None

    return global_


def main(argv: list[str]) -> int:
    import pytest

    files = sorted(PACKAGE.glob("*.py"))
    paths = {str(path) for path in files}
    reached: dict[str, set[int]] = {path: set() for path in paths}
    tracer = trace(paths, reached)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    print("Lines of src/onionkep that no test reached:\n")
    for path in files:
        lines = sorted(executable_lines(path) - reached[str(path)])
        missed += len(lines)
        text = path.read_text().splitlines()
        for line in lines:
            print(f"    {path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"\n{missed} line(s) unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
