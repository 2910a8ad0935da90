"""List the lines of src/cppo that a Tier-1 pytest run never executes.

    python3 tools/unexecuted_lines.py [PYTEST_ARG ...]

The coverage package is not a dependency, so this is a line tracer on
sys.settrace.  Pytest runs in this process (by default with the Tier-1
arguments, -q --continue-on-collection-errors, from the repository root);
only frames whose code lives under src/cppo get a line tracer, and each
(file, line) they reach is recorded.  A line counts as executable when a
code object compiled from its file lists it in co_lines().  Every file's
text, and so its executable lines, is read before the run starts, so a file
edited during the run is reported as it was when the run started.
Every executable line never reached is printed as path:line: source,
followed by their count.  Work done in subprocesses the tests start is not
seen.

Tracing makes the run several times slower than the plain one; it is not
part of Tier-1.  The exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cppo"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path, text: str) -> set:
    """The line numbers some code object compiled from path's text runs."""
    stack = [compile(text, str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_run(pytest_args) -> tuple[int, set]:
    """Run pytest with the tracer on; its exit code and the (file, line)
    pairs reached in the package."""
    prefix = str(PACKAGE) + os.sep
    reached = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    texts = [(path, path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    files = [(path, text.splitlines(), executable_lines(path, text)) for path, text in texts]
    code, reached = trace_run(args or TIER1_ARGS)
    missed = 0
    for path, source, lines in files:
        for line in sorted(lines):
            if (str(path), line) not in reached:
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), line, source[line - 1].strip()))
    print("%d line(s) of src/cppo never ran" % missed)
    return code


if __name__ == "__main__":
    sys.exit(main())
