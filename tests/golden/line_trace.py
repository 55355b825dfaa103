"""Print every statement line of ``src/quantrisk`` that a test run never executes.

Not collected by pytest (tracing slows the run about sixfold):

    PYTHONPATH=src python tests/golden/line_trace.py [--max-unrun N] [pytest arguments]

With no pytest arguments it runs the whole test suite, so run it from the
repository root.  It exits 1 when pytest fails, or when more than N
statement lines never ran; CI runs it as that gate, with
``--hypothesis-seed=0`` so that the count repeats from run to run.

The statement lines are counted by ``ast``: every statement's first line,
less docstrings and ``global`` declarations, which run no code of their
own.  Each file is parsed, and its source lines kept, once: when the trace
first enters it, so an edit made while the run goes on cannot shift the
lines reported; a file never entered is parsed at the end.  A
``sys.settrace`` and ``threading.settrace`` hook records the lines that run
in files under ``src/quantrisk``, in this process only: the CLI tests that
start a ``python -m quantrisk.cli`` subprocess are not followed, so a line
they alone run is listed here.  Output is one
``path:line<TAB>source`` per unexecuted line, then the counts.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE = os.path.join(ROOT, "src", "quantrisk")


def statement_lines(path):
    """The source lines of one file, and the first lines of its statements, less docstrings and ``global``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tree = ast.parse(text, path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(first)
    return text.splitlines(), {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in docstrings and not isinstance(node, ast.Global)
    }


def main(argv):
    import pytest

    max_unrun = None
    if argv[:1] == ["--max-unrun"]:
        max_unrun, argv = int(argv[1]), argv[2:]

    ran = {}  # path -> set of executed lines
    parsed = {}  # path -> (source lines, statement lines), read when the trace first enters the file

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        if path not in parsed:
            # parsed as it starts to run: a later edit of the file cannot shift its lines
            parsed[path] = statement_lines(path)
        ran.setdefault(path, set())
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        source, lines = parsed.get(path) or statement_lines(path)  # a file never entered is read now
        unrun = sorted(lines - ran.get(path, set()))
        for n in unrun:
            print(f"src/quantrisk/{name}:{n}\t{source[n - 1].strip()}")
        total += len(lines)
        missed += len(unrun)
    print(f"{missed} of {total} statement lines never ran in-process (pytest exit status {int(status)})")
    print("the CLI subprocess tests are not followed: a line only they run is listed")
    if max_unrun is not None and missed > max_unrun:
        print(f"more than the {max_unrun} unrun statement lines allowed")
        return 1
    return int(status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
