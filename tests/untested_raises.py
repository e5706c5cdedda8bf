"""Name every `raise` statement in src/riccisym that the tier-1 tests never run.

    python tests/untested_raises.py [pytest arguments]

runs the tier-1 suite in this process under a sys.settrace hook that
records the lines executed in src/riccisym frames only, then reads every
`raise` statement there and exits 1 naming each one whose first line never
ran, unless ALLOWED lists it.  It exits with pytest's code if a test fails.
Tracing makes the suite about three times slower.  The file is no test_*
module, so pytest does not collect it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riccisym"

# (module, the text of the raised expression) left untested on purpose:
# gauss_curvatures' check of its own einsum against the closed form
ALLOWED = {
    ("hypersurface.py",
     'AssertionError("frame Ricci contraction inconsistent with closed form")'),
}


def executed_lines(pytest_args) -> tuple[int, set]:
    """(pytest's exit code, the (file, line) pairs run in SRC)."""
    prefix = str(SRC) + os.sep
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hit.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(call)
    threading.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def untested_raises(hit) -> list[str]:
    """'module:line: raise ...' for each raise statement in SRC never run."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        raises = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)]
        for node in sorted(raises, key=lambda node: node.lineno):
            raised = " ".join(ast.get_source_segment(text, node.exc).split()) if node.exc else ""
            if (str(path), node.lineno) not in hit and (path.name, raised) not in ALLOWED:
                found.append(f"{path.name}:{node.lineno}: raise {raised}")
    return found


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, hit = executed_lines(argv or [str(ROOT / "tests")])
    if code != 0:
        print(f"untested_raises: the tests exited {code}", file=sys.stderr)
        return code
    found = untested_raises(hit)
    for line in found:
        print(line)
    print(f"untested_raises: {len(found)} raise statement(s) never executed", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
