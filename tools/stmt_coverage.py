"""Statements of src/feedsched that the tier-1 suite never runs.

    python3 tools/stmt_coverage.py

Runs the tier-1 suite once, as ROADMAP.md gives it, under a stdlib
``sys.settrace`` line tracer. The tracer lives in a ``sitecustomize``
module that this script writes to a temporary directory and puts first
on PYTHONPATH, so every Python process the suite starts loads it at
interpreter start: the tests that run the CLI in a subprocess count too.
Each process writes the lines it ran when it exits.

A statement is every ``ast`` statement of src/feedsched except
docstrings and those that compile to no bytecode; it ran when any line
of its own (a compound statement's header, a simple statement's full
extent, a definition's decorators) raised a line event. The script
prints each statement that never ran and exits 1 when there are more
than CEILING of them or when the suite fails, 0 otherwise. Lower the
ceiling when a change tests or deletes one of them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# never-run statements measured over tier-1 with this script; a change
# that leaves more of them untested fails
CEILING = 0

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "feedsched"

_SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_PREFIX = {prefix!r}
_HITS = set()


def _lines(frame, event, arg):
    if event == "line":
        _HITS.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _lines
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join({out!r}, "hits-%d.txt" % os.getpid())
    with open(path, "w") as f:
        f.writelines("%s\\t%d\\n" % hit for hit in _HITS)


sys.settrace(_calls)
threading.settrace(_calls)
atexit.register(_dump)
'''


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each executable statement in a file."""
    source = path.read_text()
    tree = ast.parse(source)
    executable = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        executable.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.add(id(body[0]))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min(
            [node.lineno]
            + [d.lineno for d in getattr(node, "decorator_list", ())]
        )
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            last = max(node.lineno, body[0].lineno - 1)
        else:
            last = node.end_lineno
        own = set(range(first, last + 1)) & executable
        if own:
            found.append((node.lineno, own))
    return sorted(found)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "hits")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, out=str(out))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors"],
            cwd=ROOT, env=env,
        )
        hits = set()
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                hits.add((os.path.realpath(name), int(line)))
    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        lines = path.read_text().splitlines()
        for first, own in statements(path):
            total += 1
            if not any((real, line) in hits for line in own):
                rel = path.relative_to(ROOT)
                missed.append(f"{rel}:{first}: {lines[first - 1].strip()}")
    print("\n".join(missed))
    print(
        f"{len(missed)} of {total} statements in src/feedsched never ran "
        f"(ceiling {CEILING})"
    )
    if suite.returncode != 0:
        print(f"the suite failed with exit code {suite.returncode}")
        return 1
    return 1 if len(missed) > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
