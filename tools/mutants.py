#!/usr/bin/env python3
"""List the mutants of a module that no named test notices.

    python3 tools/mutants.py MODULE TEST [TEST ...] [--lines 40-60,75]
                             [--jobs 1] [--root DIR]

MODULE and each TEST are paths relative to ``--root`` (the repository by
default). The tree is copied into a temporary directory (``TMPDIR``
applies), without ``.git`` and caches, once per job; the working tree is
never written. The tests first run once unmutated and must pass. Then each
statement of MODULE, or each one that starts on a line in ``--lines``, is
replaced by ``pass`` in a copy, one at a time, and the tests run as

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 TEST ...

with the copy's ``src/`` first on ``PYTHONPATH``, no bytecode written and
the copy's hypothesis database removed before each run, so that each verdict
depends on its mutant alone. A mutant whose run fails, or outlives ten times
the unmutated run plus 30 s, is killed; one whose run passes survives.

There are two kinds of mutant. A deletion replaces one statement by
``pass``; definitions, imports, ``pass`` and docstrings are not deleted, as
deleting one mostly fails at import, which shows nothing. A flip turns one
comparison operator into its neighbour (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``), each operator of a chained comparison alone;
its line is the operator's.

Each surviving deletion is printed as ``MODULE:LINE: <its first source
line>`` and each surviving flip as ``MODULE:LINE: OLD -> NEW: <the source
line>``, then one summary line over both kinds: ``MODULE: N mutants, K
killed, S survived``. The exit status is 0 when none survived and 1
otherwise.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal, ast.Pass)
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench-*")


def statements(source: str) -> list[ast.stmt]:
    """The statements a mutant may delete, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        found.append(node)
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def offset(lines: list[bytes], line: int, col: int) -> int:
    """The byte offset of an AST position; its column counts UTF-8 bytes."""
    return sum(map(len, lines[:line - 1])) + col


def deleted(source: str, node: ast.stmt) -> str:
    """``source`` with ``node`` replaced by ``pass``."""
    lines = source.encode().splitlines(keepends=True)
    data = b"".join(lines)
    start = offset(lines, node.lineno, node.col_offset)
    end = offset(lines, node.end_lineno, node.end_col_offset)
    return (data[:start] + b"pass" + data[end:]).decode()


def flips(source: str) -> list[tuple[int, str, str]]:
    """``(line, "OLD -> NEW", mutated source)`` for each comparison
    operator, found as the one operator text between its two operands."""
    lines = source.encode().splitlines(keepends=True)
    data = b"".join(lines)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, before, after in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            start = offset(lines, before.end_lineno, before.end_col_offset)
            end = offset(lines, after.lineno, after.col_offset)
            at = start + data[start:end].find(old.encode())
            mutated = data[:at] + new.encode() + data[at + len(old):]
            found.append((data[:at].count(b"\n") + 1, f"{old} -> {new}", mutated.decode()))
    return found


def mutants(source: str) -> list[tuple[int, str, str]]:
    """``(line, label, mutated source)`` of every deletion and flip, in
    source order; a deletion's label is its first source line, a flip's
    ``OLD -> NEW: `` and its source line."""
    text = source.encode().splitlines()  # numbered as the parser numbers them
    found = [(node.lineno, text[node.lineno - 1].decode().strip(), deleted(source, node))
             for node in statements(source)]
    found += [(line, f"{label}: {text[line - 1].decode().strip()}", mutated)
              for line, label, mutated in flips(source)]
    return sorted(found, key=lambda m: m[0])


def parse_lines(text: str) -> set[int]:
    """``40-60,75`` as a set of line numbers."""
    wanted: set[int] = set()
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        wanted.update(range(int(lo), int(hi or lo) + 1))
    return wanted


def run_tests(tree: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether the tests pass in ``tree``; a run past ``timeout`` fails."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module")
    parser.add_argument("tests", nargs="+")
    parser.add_argument("--lines", default="", help="only statements starting on these lines")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    source = (args.root / args.module).read_text()
    found = mutants(source)
    if args.lines:
        wanted = parse_lines(args.lines)
        found = [m for m in found if m[0] in wanted]
    jobs = max(args.jobs, 1)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        trees: queue.Queue = queue.Queue()
        for job in range(jobs):
            trees.put(Path(shutil.copytree(args.root, Path(tmp) / str(job), ignore=IGNORED)))
        first = trees.get()
        started = time.perf_counter()
        if not run_tests(first, args.tests, None):
            print(f"{args.module}: the tests fail unmutated", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - started) + 30
        trees.put(first)

        def survives(mutant: tuple[int, str, str]) -> bool:
            tree = trees.get()
            target = tree / args.module
            try:
                target.write_text(mutant[2])
                return run_tests(tree, args.tests, timeout)
            finally:
                target.write_text(source)
                trees.put(tree)

        with ThreadPoolExecutor(jobs) as pool:
            verdicts = list(pool.map(survives, found))
    survivors = [m for m, alive in zip(found, verdicts) if alive]
    for line, label, _ in survivors:
        print(f"{args.module}:{line}: {label}")
    print(f"{args.module}: {len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
