"""Mutation sweep: the fast test suite against one-node mutants of named functions.

Run from the root of a checkout; ``--work`` gets one copy of it per mutant::

    python3 tests/mutate.py src/attlab/glm.py fit_logistic ModelFit.to_json_dict \\
        --work /tmp/mutants [--jobs 2] [--lines 540-600] [--first tests/test_glm.py]

A mutant changes one node's text in a function's body, docstring aside: a
comparison flipped; ``+``/``-``, ``*``/``/`` or ``and``/``or`` swapped; an
``if``/``while`` test or a bool negated; a number set to 0, ±1 or doubled; a
string or f-string with ``x`` appended. ``--lines`` keeps those starting in
the lines. A mutant is killed if ``pytest -x -m "not slow" --ignore
tests/test_acceptance.py`` (``--first`` files first) fails or runs 15 minutes.
"""

import argparse
import ast
import copy
import itertools
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PAIRS = [(ast.Lt, ast.GtE), (ast.Gt, ast.LtE), (ast.Eq, ast.NotEq), (ast.Is, ast.IsNot), (ast.In, ast.NotIn),
         (ast.Add, ast.Sub), (ast.Mult, ast.Div), (ast.And, ast.Or)]
SWAP = {**dict(PAIRS), **{b: a for a, b in PAIRS}}


def mutants(node):
    """(node, replacement text) for each one-node mutant of ``node``."""
    new = copy.deepcopy(node)
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            new.ops = node.ops[:i] + [SWAP[type(op)]()] + node.ops[i + 1:]
            yield node, ast.unparse(new)
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAP:
        new.op = SWAP[type(node.op)]()
        yield node, ast.unparse(new)
    elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
        yield node.test, f"not ({ast.unparse(node.test)})"
    elif isinstance(node, ast.JoinedStr):
        new.values.append(ast.Constant("x"))
        yield node, ast.unparse(new)
    elif isinstance(node, ast.Constant) and isinstance(node.value, (bool, int, float, str)):
        v = node.value
        to = [not v] if isinstance(v, bool) else [v + "x"] if isinstance(v, str) else sorted({0, v - 1, v + 1, 2 * v} - {v})
        yield from ((node, repr(x)) for x in to)


def sites(source: str, names):
    """(line, old text, new text, mutated source) for each mutant of the functions ``names``."""
    data, tree = source.encode(), ast.parse(source)
    starts = [0, *itertools.accumulate(len(row) for row in data.splitlines(keepends=True))]  # col offsets are bytes
    for name in names:
        scope = tree
        for part in name.split("."):
            scope = next(n for n in scope.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
        body = scope.body[1:] if ast.get_docstring(scope) is not None else scope.body
        inside_fstrings = {id(n) for s in body for f in ast.walk(s) if isinstance(f, ast.JoinedStr)
                           for n in ast.walk(f) if n is not f}  # their positions are the whole f-string's
        for node in (n for stmt in body for n in ast.walk(stmt) if id(n) not in inside_fstrings):
            for target, text in mutants(node):
                a = starts[target.lineno - 1] + target.col_offset
                b = starts[target.end_lineno - 1] + target.end_col_offset
                yield target.lineno, data[a:b].decode(), text, (data[:a] + f"({text})".encode() + data[b:]).decode()


def killed(root: Path, work: Path, module: str, source: str, first) -> bool:
    """Whether the fast suite fails, or times out, on the checkout ``root`` with ``module`` holding ``source``."""
    shutil.copytree(root, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis"))
    (work / module).write_text(source, encoding="utf-8")
    argv = ["timeout", "900", sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-m", "not slow",
            "--ignore", "tests/test_acceptance.py", *first, "tests"]
    code = subprocess.run(argv, cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")}, capture_output=True)
    shutil.rmtree(work, ignore_errors=True)
    return code.returncode != 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="source file, relative to the checkout root")
    parser.add_argument("names", nargs="+", help="functions to mutate, a method as Class.method")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for the mutants' copies")
    parser.add_argument("--lines", help="only mutants starting in these source lines, as A-B")
    parser.add_argument("--first", action="append", default=[], help="a test file to run first (repeatable)")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    root, lines = Path(__file__).resolve().parents[1], args.lines and tuple(map(int, args.lines.split("-")))
    found = [m for m in sites((root / args.module).read_text(encoding="utf-8"), args.names)
             if not lines or lines[0] <= m[0] <= lines[1]]
    with ThreadPoolExecutor(args.jobs) as pool:
        dead = list(pool.map(lambda i: killed(root, args.work / f"m{i}", args.module, found[i][3], args.first),
                             range(len(found))))
    for (line, old, text, _), was_killed in zip(found, dead):
        print(f"{'killed' if was_killed else 'SURVIVED'} {args.module}:{line}: {old} -> {text}")
    print(f"{len(found)} mutants, {dead.count(False)} survived")
