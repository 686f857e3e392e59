"""Run a fixed sample of mutants of one onionkep module against its tests.

Each mutant changes one place in the module's source: it flips a
comparison (``<`` and ``>=``, ``>`` and ``<=``, ``==`` and ``!=``, ``in``
and ``not in``, ``is`` and ``is not``), swaps ``and`` and ``or``, drops a
``not``, or adds 1 to an integer constant. The sites are listed in source
order and a fixed seed draws the sample, so a run on the same source
always tries the same mutants. Each mutant runs the module's test files
with ``-x`` in a scratch copy of ``src`` and ``tests``.

A mutant that every test passes has survived: a missing test, or code
that nothing needs. It fails the run unless ``equivalent_mutants.json``
beside this file lists it with the reason why no test can tell it from
the original. A listed mutant that a test kills fails the run too: its
reason no longer holds, and the list must lose it.

    python tools/mutants.py onioncrypt --sample 40
    python tools/mutants.py modmath --list        # every site, no runs

Standard library only; it needs pytest and Hypothesis to run the tests.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENTS = Path(__file__).resolve().parent / "equivalent_mutants.json"
SEED = 27

# The test files that exercise each module, run in this order.
TESTS = {
    "modmath": ["tests/test_modmath.py", "tests/test_nikep.py", "tests/test_golden.py"],
    "nikep": ["tests/test_nikep.py", "tests/test_golden.py"],
    "onioncrypt": ["tests/test_onioncrypt.py"],
    "tlv": ["tests/test_directory.py"],
    "directory": ["tests/test_directory.py"],
    "protocol": ["tests/test_protocol.py", "tests/test_simnet.py"],
    "simnet": ["tests/test_simnet.py", "tests/test_golden.py"],
    "transport": ["tests/test_transport.py"],
    "cli": ["tests/test_cli.py", "tests/test_golden.py"],
}

FLIPPED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is}


class Mutant(NamedTuple):
    id: str  # module:function: original -> mutated, stable across unrelated edits
    lineno: int
    source: str  # the whole mutated module


def _mutations(node: ast.AST) -> list[ast.AST]:
    """Every one-place change this sampler makes to ``node`` itself."""
    if isinstance(node, ast.Compare):
        out = []
        for i, op in enumerate(node.ops):
            if type(op) in FLIPPED:
                ops = list(node.ops)
                ops[i] = FLIPPED[type(op)]()
                out.append(ast.Compare(node.left, ops, node.comparators))
        return out
    if isinstance(node, ast.BoolOp):
        return [ast.BoolOp(ast.Or() if isinstance(node.op, ast.And) else ast.And(), node.values)]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [node.operand]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [ast.Constant(node.value + 1)]
    return []


def mutants(module: str) -> list[Mutant]:
    """Every mutant of ``src/onionkep/<module>.py``, in source order."""
    text = (ROOT / "src" / "onionkep" / f"{module}.py").read_text()
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line.encode()))
    data = text.encode()
    out, seen = [], {}

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return  # the text of messages, not logic
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.expr):
            begin = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            for new in _mutations(node):
                before, after = ast.unparse(node), ast.unparse(new)
                key = f"{module}:{scope or '<module>'}: {before} -> {after}"
                seen[key] = seen.get(key, 0) + 1
                key += f" #{seen[key]}" if seen[key] > 1 else ""
                source = (data[:begin] + f"({after})".encode() + data[end:]).decode()
                out.append(Mutant(key, node.lineno, source))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "")
    return out


def run_tests(workdir: Path, files: list[str], timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the tree in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", choices=sorted(TESTS))
    ap.add_argument("--sample", type=int, default=40, help="mutants to run (default 40)")
    ap.add_argument("--list", action="store_true", help="print every site and exit")
    args = ap.parse_args(argv)

    every = mutants(args.module)
    if args.list:
        for m in every:
            print(f"{m.lineno:5d}  {m.id}")
        return 0
    sample = sorted(random.Random(SEED).sample(every, min(args.sample, len(every))),
                    key=lambda m: m.lineno)
    equivalent = json.loads(EQUIVALENTS.read_text())
    files = TESTS[args.module]
    target = Path("src") / "onionkep" / f"{args.module}.py"
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        start = time.monotonic()
        if run_tests(work, files, timeout=1800) != "survived":
            print(f"the unmutated tests fail: {' '.join(files)}", file=sys.stderr)
            return 2
        timeout = 10 * (time.monotonic() - start) + 30
        unlisted, stale = [], []
        print(f"{len(sample)} of {len(every)} {args.module} mutants, seed {SEED}")
        for m in sample:
            (work / target).write_text(m.source)
            status = run_tests(work, files, timeout)
            if status == "survived":
                status = "equivalent" if m.id in equivalent else "SURVIVED"
                if m.id not in equivalent:
                    unlisted.append(m)
            elif status == "killed" and m.id in equivalent:
                status = "STALE"
                stale.append(m)
            print(f"{status:10s} {m.lineno:5d}  {m.id}", flush=True)
    if unlisted:
        print(f"{len(unlisted)} survivor(s) not in {EQUIVALENTS.name}: add a test that kills each, "
              "delete the code it shows unneeded, or list it with the reason no test can")
    if stale:
        print(f"{len(stale)} mutant(s) listed in {EQUIVALENTS.name} were killed: "
              "remove each from the list")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
