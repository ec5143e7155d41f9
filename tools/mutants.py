"""Negate one ordering comparison at a time and report the mutants no test
kills.

    PYTHONPATH=src python3 tools/mutants.py src/klab/embeddings.py -- \
        tests/test_embeddings.py tests/test_cli.py

Run it from the root of the tree under test.  The tree is copied once into
a temporary directory (without .git and caches).  Every `<`, `<=`, `>` and
`>=` token of FILE becomes one mutant: `<` -> `>=`, `<=` -> `>`, `>` -> `<=`,
`>=` -> `<`.  Each mutant is written into the copy's FILE alone, and
`python -m pytest -x -q PYTEST_ARGS` runs in the copy; a failing run, or one
that outlives ten times the unmutated run (at least 60 s), kills it.  The
unmutated run must pass first.  PYTHONPATH entries that lie inside the tree
are moved into the copy, so the tests import the mutated file.

Prints one line per surviving mutant, `FILE:LINE:COL OLD -> NEW` (COL counts
from 0), then a count line on stderr.  Exits 0 when every mutant is killed,
1 when some survive, 2 when the unmutated run fails.  Standard library
only.  (Mutation testing: DeMillo, Lipton and Sayward, IEEE Computer 11,
1978.)
"""

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("file", help="the Python file to mutate")
    parser.add_argument("pytest_args", nargs="*",
                        help="after --: the arguments of the pytest run")
    return parser.parse_args(argv)


def comparisons(source):
    """(line, col, op) of every ordering comparison token in the source."""
    return [(*tok.start, tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.OP and tok.string in NEGATION]


def mutate(source, line, col, op):
    """The source with the comparison `op` at (line, col) negated."""
    lines = io.StringIO(source).readlines()     # the lines tokenize reads
    text = lines[line - 1]
    assert text[col:col + len(op)] == op
    lines[line - 1] = text[:col] + NEGATION[op] + text[col + len(op):]
    return "".join(lines)


def moved_pythonpath(root, copy):
    """PYTHONPATH with each entry inside root moved to the same place in
    the copy; relative entries resolve against the copy, the run's cwd."""
    out = []
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(
            os.pathsep)):
        path = Path(entry)
        if path.is_absolute() and path.resolve().is_relative_to(root):
            path = copy / path.resolve().relative_to(root)
        out.append(str(path))
    return os.pathsep.join(out)


def run_tests(copy, pytest_args, env, timeout):
    """True if the pytest run in the copy passes within the timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *pytest_args], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd().resolve()
    target = Path(args.file).resolve().relative_to(root)
    source = (root / target).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=IGNORE)
        env = {**os.environ, "PYTHONPATH": moved_pythonpath(root, copy),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        if not run_tests(copy, args.pytest_args, env, None):
            print("the unmutated tree fails its tests", file=sys.stderr)
            return 2
        timeout = max(10 * (time.perf_counter() - start), 60.0)
        sites = comparisons(source)
        survivors = []
        for line, col, op in sites:
            (copy / target).write_text(mutate(source, line, col, op))
            if run_tests(copy, args.pytest_args, env, timeout):
                survivors.append((line, col, op))
                print(f"{args.file}:{line}:{col} {op} -> {NEGATION[op]}",
                      flush=True)
    print(f"{len(sites)} mutants, {len(sites) - len(survivors)} killed, "
          f"{len(survivors)} survived", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
