"""Operator-flip mutation run over one module of ``src/ppsd_lab``.

    python tests/mutation.py --sample 36
    python tests/mutation.py --functions _legs,_propagate_blocks --sample 0
    python tests/mutation.py --functions effective_hamiltonian,_central_difference --sample 0

Run by hand from the root of a checkout; the test suite does not collect
it.  Standard library only (``ast``).  Each mutant flips one operator at
one site: ``<`` and ``<=``, ``>`` and ``>=``, ``+`` and ``-``, ``*`` and
``/`` (comparisons, binary operators and augmented assignments).  The
sites are drawn with ``random.Random(SEED)``; ``--sample 0`` takes them
all, and ``--functions`` keeps the sites inside the functions named.
The module mutated is the one that defines every function named (a list
that no single module defines is refused), or ``lindblad.py`` without
``--functions``.

The checkout's ``src/``, ``tests/``, ``demos/`` and ``pyproject.toml`` are
copied into a fresh temporary directory, and every mutant is written
there by ``ast.unparse``: the working tree is never edited.  The
unmutated, unparsed module must pass first.  Each mutant then runs
``pytest -x`` on the module's test file (``tests/test_ppsd.py`` for
``ppsd.py``) and ``tests/test_cli.py`` in the copy; it is killed when
pytest fails or runs past TIMEOUT seconds.  One line is printed per
mutant, then the score.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/ppsd_lab")
DEFAULT_TARGET = PACKAGE / "lindblad.py"
SEED = 7
TIMEOUT = 600.0
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def sites(tree: ast.Module, functions: set[str] | None) -> list[tuple]:
    """(node, slot, enclosing function) of every flippable operator, in
    source order; slot is the index into a comparison's ``ops``, else None."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if functions is None or func in functions:
            if isinstance(node, ast.Compare):
                found.extend((node, k, func) for k, op in enumerate(node.ops) if type(op) in FLIPS)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
                found.append((node, None, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def flip(node, slot) -> tuple[ast.AST, str]:
    """Flip the operator in place; return the old operator and a label."""
    old = node.ops[slot] if slot is not None else node.op
    new = FLIPS[type(old)]()
    if slot is not None:
        node.ops[slot] = new
    else:
        node.op = new
    return old, f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def restore(node, slot, old) -> None:
    if slot is not None:
        node.ops[slot] = old
    else:
        node.op = old


def target_module(functions: set[str] | None) -> Path:
    """The module that defines every function named; lindblad.py for None."""
    if functions is None:
        return DEFAULT_TARGET
    defining = {}
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        defining[PACKAGE / path.name] = functions & names
    matches = [module for module, found in defining.items() if found == functions]
    if len(matches) != 1:
        where = {name: [m.name for m, found in defining.items() if name in found]
                 for name in sorted(functions)}
        sys.exit(f"--functions must name functions of one module; defined in: {where}")
    return matches[0]


def run_tests(copy: Path, tests: list[str]) -> bool:
    """True when the tests pass in the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, default=36, help="mutants to run; 0 runs every site")
    parser.add_argument("--functions", help="comma-separated function names to restrict to")
    args = parser.parse_args(argv)

    functions = set(args.functions.split(",")) if args.functions else None
    target = target_module(functions)
    tests = list(dict.fromkeys([f"tests/test_{target.stem}.py", "tests/test_cli.py"]))
    tree = ast.parse((ROOT / target).read_text())
    candidates = sites(tree, functions)
    picks = range(len(candidates))
    if args.sample > 0:
        picks = sorted(random.Random(SEED).sample(picks, min(args.sample, len(picks))))
    chosen = [candidates[k] for k in picks]
    print(f"{target}: {len(chosen)} of {len(candidates)} sites; {' '.join(tests)}", flush=True)

    with tempfile.TemporaryDirectory(prefix="ppsd-mutation-") as workdir:
        copy = Path(workdir)
        for name in ("src", "tests", "demos"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        mutated = copy / target

        mutated.write_text(ast.unparse(tree) + "\n")
        if not run_tests(copy, tests):
            print("the unmutated, unparsed module fails the suite; no score", flush=True)
            return 1
        killed = 0
        for node, slot, func in chosen:
            old, label = flip(node, slot)
            mutated.write_text(ast.unparse(tree) + "\n")
            restore(node, slot, old)
            dead = not run_tests(copy, tests)
            killed += dead
            print(f"line {node.lineno:4d} {func or '<module>'}: {label}: "
                  f"{'killed' if dead else 'SURVIVED'}", flush=True)
    print(f"score: {killed}/{len(chosen)} killed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
