#!/usr/bin/env python3
"""Mutation probe: make one-operator mutants of named functions of a module
and run a pytest subset against each, in copies of the repository under a
temporary directory.  A mutant the tests pass on is a survivor.

The operator set is fixed: `<` <-> `<=`, `>` <-> `>=`, `+` <-> `-`,
`*` <-> `/`, `&` <-> `|` (augmented assignments included) and a dropped `~`.
Annotations are not mutated.  Each site is named by its function, the
stripped source line and the operator pair (with `#k` for the k-th such pair
on that line), so a record can be compared across commits.

`--sites` runs only the sites it names.  A survivor named in the
`--equivalent` file (a JSON object of site name -> one-line argument) is
written as equivalent; any other survivor is written as unexplained and the
script exits 1.  Example:

    python scripts/mutation_probe.py --module src/polydisc/membership.py \\
        --functions _descent_report,_b_gamma_step \\
        --tests tests/test_membership.py --workers 2 --out record.json
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Add: "+", ast.Sub: "-",
    ast.Mult: "*", ast.Div: "/", ast.BitAnd: "&", ast.BitOr: "|", ast.Invert: "~",
}
# what the copies leave out: version control, caches and earlier outputs
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info")


def _functions(tree: ast.Module, names: list[str]) -> list[ast.FunctionDef]:
    """The module-level functions of tree named in names, in that order."""
    found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    missing = [name for name in names if name not in found]
    if missing:
        raise SystemExit(f"no module-level function {', '.join(missing)}")
    return [found[name] for name in names]


def _annotation_nodes(fn: ast.FunctionDef) -> set[int]:
    """The ids of every node inside an annotation of fn."""
    roots = [a.annotation for a in ast.walk(fn) if isinstance(a, ast.arg) and a.annotation]
    roots += [n.annotation for n in ast.walk(fn) if isinstance(n, ast.AnnAssign)]
    roots += [n.returns for n in ast.walk(fn) if isinstance(n, ast.FunctionDef) and n.returns]
    return {id(n) for root in roots for n in ast.walk(root)}


def _sites(fn: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """(node, position of the operator in a comparison or None) of every
    site of fn, in source order."""
    skip, sites = _annotation_nodes(fn), []
    for node in ast.walk(fn):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            sites.append((node, None))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            sites.append((node, None))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def _op(node: ast.AST, pos: int | None) -> type:
    return type(node.ops[pos] if pos is not None else node.op)


def enumerate_sites(source: str, names: list[str]) -> list[dict]:
    """The name, function and line of every site of the named functions."""
    lines, out, seen = source.splitlines(), [], {}
    for fn in _functions(ast.parse(source), names):
        for node, pos in _sites(fn):
            op = _op(node, pos)
            pair = f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}" if op in SWAPS else "~ dropped"
            text = lines[node.lineno - 1].strip()
            base = f"{fn.name}: {text} [{pair}]"
            seen[base] = seen.get(base, 0) + 1
            name = base if seen[base] == 1 else f"{base} #{seen[base]}"
            out.append({"site": name, "function": fn.name, "line": node.lineno})
    return out


class _DropInvert(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node):
        return node.operand if node is self.target else self.generic_visit(node)


def mutant_source(source: str, names: list[str], index: int) -> str:
    """source with the index-th site of the named functions mutated; only
    that function's text is regenerated."""
    tree = ast.parse(source)
    sites = [(fn, node, pos) for fn in _functions(tree, names) for node, pos in _sites(fn)]
    fn, node, pos = sites[index]
    if pos is not None:
        node.ops[pos] = SWAPS[type(node.ops[pos])]()
    elif isinstance(node.op, ast.Invert):
        fn = _DropInvert(node).visit(fn)
    else:
        node.op = SWAPS[type(node.op)]()
    lines = source.splitlines(keepends=True)
    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
    return "".join(lines[:start - 1]) + ast.unparse(fn) + "\n" + "".join(lines[fn.end_lineno:])


def _pytest(copy: Path, tests: list[str], timeout: float) -> str:
    """'passed', 'failed' (a test failed, or a test module failed to import),
    'timeout' or 'error' (any other pytest exit) of the test subset in copy.
    No bytecode is written: a mutant of the same size and second would
    otherwise load the cached bytecode of the one before.  Asserts run
    plain: a verdict is only pass or fail, and without cached bytecode the
    rewriting of every plugin module would double each run's start-up."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed", 2: "failed"}.get(proc.returncode, "error")


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _dirty(paths: list[str]) -> bool:
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--", *paths], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return bool(out.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--module", required=True, help="path of the module, relative to the repository")
    ap.add_argument("--functions", required=True, help="comma-separated module-level function names")
    ap.add_argument("--tests", nargs="+", required=True, help="pytest paths or ids, relative to the repository")
    ap.add_argument("--sites", nargs="+", help="names of the sites to run (default: all)")
    ap.add_argument("--equivalent", help="JSON object: site name -> why the mutant is equivalent")
    ap.add_argument("--workers", type=int, default=2, help="copies run at once (1..8)")
    ap.add_argument("--out", required=True, help="where to write the JSON record")
    args = ap.parse_args(argv)
    if not 1 <= args.workers <= 8:
        raise SystemExit("--workers must lie in 1..8")
    names = args.functions.split(",")
    source = (ROOT / args.module).read_text()
    sites = enumerate_sites(source, names)
    index = {s["site"]: i for i, s in enumerate(sites)}
    unknown = [name for name in args.sites or [] if name not in index]
    if unknown:
        raise SystemExit(f"no site named {'; '.join(unknown)}")
    chosen = [index[name] for name in args.sites] if args.sites else list(range(len(sites)))
    why = json.loads(Path(args.equivalent).read_text()) if args.equivalent else {}
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copies = [Path(tmp) / f"w{k}" for k in range(min(args.workers, len(chosen)) or 1)]
        for copy in copies:
            shutil.copytree(ROOT, copy, ignore=IGNORE)
        start = time.perf_counter()
        if _pytest(copies[0], args.tests, timeout=600) != "passed":
            raise SystemExit("the tests do not pass on the unmutated module")
        timeout = max(30.0, 10 * (time.perf_counter() - start))
        todo, results = queue.Queue(), {}
        for i in chosen:
            todo.put(i)

        def work(copy: Path):
            target = copy / args.module
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                target.write_text(mutant_source(source, names, i))
                results[i] = _pytest(copy, args.tests, timeout)
                target.write_text(source)
                print(f"{i:4d} {results[i]:8s} {sites[i]['site']}", file=sys.stderr, flush=True)

        threads = [threading.Thread(target=work, args=(c,)) for c in copies]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    survived = [sites[i] for i in chosen if results[i] == "passed"]
    record = {
        "commit": _commit(),
        "uncommitted_changes": _dirty([args.module, *(t.split("::")[0] for t in args.tests)]),
        "module": args.module,
        "functions": names,
        "tests": args.tests,
        "operators": ["< <=", "> >=", "+ -", "* /", "& |", "~ dropped"],
        "sites": len(chosen),
        "killed": sum(results[i] == "failed" for i in chosen),
        "timeouts": sum(results[i] == "timeout" for i in chosen),
        "errors": sum(results[i] == "error" for i in chosen),
        "equivalent": [dict(s, why=why[s["site"]]) for s in survived if s["site"] in why],
        "unexplained": [s for s in survived if s["site"] not in why],
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if record["unexplained"] else 0


if __name__ == "__main__":
    sys.exit(main())
