"""Reachability ledger: which ``src/repro`` functions no entry point runs.

Usage: ``python tools/reach`` (about 3 minutes on 2 vCPUs).

Runs each non-test entry point of the repo (the examples, the benchmark
with ``--trace 1``, the figure CLI and CI's ``paper`` suite, the fuzzer
on CI's ten seeds, the app CLIs and the observability CLI) under
``sitecustomize.py`` beside this file, which records every
``src/repro`` code object each process enters -- subprocesses and
forked ``local`` members included, one dump per pid.  Then it walks
``src/repro`` with ``ast`` and prints, per module, the ``def``s no
process entered (a ``def`` inside an unreached one is counted with it),
the modules no process imported, and totals.
A line count here is the source span of a ``def``, decorators included.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
PKG = REPO / "src" / "repro"
FUZZ_SEEDS = (0, 1, 2, 3, 5, 7, 19, 33, 47, 57)  # CI's fuzz matrix
APPS = ("mriq", "sgemm", "tpacf", "cutcp", "spmv")


def entry_points() -> list[tuple[str, list[str]]]:
    """``(label, argv)`` for every entry point; each runs in a temporary
    working directory."""
    py = sys.executable
    out = [(f"example:{p.stem}", [py, str(p)])
           for p in sorted((REPO / "examples").glob("*.py"))]
    out.append(("e2e", [py, str(REPO / "benchmarks/e2e/run.py"),
                        "--workload", "all", "--rounds", "2", "--trace", "1"]))
    out.append(("bench", [py, "-m", "repro.bench"]))
    # CI's ``paper`` job: the figure suite (its tables stay as they are)
    out.append(("paper", [py, "-m", "pytest", str(REPO / "benchmarks"),
                          f"--ignore={REPO / 'benchmarks/e2e'}", "-q",
                          "-p", "no:cacheprovider"]))
    out += [(f"fuzz:{s}", [py, "-m", "repro.testing", "--seed", str(s),
                           "--cases", "70", "--quiet"]) for s in FUZZ_SEEDS]
    out += [(f"app:{a}", [py, "-m", f"repro.apps.{a}"]) for a in APPS]
    out += [
        ("obs:trace", [py, "-m", "repro.obs", "trace", "--app", "sgemm",
                       "--nodes", "2", "--jsonl", "a.jsonl", "--tree"]),
        ("obs:trace4", [py, "-m", "repro.obs", "trace", "--app", "sgemm",
                        "--nodes", "4", "--chrome", "", "--jsonl", "b.jsonl"]),
        ("obs:summarize", [py, "-m", "repro.obs", "summarize", "a.jsonl"]),
        # exits 1 when it finds a regression, which is not a failure here
        ("obs:diff", [py, "-m", "repro.obs", "diff", "a.jsonl", "b.jsonl"]),
    ]
    return out


def run_all() -> set[tuple[str, int]]:
    """Run the entry points under the hook; return every ``(file, first
    line)`` any of their processes entered."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        dumps = Path(tmp, "dumps")
        work = Path(tmp, "work")
        dumps.mkdir()
        work.mkdir()
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(HERE), str(REPO / "src")]),
                   REACH_OUT=str(dumps))
        for label, argv in entry_points():
            t0 = time.perf_counter()
            done = subprocess.run(argv, cwd=work, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if done.returncode == 0 or label == "obs:diff" \
                else f"EXIT {done.returncode}: {done.stderr.strip()[-300:]}"
            print(f"# {label:<22} {time.perf_counter() - t0:6.1f} s  {status}",
                  file=sys.stderr)
        seen = set()
        for dump in dumps.iterdir():
            for line in dump.read_text().splitlines():
                path, first = line.rsplit("\t", 1)
                seen.add((path, int(first)))
    return seen


def _first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of a ``def``: its first decorator's line."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def unreached(tree: ast.Module, key: str,
              seen: set[tuple[str, int]]) -> list[tuple[str, int, int]]:
    """``(qualname, first line, lines)`` of each outermost ``def`` of the
    module parsed as *tree* from file *key* that no process entered."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = _first_line(child)
                name = prefix + child.name
                if (key, first) not in seen:
                    out.append((name, first, child.end_lineno - first + 1))
                else:
                    walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def report(seen: set[tuple[str, int]]) -> None:
    total_lines = dead_lines = 0
    dead_defs = all_defs = 0
    never_imported = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG.parent)
        text = path.read_text()
        tree = ast.parse(text)
        n = len(text.splitlines())
        total_lines += n
        all_defs += sum(isinstance(x, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for x in ast.walk(tree))
        if (str(path), 1) not in seen:
            never_imported.append((rel, n))
            continue
        rows = unreached(tree, str(path), seen)
        if not rows:
            continue
        lines = sum(r[2] for r in rows)
        dead_lines += lines
        dead_defs += len(rows)
        print(f"{rel}: {lines} lines in {len(rows)} defs")
        for name, first, span in rows:
            print(f"    {first:>5}  {name} ({span})")
    print()
    for rel, n in never_imported:
        print(f"never imported: {rel} ({n} lines)")
    print(f"src/repro: {total_lines} lines, {all_defs} defs; unreached: "
          f"{dead_lines} lines in {dead_defs} outermost defs of imported "
          f"modules, {sum(n for _, n in never_imported)} lines in "
          f"{len(never_imported)} modules never imported")


if __name__ == "__main__":
    report(run_all())
