"""Which ``src/repro`` functions a served run, a modeled figure or a test reaches.

A function counts as reached when at least one call enters it.  Three run
sets are measured, one after another:

* *served*: the eight serving benchmarks' ``--smoke`` runs, the eight
  examples, ``benchmarks/e2e/run.py --smoke`` and ``decode_logits_sha.py
  --spec 4 --stagger 3``;
* *modeled*: the 19 paper figure and table scripts (``bench_fig*``,
  ``bench_tab*``, ``bench_ablation_head_ratio``, ``bench_kernel_functional``),
  each ``test_*`` function called directly with a stand-in ``benchmark``
  that calls the figure function and a stand-in ``report`` that formats its
  tables (not through pytest: pytest-benchmark clears the profile hook while
  it times a body);
* *tests*: tier-1 (``python -m pytest -q`` at the repository root).

Every function then falls in one class, the first that applies: served,
modeled only, tests only, or nothing.  The script prints a per-module table
and the "tests only" and "nothing" lists, and writes every function with the
sets that reach it and its body lines to ``benchmarks/results/reach.json``.
It gates nothing.  The whole run takes about 6 minutes on a 2-vCPU machine::

    python benchmarks/reach.py
    python benchmarks/reach.py --self-test    # seconds: the hook itself

How a call is seen: a ``sitecustomize`` module, written into a temporary
directory that goes first on ``PYTHONPATH``, installs a ``sys.setprofile``
hook in every Python process the runs start, children included (the e2e
runner's worker too: it puts ``src`` on ``sys.path`` itself, but inherits
the environment).  Each process writes the code objects it entered under
``src/repro`` to a file when it exits.  ``cProfile`` replaces the hook while
it runs and clears it when it stops (``bench_hotpath.py`` and
``tests/core/test_decode_vectorized.py`` profile a decode step), so the hook
patches ``cProfile.Profile.disable`` to take the profiler's own code objects
and install the hook again.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
PACKAGE = REPO / "src" / "repro"
OUTPUT = HERE / "results" / "reach.json"

#: The serving benchmarks CI runs with ``--smoke``.
SMOKES = (
    "serving_slo",
    "prefix_cache",
    "async_serving",
    "cluster_routing",
    "disaggregation",
    "kv_tiering",
    "speculative",
    "hotpath",
)

#: The paper figure and table scripts, each a pytest ``test_*(benchmark, report)``.
FIGURE_SCRIPTS = ("bench_fig*.py", "bench_tab*.py", "bench_ablation_head_ratio.py", "bench_kernel_functional.py")

#: Runs every figure script named on its command line with stand-in fixtures.
MODELED = """
import importlib.util, sys
from repro.bench.tables import Table

class Benchmark:
    def pedantic(self, fn, rounds=1, iterations=1):
        return fn()

def report(tables, name):
    for table in [tables] if isinstance(tables, Table) else tables:
        table.format()

for path in sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("figure", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, fn in vars(module).items():
        if name.startswith("test_"):
            fn(Benchmark(), report)
"""

CLASSES = ("served", "modeled only", "tests only", "nothing")

HOOK = '''\
"""Records every code object under REACH_ROOT that this process enters (see benchmarks/reach.py)."""
import atexit
import json
import os
import sys
import threading

_ROOT = os.environ.get("REACH_ROOT")
_OUT = os.environ.get("REACH_OUT")
_codes = set()


def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def install():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _dump():
    sys.setprofile(None)
    seen = sorted({(os.path.abspath(c.co_filename), c.co_firstlineno) for c in _codes})
    rows = [row for row in seen if row[0].startswith(_ROOT)]
    with open(os.path.join(_OUT, f"{os.getpid()}-{id(_codes)}.json"), "w") as f:
        json.dump(rows, f)


if _ROOT and _OUT:
    import cProfile

    _disable = cProfile.Profile.disable

    def _disable_and_reinstall(self):
        _disable(self)
        _codes.update(entry.code for entry in self.getstats() if not isinstance(entry.code, str))
        install()

    cProfile.Profile.disable = _disable_and_reinstall
    atexit.register(_dump)
    install()
'''


def run_set(name: str, commands: list[list[str]], hook_dir: Path, root: Path) -> dict:
    """Run ``commands`` under the hook; returns the set's ``(file, first line)`` records and failures.

    ``root`` is the directory whose code objects count; it goes on
    ``PYTHONPATH`` after the hook.
    """
    out = hook_dir / name
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook_dir), str(root.parent), env.get("PYTHONPATH")]))
    env["REACH_ROOT"] = str(root) + os.sep
    env["REACH_OUT"] = str(out)
    failed = []
    start = time.perf_counter()
    for cmd in commands:
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        shown = " ".join(Path(c).name if os.sep in c else c for c in cmd[1:]).replace("\n", " ")[:80]
        print(f"  [{name}] {shown}: exit {done.returncode}, {time.perf_counter() - t0:.0f} s", flush=True)
        if done.returncode != 0:
            failed.append({"command": cmd[1:], "exit": done.returncode, "stderr": done.stderr[-2000:]})
    records = set()
    for path in out.glob("*.json"):
        records.update((file, line) for file, line in json.loads(path.read_text()))
    return {"records": records, "failed": failed, "seconds": round(time.perf_counter() - start, 1)}


def command_sets(scratch: Path) -> dict[str, list[list[str]]]:
    """The three run sets, each a list of commands run from the repository root."""
    py = sys.executable
    served = [
        [py, str(HERE / f"bench_{name}.py"), "--smoke", "--output", str(scratch / f"BENCH_{name}.json")]
        for name in SMOKES
    ]
    served += [[py, str(path)] for path in sorted((REPO / "examples").glob("*.py"))]
    served += [
        [py, str(HERE / "e2e" / "run.py"), "--smoke"],
        [py, str(HERE / "decode_logits_sha.py"), "--spec", "4", "--stagger", "3"],
    ]
    return {
        "served": served,
        "modeled": [[py, "-c", MODELED, *(str(p) for pattern in FIGURE_SCRIPTS for p in sorted(HERE.glob(pattern)))]],
        "tests": [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
    }


def functions(root: Path) -> list[dict]:
    """Every function defined under ``root``, with the line its code object starts on and its body lines.

    Body lines are the non-blank, non-comment source lines of the body, less
    a leading docstring and the lines of nested functions (which count for
    themselves).  A *stub* has no body but ``...``, ``pass`` or ``raise
    NotImplementedError`` (a ``Protocol`` or abstract method): nothing is
    meant to enter it.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        module = path.relative_to(root.parent).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    record(child, prefix)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        def record(fn: ast.FunctionDef | ast.AsyncFunctionDef, prefix: str) -> None:
            body = fn.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(
                body[0].value.value, str
            ):
                body = body[1:]
            span = {n for stmt in body for n in range(stmt.lineno, stmt.end_lineno + 1)}
            for inner in ast.walk(fn):
                if inner is not fn and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([inner.lineno] + [d.lineno for d in inner.decorator_list])
                    span -= set(range(first, inner.end_lineno + 1))
            counted = [n for n in span if lines[n - 1].strip() and not lines[n - 1].strip().startswith("#")]
            stub = all(
                isinstance(s, ast.Pass)
                or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
                or (isinstance(s, ast.Raise) and "NotImplementedError" in ast.unparse(s))
                for s in body
            )
            found.append(
                {
                    "module": module,
                    "name": prefix + fn.name,
                    "file": str(path),
                    "line": min([fn.lineno] + [d.lineno for d in fn.decorator_list]),
                    "body_lines": len(counted),
                    "stub": stub,
                }
            )

        visit(ast.parse(text, filename=str(path)), "")
    return found


def classify(fns: list[dict], reached: dict[str, set]) -> None:
    """Set each function's ``sets`` (the run sets that entered it) and ``class``."""
    for fn in fns:
        key = (fn["file"], fn["line"])
        fn["sets"] = [name for name, records in reached.items() if key in records]
        fn["class"] = next(
            (cls for cls, name in zip(CLASSES, ("served", "modeled", "tests")) if name in fn["sets"]), "nothing"
        )


def module_table(fns: list[dict]) -> list[str]:
    """The per-module table: functions and body lines, then body lines per class."""
    modules = sorted({fn["module"] for fn in fns})
    head = f"{'module':<40} {'fns':>4} {'lines':>6} " + " ".join(f"{c:>12}" for c in CLASSES)
    rows = [head, "-" * len(head)]
    for module in modules + ["total"]:
        mine = [fn for fn in fns if module in ("total", fn["module"])]
        counts = [sum(fn["body_lines"] for fn in mine if fn["class"] == cls) for cls in CLASSES]
        if module == "total":
            rows.append("-" * len(head))
        rows.append(
            f"{module:<40} {len(mine):>4} {sum(fn['body_lines'] for fn in mine):>6} "
            + " ".join(f"{n:>12}" for n in counts)
        )
    return rows


def listing(fns: list[dict], cls: str) -> list[str]:
    """One line per function of class ``cls``: where it is, its name and body lines."""
    mine = [fn for fn in fns if fn["class"] == cls]
    rows = [f'"{cls}": {len(mine)} functions, {sum(fn["body_lines"] for fn in mine)} body lines']
    for fn in mine:
        tag = " [stub]" if fn["stub"] else ""
        rows.append(f"  {fn['module']}:{fn['line']} {fn['name']} ({fn['body_lines']}){tag}")
    return rows


def report(scratch: Path) -> int:
    """Run the three sets, print the tables, write ``reach.json``; 1 when a run failed."""
    hook_dir = scratch / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    runs = {name: run_set(name, cmds, hook_dir, PACKAGE) for name, cmds in command_sets(scratch).items()}
    fns = functions(PACKAGE)
    classify(fns, {name: run["records"] for name, run in runs.items()})
    for row in module_table(fns) + [""] + listing(fns, "tests only") + [""] + listing(fns, "nothing"):
        print(row)
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    sets = {name: {"seconds": run["seconds"], "failed": run["failed"]} for name, run in runs.items()}
    for fn in fns:
        fn["file"] = Path(fn["file"]).relative_to(REPO).as_posix()
    OUTPUT.write_text(json.dumps({"sets": sets, "functions": fns}, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT.relative_to(REPO)}")
    failed = [(name, f["command"]) for name, run in runs.items() for f in run["failed"]]
    for name, cmd in failed:
        print(f"FAILED [{name}] {' '.join(cmd)[:120]}: the reach of this set is incomplete", file=sys.stderr)
    return 1 if failed else 0


SELF_TEST_MODULE = '''\
def before():
    pass


def profiled():
    pass


def after():
    pass


def in_child():
    pass


def never():
    pass
'''

SELF_TEST_MAIN = """
import cProfile, subprocess, sys
from pkg import probe
probe.before()
cProfile.Profile().runcall(probe.profiled)
probe.after()
subprocess.run([sys.executable, "-c", "from pkg import probe; probe.in_child()"], check=True)
"""


def self_test(scratch: Path) -> int:
    """The hook in a child records calls before, inside and after a ``cProfile`` run, and in a grandchild."""
    hook_dir, root = scratch / "hook", scratch / "pkg"
    hook_dir.mkdir()
    root.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    (root / "probe.py").write_text(SELF_TEST_MODULE, encoding="utf-8")
    run = run_set("self-test", [[sys.executable, "-c", SELF_TEST_MAIN]], hook_dir, root)
    fns = functions(root)
    classify(fns, {"served": run["records"]})
    reached = {fn["name"] for fn in fns if fn["class"] == "served"}
    want = {"before", "profiled", "after", "in_child"}
    ok = not run["failed"] and reached == want
    print(f"reach self-test: reached {sorted(reached)}, expected {sorted(want)}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check in seconds that a child process records calls and the hook survives cProfile",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        return self_test(Path(scratch)) if args.self_test else report(Path(scratch))


if __name__ == "__main__":
    sys.exit(main())
