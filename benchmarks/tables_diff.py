"""Compare the paper figure and table scripts' tables of this tree with those of a git ref.

A change to the modeled stack (``gpu/``, ``bench/``, ``baselines/``,
``eval/``) that claims to move no number must leave every table the figure
and table scripts print unchanged.  This script exports ``--base REF``'s
``src/`` and ``benchmarks/`` into a temporary directory (``digest_diff.py``'s
``git archive`` export, so the repository itself is left untouched), runs
each tree's own scripts (``reach.py``'s ``FIGURE_SCRIPTS``) against its own
``src/`` through ``reach.py``'s stand-in ``benchmark``/``report`` runner, one
process per script with BLAS on one thread, and compares the
``Table.format()`` text of every table.  It prints one line per script, a
unified diff of each table that differs, the scripts present on one side
only, and exits non-zero when a table differs or a script fails on either
tree (a script's own range asserts run too).  A script present on one side
only is listed, not failed: it was added or retired on purpose.

    python benchmarks/tables_diff.py --base HEAD~1
    python benchmarks/tables_diff.py --self-test    # the comparison on canned tables
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from digest_diff import export_tree
from reach import FIGURE_SCRIPTS, MODELED

ROOT = Path(__file__).resolve().parents[1]


def scripts(tree: Path) -> list[str]:
    """The figure and table script names under ``tree/benchmarks``."""
    bench = tree / "benchmarks"
    return sorted({p.name for pattern in FIGURE_SCRIPTS for p in bench.glob(pattern)})


def tables(tree: Path, script: str) -> list[str] | None:
    """Every table ``script`` reports on ``tree``, as text (``None`` if the script fails)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", MODELED, str(tree / "benchmarks" / script)],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    if run.returncode:
        sys.stderr.write(f"{script} failed on {tree}:\n{run.stderr[-2000:]}")
        return None
    return [text for text in run.stdout.split("\n\f\n") if text.strip()]


def compare(base: dict[str, list[str] | None], head: dict[str, list[str] | None]) -> tuple[list[str], int]:
    """The report lines and the number of failing scripts of one comparison."""
    lines, failures = [], 0
    for script in sorted(base.keys() & head.keys()):
        want, got = base[script], head[script]
        if want is None or got is None:
            failures += 1
            lines.append(f"FAILED  {script} (on {'base' if want is None else 'head'})")
        elif want == got:
            lines.append(f"equal   {script} ({len(got)} table{'s' * (len(got) != 1)})")
        else:
            failures += 1
            lines.append(f"DIFFER  {script}")
            for i in range(max(len(want), len(got))):
                a = want[i].splitlines() if i < len(want) else []
                b = got[i].splitlines() if i < len(got) else []
                lines += ["        " + d for d in difflib.unified_diff(a, b, "base", "head", lineterm="")]
    for side, names in (("removed", base.keys() - head.keys()), ("added", head.keys() - base.keys())):
        lines += [f"{side:<8}{script}" for script in sorted(names)]
    both = len(base.keys() & head.keys())
    lines.append(f"{both - failures} of {both} scripts on both trees print identical tables")
    return lines, failures


def self_test() -> int:
    """The comparison flags a differing table and a failed run, and only lists one-sided scripts."""
    table = "T\n=\na | b\n--+--\n1 | 2"
    lines, failures = compare(
        {"same.py": [table], "moved.py": [table, table], "broken.py": [table], "gone.py": [table]},
        {"same.py": [table], "moved.py": [table, table.replace("2", "3")], "broken.py": None, "new.py": [table]},
    )
    text = "\n".join(lines)
    checks = {
        "two failures": failures == 2,
        "equal script": "equal   same.py (1 table)" in text,
        "differing table": "DIFFER  moved.py" in text and "-1 | 2" in text and "+1 | 3" in text,
        "failed run": "FAILED  broken.py (on head)" in text,
        "one-sided scripts": "removed gone.py" in text and "added   new.py" in text,
        "identical alone": compare({"same.py": [table]}, {"same.py": [table]})[1] == 0,
    }
    for name, ok in checks.items():
        print(f"{'ok' if ok else 'FAIL':4}  {name}")
    return 0 if all(checks.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="git ref to compare with (a commit, branch or tag)")
    group.add_argument("--self-test", action="store_true", help="check the comparison on canned tables")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    with tempfile.TemporaryDirectory(prefix="tables-base-") as tmp:
        base = Path(tmp)
        export_tree(args.base, base)
        runs = {}
        for tree in (base, ROOT):
            runs[tree] = {script: tables(tree, script) for script in scripts(tree)}
            print(f"ran {len(runs[tree])} scripts on {'base' if tree == base else 'head'}", flush=True)
    lines, failures = compare(runs[base], runs[ROOT])
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
