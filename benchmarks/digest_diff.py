"""Compare the ``decode_logits_sha.py`` digests of this tree with those of a git ref.

A change that claims to move no bit of the decode path must leave every
digest of ``benchmarks/decode_logits_sha.py`` equal to its parent's.  This
script exports ``--base REF``'s ``src/`` and ``benchmarks/`` into a temporary
directory (``git archive``, so the repository itself is left untouched) and
runs each tree's own ``decode_logits_sha.py`` against its own ``src/`` for the
ten standing configurations, each also with ``--keep 1``: twenty runs per
tree.  It prints both digests of every run and exits non-zero when any pair
differs or a run prints no digest.

BLAS is pinned to one thread in every run (the digests of a multi-threaded
GEMM depend on the core count), also for a ref whose ``decode_logits_sha.py``
predates its own pin.  The runs are sequential (the six ``--spec 4`` runs
per tree take the longest, about a minute each on one core).

    python benchmarks/digest_diff.py --base HEAD~1
    python benchmarks/digest_diff.py --base origin/main
"""

from __future__ import annotations

import argparse
import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The standing digest configurations (``decode_logits_sha.py`` arguments).
CONFIGS = (
    "",
    "--stagger 3",
    "--prompt 40 --steps 150",
    "--spec 4",
    "--spec 4 --stagger 3",
    "--churn 7",
    "--churn 7 --stagger 3",
    # A 2100-token prompt spans several prefill row chunks and passes the
    # streaming window.
    "--prompt 2100 --steps 40",
    # A KV4 dense pool: its codes, dequantising reads and the page
    # selections made over them, on the decode and the speculative path.
    "--kv-bits 4",
    "--kv-bits 4 --spec 4",
)


def export_tree(ref: str, into: Path) -> None:
    """Write ``ref``'s ``src/`` and ``benchmarks/`` under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src", "benchmarks"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def digest(tree: Path, args: str) -> str | None:
    """The ``sha256`` line's digest of one ``decode_logits_sha.py`` run on ``tree`` (``None`` if absent)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "decode_logits_sha.py"), *shlex.split(args)],
        env=env,
        capture_output=True,
        text=True,
    )
    if run.returncode:
        sys.stderr.write(run.stderr)
    lines = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("sha256 ")]
    return lines[-1] if run.returncode == 0 and lines else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare with (a commit, branch or tag)")
    args = parser.parse_args()

    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="digest-base-") as tmp:
        base = Path(tmp)
        export_tree(args.base, base)
        for config in CONFIGS:
            for run_args in (config, f"{config} --keep 1".strip()):
                want, got = digest(base, run_args), digest(ROOT, run_args)
                equal = want is not None and want == got
                mismatches += not equal
                print(f"{'equal' if equal else 'DIFFER':6}  [{run_args or 'default'}]", flush=True)
                print(f"        base {want}\n        head {got}", flush=True)
    total = 2 * len(CONFIGS)
    print(f"{total - mismatches} of {total} digests equal to {args.base}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
