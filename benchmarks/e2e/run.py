"""End-to-end wall-clock serving benchmark of the real LServe request path.

One command serves four seeded traffic mixes through ``CompletionServer`` ->
``AsyncServingEngine`` -> ``ServingEngine.step`` -> ``LServeBackend`` ->
``LServeEngine`` -> ``DualPagedKVCache``, prints every metric by name with its
unit, checks the outputs and writes one JSON result (see README.md)::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--smoke]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The second form is the one ``BENCHMARK.json`` names: one workload, measured
for about ``S`` accepted seconds, its last output line one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Each workload runs in its own fresh child process (this same file with
``--job``), one after another, so ``setup_s`` and ``peak_rss_mb`` belong to
that workload alone.
"""

from __future__ import annotations

import os

# One thread: server, load generator and BLAS share the machine's two cores
# with nothing else.  Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
# BENCHMARK.json's command may name nothing outside benchmarks/e2e, so the
# program under test is put on the path here and not through PYTHONPATH.
sys.path.insert(1, str(REPO / "src"))
if importlib.util.find_spec("repro") is None:
    sys.exit(f"run.py: the program under test (package 'repro') is not at {REPO / 'src'}")

import numpy as np  # noqa: E402

from guard import Guard  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
SMOKE_SCALE = 0.25
#: What one workload may lose to seeking the fast state and re-running blocks:
#: in a timed run (BENCHMARK.json's form, whose total time is capped) ...
TIMED_LOSS_BUDGET_S = 12.0
#: ... and in a full invocation.
FULL_LOSS_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 900.0


def spawn(job: dict) -> dict:
    """Run one job in a fresh child process and return the result it printed."""
    job["spawned_at"] = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--job", json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    for line in done.stdout.splitlines():
        if line.startswith("E2E_WORKER_RESULT "):
            return json.loads(line.split(" ", 1)[1])
    sys.exit(f"run.py: the {job['workload']} child exited with code {done.returncode} and no result")


def make_job(workload: str, seed: int, **fields) -> dict:
    """A child's instructions; every field has a default here."""
    job = {
        "workload": workload,
        "seed": seed,
        "scale": 1.0,  # < 1 shrinks blocks (--smoke)
        "setup_only": False,  # build, warm up, report setup_s, exit
        "trace": False,  # run the traced pass after the untraced one
        "ref_ms": None,  # fastest calibration reading so far; None: no guard
        "loss_budget_s": 0.0,  # what the guard may still lose to seeking and re-running
        "cpus": None,  # the CPUs the guard may move between
        "blocks": None,  # serve exactly this many blocks per pass ...
        "seconds": None,  # ... or blocks until this many accepted seconds
        "chrome_trace": None,  # where to write the first traced block's spans
    }
    job.update(fields)
    return job


def run_workload(name: str, args, guard: Guard | None) -> dict:
    """Set-up samples in fresh children, then the measuring child, for one workload."""
    tracing = args.trace != 0
    samples = []  # (setup_s, the slower of the readings on both sides)
    if args.trace != 1:
        for _ in range(1 if args.smoke else SETUP_SAMPLES):
            before = guard.seek(guard.left_s) if guard else 0.0
            setup_s = spawn(make_job(name, args.seed, setup_only=True))["setup_s"]
            samples.append((setup_s, max(before, guard.reading()) if guard else 0.0))
    job = make_job(
        name,
        args.seed,
        scale=SMOKE_SCALE if args.smoke else 1.0,
        trace=tracing,
        ref_ms=guard.ref_ms if guard else None,
        loss_budget_s=guard.left_s if guard else 0.0,
        cpus=guard.cpus if guard else None,
        blocks=None if args.seconds else (1 if args.smoke else WORKLOADS[name].blocks),
        seconds=args.seconds,
        chrome_trace=str(OUT / f"trace-{name}.json") if tracing else None,
    )
    result = spawn(job)
    if guard is not None:
        guard.ref_ms = min(guard.ref_ms, result["calib"]["ref_ms"])
        result["calib"]["lost_s"] += guard.lost_s
    if samples:
        # Like a block, a sample counts if the machine read fast on both sides of it.
        fast = [s for s, ms in samples if guard is None or guard.fast(ms)]
        result["setup_samples_s"] = [s for s, _ in samples]
        result["end_to_end"]["setup_s"] = statistics.median(fast or result["setup_samples_s"])
    return result


def environment(seed: int) -> dict:
    """What the numbers were measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def print_workload(result: dict, show_end_to_end: bool, show_layers: bool) -> None:
    """Every metric by name with its unit, sample counts beside the end-to-end ones."""
    calib = result["calib"]
    print(f"\n== {result['workload']}: blocks {result['blocks']}, requests attempted {result['attempted']} "
          f"succeeded {result['attempted'] - result['failed']} failed {result['failed']}, "
          f"calib.state {calib['state']} (lost {calib['lost_s']:.1f} s, {calib['blocks_rerun']} blocks re-run), "
          f"inputs sha256 {result['requests_sha256'][:16]}")
    for tag, p in result["passes"].items():
        print(f"   {tag} pass: requests attempted {p['attempted']} succeeded {p['attempted'] - p['failed']} "
              f"failed {p['failed']}")
    for failure in result["failures"]:
        print(f"   FAILURE {failure}")
    if show_end_to_end:
        for name, unit, _, _ in END_TO_END:
            n = result["samples"].get(name)
            if name == "setup_s":
                n = len(result["setup_samples_s"])
            count = f"   (n={n})" if n is not None else ""
            print(f"   {name:<34}{result['end_to_end'][name]:>14.4f} {unit}{count}")
    if show_layers:
        for name, unit, _ in PER_LAYER:
            print(f"   {name:<34}{result['per_layer'][name]:>14.6g} {unit}")


def contract_line(result: dict, names) -> str:
    """The one-line JSON object BENCHMARK.json's driver reads."""
    source = result["end_to_end"] if names is END_TO_END else result["per_layer"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": source[name], "unit": UNITS[name]} for name, *_ in names},
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the request lists")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this workload only")
    parser.add_argument("--seconds", type=float, help="accept blocks until this many measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: untraced pass only; 1: report the traced pass")
    parser.add_argument("--smoke", action="store_true", help="one shrunken block per workload, no guard")
    parser.add_argument("--job", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.job:
        import asyncio

        from worker import run_job

        print("E2E_WORKER_RESULT " + json.dumps(asyncio.run(run_job(json.loads(args.job)))))
        return 0

    OUT.mkdir(exist_ok=True)
    results = []
    ref_ms = None
    cpus = sorted(os.sched_getaffinity(0))
    for name in [args.workload] if args.workload else list(WORKLOADS):
        guard = None
        if not args.smoke:
            guard = Guard(ref_ms, TIMED_LOSS_BUDGET_S if args.seconds else FULL_LOSS_BUDGET_S, cpus)
        results.append(run_workload(name, args, guard))
        ref_ms = guard.ref_ms if guard else None
        print_workload(results[-1], show_end_to_end=args.trace != 1, show_layers=args.trace != 0)

    report = {
        "benchmark": "e2e",
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "workloads": {r["workload"]: r for r in results},
    }
    tag = "smoke" if args.smoke else f"seed{args.seed}"
    if args.workload:
        tag += f"-{args.workload}-trace{'both' if args.trace is None else args.trace}"
    path = OUT / f"result-{tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\n[saved to {path}]")
    if args.workload and args.trace is not None:
        print(contract_line(results[0], PER_LAYER if args.trace else END_TO_END))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
