"""Self-test of the end-to-end benchmark: structure only, no timing threshold.

The benchmark's files are loaded by path under private names: ``trace.py``
shares its name with a stdlib module, and nothing here may depend on which of
the two ``import trace`` would find inside a pytest process.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load(stem: str):
    name = f"e2e_bench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, HERE / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses looks the defining module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = load("workloads")
spans = load("trace")
metrics = load("metrics")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_result() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads((HERE / "out" / "result-smoke.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_pure_function_of_name_seed_and_block(name):
    first = [workloads.block_requests(name, 7, b) for b in range(2)]
    again = [workloads.block_requests(name, 7, b) for b in range(2)]
    other = [workloads.block_requests(name, 8, b) for b in range(2)]
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)
    # Stratified lengths: the same work in every block and under every seed.
    work = {
        (sum(len(r.prompt) for r in block), sum(r.max_tokens for r in block), len(block))
        for block in first + other
    }
    assert len(work) == 1
    assert all(0 <= t < workloads.VOCAB_SIZE for block in first for r in block for t in r.prompt)


def test_spec_decode_serves_32_distinct_prompts_repeatedly():
    blocks = [workloads.block_requests("spec_decode", 3, b) for b in range(8)]
    by_key = {}
    for r in (r for block in blocks for r in block):
        assert by_key.setdefault(r.prompt_key, r.prompt) == r.prompt
    assert len(by_key) == workloads.SPEC_DISTINCT_PROMPTS
    assert len({r.prompt for block in blocks[:4] for r in block}) == workloads.SPEC_DISTINCT_PROMPTS


def test_self_time_is_duration_minus_direct_children():
    #   root 0..10
    #     a 1..4
    #       a1 2..3
    #     b 5..9
    #   lone 11..12
    tree = [[0, 0.0, 10.0, -1, None], [1, 1.0, 4.0, 0, None], [2, 2.0, 3.0, 1, None],
            [1, 5.0, 9.0, 0, None], [3, 11.0, 12.0, -1, None]]
    selfs = spans.self_times(tree)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 1.0]
    # On one thread the self times add up to the time covered by the roots.
    assert sum(selfs) == 11.0


def test_tracer_records_nesting_and_restores_what_it_wrapped():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer, tracer = Layer(), spans.Tracer()
    tracer.install(layer, "outer", "layer.outer")
    tracer.install(layer, "inner", "layer.inner", lambda owner, args, result: result)
    assert layer.outer() == 2
    recorded = tracer.take()
    assert [(tracer.names[s[0]], s[3], s[4]) for s in recorded] == [("layer.outer", -1, None), ("layer.inner", 0, 1)]
    assert recorded[0][1] <= recorded[1][1] <= recorded[1][2] <= recorded[0][2]
    tracer.restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)


def test_names_units_and_counts_are_within_the_contract(benchmark_json):
    assert len(workloads.WORKLOADS) == 4
    assert len(metrics.END_TO_END) == 7
    assert len(metrics.PER_LAYER) <= 128
    names = [n for n, *_ in metrics.END_TO_END + metrics.PER_LAYER] + list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert all(UNIT_RE.fullmatch(u) for u in metrics.UNITS.values())
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in workloads.WORKLOADS.values())
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)
    assert len(json.dumps(benchmark_json)) < 64 * 1024


def test_benchmark_json_lists_exactly_the_benchmarks_own_names(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["command"][-1] == "benchmarks/e2e/run.py"
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark_json["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


def test_smoke_result_reports_every_name_and_serves_correctly(benchmark_json, smoke_result):
    assert list(smoke_result["workloads"]) == [w["name"] for w in benchmark_json["workloads"]]
    for result in smoke_result["workloads"].values():
        assert set(result["end_to_end"]) == {m["name"] for m in benchmark_json["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in benchmark_json["per_layer"]}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert result["per_layer"]["kv.leaked_pages"] == 0
        assert result["per_layer"]["scheduler.preemptions"] == 0
        assert len(result["requests_sha256"]) == 64
    chat = smoke_result["workloads"]["chat_http"]["per_layer"]
    assert chat["selector.select_calls"] == 0 and chat["kv.gather_selected_calls"] == 0
    for name, result in smoke_result["workloads"].items():
        if name != "spec_decode":
            assert result["per_layer"]["backend.spec_calls"] == 0
