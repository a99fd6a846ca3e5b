"""Which ``src/repro`` functions a served run, a modeled figure or a test reaches.

A function counts as reached when at least one call enters it.  Three run
sets are measured, one after another:

* *served*: the eight serving benchmarks' ``--smoke`` runs, the eight
  examples, ``benchmarks/e2e/run.py --smoke`` and ``decode_logits_sha.py
  --spec 4 --stagger 3``;
* *modeled*: the 18 paper figure and table scripts (``bench_fig*``,
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

*Argument reach* asks the same of parameters.  Its targets are every public
function, method and ``__init__`` under ``src/repro`` with a defaulted
parameter, and every ``@dataclass`` with a ``__post_init__`` (its defaulted
fields, read off ``self`` when ``__post_init__`` is entered).  On each call
into a target the hook keeps ``repr(value)[:80]`` of every defaulted
parameter (a NumPy array by its shape and dtype: its repr costs more than the
call), up to eight distinct values each.  ``reach.json``'s ``arguments`` list
holds every such parameter with its default and the values each set passed,
and per set the script prints the parameters that set only ever left at
their default.  Each served one is shown with the reason it stays
(:data:`KEEP`) or as ``no reason to keep``: an option the next simplicity
change can remove.

``--check`` makes the function report a gate: it exits 1 when a public
function (no part of its name private, a ``Protocol`` or abstract stub
aside) is reached by tests only or by nothing and no :data:`EXEMPT` entry
names it with a reason.  Every other such function is code to delete.  The
whole run takes about 3 minutes on a 2-vCPU machine::

    python benchmarks/reach.py
    python benchmarks/reach.py --check        # the same run, then the gate
    python benchmarks/reach.py --self-test    # seconds: the hook and the gate

How a call is seen: a ``sitecustomize`` module, written into a temporary
directory that goes first on ``PYTHONPATH``, installs a ``sys.setprofile``
hook in every Python process the runs start, children included (the e2e
runner's worker too: it puts ``src`` on ``sys.path`` itself, but inherits
the environment).  Each process writes the code objects it entered under
``src/repro`` and the argument values it saw to a file when it exits, with
each target's defaults as the process's own module objects hold them.  ``cProfile`` replaces the hook while
it runs and clears it when it stops (``bench_hotpath.py`` and
``tests/core/test_decode_vectorized.py`` profile a decode step), so the hook
patches ``cProfile.Profile.disable`` to take the profiler's own code objects
and install the hook again; calls made while a profiler runs record no
arguments.
"""

from __future__ import annotations

import argparse
import ast
import json
from fnmatch import fnmatch
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

#: Runs every figure script named on its command line with stand-in fixtures;
#: ``report`` prints each table's text, then a form-feed line.
MODELED = """
import importlib.util, sys
from repro.bench.tables import Table

class Benchmark:
    def pedantic(self, fn, rounds=1, iterations=1):
        return fn()

def report(tables, name):
    for table in [tables] if isinstance(tables, Table) else tables:
        print(table.format(), end="\\n\\f\\n")

for path in sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("figure", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, fn in vars(module).items():
        if name.startswith("test_"):
            fn(Benchmark(), report)
"""

CLASSES = ("served", "modeled only", "tests only", "nothing")

#: The keep rule: why a parameter that served runs only ever leave at its
#: default stays.  Each reason lists ``module:function.parameter`` patterns
#: (``fnmatch``); a served default-only parameter that none matches is
#: reported as "no reason to keep".
KEEP: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "deployment setting: where and as what the server listens, the tokenizer, the cold tier's size",
        (
            "repro/serving/http.py:CompletionServer.__init__.*",
            "repro/model/tokenizer.py:ToyTokenizer*",
            "repro/kvcache/tiering.py:KVTieringConfig.max_cold_pages",
            "repro/kvcache/tiering.py:ColdTierStore.__init__.max_pages",
        ),
    ),
    (
        "external input: a request's sampling, priority and stream flag, the per-priority metric views, seeds",
        (
            "repro/serving/sampling.py:SamplingParams.*",
            "repro/core/engine.py:LServeEngine.generate.sampling",
            "repro/serving/request.py:Request*.priority",
            "repro/serving/metrics.py:ServingMetrics.*.priority",
            "repro/serving/client.py:replay_trace.stream",
            "*.seed",
        ),
    ),
    (
        "an interface the HTTP server calls on both engine kinds",
        ("repro/serving/*:*.submit.arrive_now",),
    ),
    (
        "a paper knob that items 1 and 4 sweep: LServeConfig and what it feeds",
        (
            "repro/core/config.py:LServeConfig.*",
            "repro/core/page_selector.py:*",
            "repro/core/hierarchical_paging.py:select_top_pages.*",
            "repro/core/head_classifier.py:*",
        ),
    ),
    (
        "the generality of a test oracle: reference kernels, the reference model",
        (
            "repro/attention/dense.py:*.causal",
            "repro/attention/dense.py:*.scale",
            "repro/model/transformer.py:TinyTransformer.__init__.weights",
        ),
    ),
    (
        "model architecture: values a ModelConfig carries, the tiny test model's shape",
        (
            "repro/attention/rope.py:RotaryEmbedding.*",
            "repro/attention/softmax.py:softmax.axis",
            "repro/model/transformer.py:rms_norm.eps",
            "repro/model/configs.py:tiny_model_config.*",
        ),
    ),
    (
        "a per-replica component: draft sources",
        ("repro/serving/cluster/*:*.draft_sources", "repro/serving/cluster/*:*.decode_draft_sources"),
    ),
    (
        "owned by items 3 and 10: the modeled stack (gpu/, bench/, baselines/, eval/, the cold tier's cost)",
        (
            "repro/gpu/*",
            "repro/bench/*",
            "repro/baselines/*",
            "repro/eval/*",
            "repro/kvcache/tiering.py:KVTieringConfig.restore_cost",
        ),
    ),
)

#: The exemption rule: why a public function that no served or modeled run
#: reaches stays.  Each reason lists ``module:qualname`` patterns (``fnmatch``);
#: ``--check`` fails on a tests-only or unreached public function that none
#: matches.  A reason is an owning ROADMAP item, a test oracle, an audit the
#: tests run, the HTTP server's interface, or served code no served run takes.
EXEMPT: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "item 2's hostages: benchmarks/e2e/trace.py's PLAN wraps these names (the fork chain with them)",
        (
            "repro/core/engine.py:LServeEngine.fork_sequence",
            "repro/core/engine.py:LServeEngine.decode_speculative",
            "repro/core/unified_sparse_attention.py:decode_group_attention",
            "repro/kvcache/dual_cache.py:DualPagedKVCache.fork_sequence",
            "repro/kvcache/dual_cache.py:DualPagedKVCache.append_batch",
            "repro/kvcache/paged_cache.py:PagedKVCache.fork_sequence",
            "repro/kvcache/paged_cache.py:PagedKVCache.selected_token_count",
            "repro/kvcache/paged_cache.py:PagedKVCache.page_image",
            "repro/kvcache/paged_cache.py:PagedKVCache.install_page_image",
            "repro/serving/backend.py:*Backend.decode_speculative",
            "repro/serving/backend.py:SpecBatchResult.only",
        ),
    ),
    (
        "item 19: the page-exhaustion paths",
        (
            "repro/core/engine.py:DecodeOutOfPagesError.__init__",
            "repro/serving/request.py:RequestState.demote_to_preempt",
            "repro/serving/scheduler.py:ContinuousBatchingScheduler.force_preempt",
            "repro/serving/scheduler.py:ContinuousBatchingScheduler.reclassify_demotion_as_preemption",
            "repro/serving/engine.py:ServingEngine._requeue",
        ),
    ),
    (
        "item 23: the memory model",
        (
            "repro/kvcache/*:*.operand_block_bytes",
            "repro/kvcache/*:*.memory_bytes_model",
            "repro/kvcache/operand_blocks.py:OperandBlocks.nbytes",
        ),
    ),
    (
        "item 24: prefix eviction under pool pressure",
        ("repro/kvcache/prefix_index.py:PrefixIndex.evict_until", "repro/kvcache/prefix_index.py:PrefixIndex._nodes"),
    ),
    (
        "item 1: the ablation configurations",
        ("repro/core/config.py:LServeConfig.*_only",),
    ),
    (
        "items 3 and 10: the modeled stack (gpu/, bench/, baselines/, eval/, the paper's model configs)",
        ("repro/gpu/*", "repro/bench/*", "repro/baselines/*", "repro/eval/*", "repro/model/configs.py:*"),
    ),
    ("item 21: the hand-off's size on the wire", ("repro/serving/backend.py:KVHandoff.transfer_bytes",)),
    (
        "a test oracle: reference masks the tests compare the kernels with",
        (
            "repro/attention/masks.py:mask_from_block_mask",
            "repro/attention/masks.py:block_sparsity",
        ),
    ),
    (
        "a leak or invariant audit: tests/conftest.py's leak audit and the invariant fuzzer read these",
        (
            "repro/kvcache/allocator.py:PageAllocator.*",
            "repro/kvcache/operand_blocks.py:OperandBlocks.blocks",
            "repro/kvcache/paged_cache.py:PagedKVCache.has_sequence",
            "repro/kvcache/paged_cache.py:PagedKVCache.sequences",
            "repro/kvcache/prefix_index.py:PrefixIndex.num_nodes",
            "repro/kvcache/prefix_index.py:PrefixIndex.held_pages",
            "repro/kvcache/tiering.py:ColdTierStore.num_entries",
            "repro/kvcache/tiering.py:ColdTierStore.__contains__",
        ),
    ),
    (
        "the interface the HTTP server calls on both engine kinds",
        (
            "repro/serving/cluster/cluster.py:ServingCluster.attach_admission_probe",
            "repro/serving/cluster/cluster.py:ServingCluster.abort",
            "repro/serving/cluster/cluster.py:ServingCluster.live_gauges",
            "repro/serving/cluster/cluster.py:ServingCluster.pools",
            "repro/serving/cluster/cluster.py:ClusterRequestHandle.*",
        ),
    ),
    (
        "a served code path that no served run takes: lookups, aborts, errors, speculation totals, cold-tier reads",
        (
            "repro/serving/http.py:CompletionServer._cancel_at_eof",
            "repro/serving/http.py:CompletionServer._completion_body",
            "repro/serving/http.py:CompletionServer._respond_error",
            "repro/kvcache/tiering.py:ColdTierStore.num_tokens",
            "repro/kvcache/tiering.py:ColdTierStore.discard",
            "repro/serving/frontend.py:AsyncServingEngine.handle",
            "repro/serving/frontend.py:RequestAborted.__init__",
            "repro/serving/metrics.py:RequestRecord.draft_acceptance_rate",
            "repro/serving/metrics.py:RequestRecord.spec_effective_tokens_per_step",
            "repro/serving/metrics.py:ServingMetrics.total_demotions",
            "repro/serving/metrics.py:ServingMetrics.total_draft_tokens_proposed",
            "repro/serving/metrics.py:ServingMetrics.draft_acceptance_rate",
            "repro/serving/request.py:RequestState.mark_finished",
            "repro/serving/scheduler.py:ContinuousBatchingScheduler.submit",
            "repro/serving/scheduler.py:ContinuousBatchingScheduler.waiting",
        ),
    ),
)

HOOK = '''\
"""Records the code objects under REACH_ROOT this process enters and the
arguments REACH_TARGETS' functions receive (see benchmarks/reach.py)."""
import atexit
import json
import os
import sys
import threading

_ROOT = os.environ.get("REACH_ROOT")
_OUT = os.environ.get("REACH_OUT")
_codes = set()
#: ``"file:line"`` -> (module, qualname, read off self, defaulted parameters).
_TARGETS = {}
#: code object -> its _Target, or None when the code is no target.
_specs = {}
#: Distinct values kept per parameter: past that many it is plainly set.
_CAP = 8
#: CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR: a resumption is a "call" too.
_RESUMABLE = 0x20 | 0x80 | 0x200


class _Target:
    __slots__ = ("key", "module", "qualname", "from_self", "values", "resumable", "start")

    def __init__(self, key, code, module, qualname, from_self, names):
        self.key = key
        self.module = module
        self.qualname = qualname
        self.from_self = from_self
        self.values = {name: set() for name in names}
        self.resumable = bool(code.co_flags & _RESUMABLE)
        self.start = None


def _show(value):
    if type(value).__name__ == "ndarray":
        return f"<ndarray shape={value.shape} dtype={value.dtype}>"
    try:
        return repr(value)[:80]
    except Exception:
        return f"<{type(value).__name__}: repr failed>"


def _record(target, frame):
    if target.resumable:
        # Only a fresh frame holds the arguments as passed: every
        # resumption starts later in the code than the first entry.
        if target.start is None:
            target.start = frame.f_lasti
        elif frame.f_lasti != target.start:
            return
    local = frame.f_locals
    owner = local.get("self")
    for name, kept in target.values.items():
        if len(kept) < _CAP:
            if target.from_self:
                value = getattr(owner, name, None)
            else:
                value = local.get(name)
            kept.add(_show(value))


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes.add(code)
        target = _specs.get(code, 0)
        if target == 0:
            key = f"{os.path.abspath(code.co_filename)}:{code.co_firstlineno}"
            spec = _TARGETS.get(key)
            target = _specs[code] = None if spec is None else _Target(key, code, *spec)
        if target is not None:
            _record(target, frame)


def install():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _defaults(target):
    """Each parameter's default as this process's module objects hold it ({} when unresolvable)."""
    import dataclasses
    import inspect

    try:
        obj = sys.modules[target.module]
        for part in target.qualname.split("."):
            obj = getattr(obj, part)
        if target.from_self:
            return {
                f.name: _show(f.default if f.default is not dataclasses.MISSING else f.default_factory())
                for f in dataclasses.fields(obj)
                if f.name in target.values
            }
        params = inspect.signature(obj).parameters
        return {name: _show(params[name].default) for name in target.values if name in params}
    except Exception:
        return {}


def _dump():
    sys.setprofile(None)
    seen = sorted({(os.path.abspath(c.co_filename), c.co_firstlineno) for c in _codes})
    rows = [row for row in seen if row[0].startswith(_ROOT)]
    arguments = [
        [t.key, {name: sorted(kept) for name, kept in t.values.items()}, _defaults(t)]
        for t in _specs.values()
        if t is not None and any(t.values.values())
    ]
    with open(os.path.join(_OUT, f"{os.getpid()}-{id(_codes)}.json"), "w") as f:
        json.dump({"codes": rows, "arguments": arguments}, f)


if _ROOT and _OUT:
    import cProfile

    if os.environ.get("REACH_TARGETS"):
        with open(os.environ["REACH_TARGETS"]) as f:
            _TARGETS.update(json.load(f))

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
    """Run ``commands`` under the hook; returns the set's records, arguments and failures.

    ``root`` is the directory whose code objects count; it goes on
    ``PYTHONPATH`` after the hook.  The argument targets are read from
    ``hook_dir / "targets.json"`` (see :func:`write_targets`).  ``records``
    holds ``(file, first line)`` per code object entered; ``arguments`` maps
    a target's ``"file:line"`` to each parameter's values seen and defaults.
    """
    out = hook_dir / name
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook_dir), str(root.parent), env.get("PYTHONPATH")]))
    env["REACH_ROOT"] = str(root) + os.sep
    env["REACH_OUT"] = str(out)
    env["REACH_TARGETS"] = str(hook_dir / "targets.json")
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
    arguments: dict[str, dict] = {}
    for path in out.glob("*.json"):
        dump = json.loads(path.read_text())
        records.update((file, line) for file, line in dump["codes"])
        for key, values, defaults in dump["arguments"]:
            seen = arguments.setdefault(key, {"values": {}, "defaults": {}})
            for param, kept in values.items():
                seen["values"].setdefault(param, set()).update(kept)
            seen["defaults"].update(defaults)
    return {
        "records": records,
        "arguments": arguments,
        "failed": failed,
        "seconds": round(time.perf_counter() - start, 1),
    }


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def _is_defaulted_field(value: ast.expr) -> bool:
    """Whether a dataclass field assigned ``value`` is an ``__init__`` parameter with a default."""
    if not (
        isinstance(value, ast.Call)
        and (
            (isinstance(value.func, ast.Name) and value.func.id == "field")
            or (isinstance(value.func, ast.Attribute) and value.func.attr == "field")
        )
    ):
        return True
    keywords = {kw.arg: kw.value for kw in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def argument_targets(root: Path) -> list[dict]:
    """Every public function, method and ``__init__`` under ``root`` with a defaulted
    parameter, and every public ``@dataclass`` with a ``__post_init__``.

    A target is keyed like a function, by ``(file, first line)``: the
    function's own, or the dataclass's ``__post_init__`` (whose ``self``
    holds the field values as passed).  ``params`` lists each defaulted
    parameter (field) with the source text of its default.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        if any(part.startswith("_") and part != "__init__.py" for part in rel.parts):
            continue
        parts = rel.with_suffix("").parts
        dotted = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def add(qualname: str, line: int, from_self: bool, params: list) -> None:
            if params:
                found.append(
                    {
                        "module": rel.as_posix(),
                        "dotted": dotted,
                        "function": qualname,
                        "file": str(path),
                        "line": line,
                        "from_self": from_self,
                        "params": params,
                    }
                )

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
                    visit(child, f"{prefix}{child.name}.")
                    post_init = [
                        n for n in child.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"
                    ]
                    if _is_dataclass(child) and post_init:
                        params = [
                            (n.target.id, ast.unparse(n.value))
                            for n in child.body
                            if isinstance(n, ast.AnnAssign)
                            and isinstance(n.target, ast.Name)
                            and n.value is not None
                            and "ClassVar" not in ast.unparse(n.annotation)
                            and _is_defaulted_field(n.value)
                        ]
                        first = min([post_init[0].lineno] + [d.lineno for d in post_init[0].decorator_list])
                        add(prefix + child.name, first, True, params)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    child.name == "__init__" or not child.name.startswith("_")
                ):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    defaulted = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
                    defaulted += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    add(prefix + child.name, first, False, [(a.arg, ast.unparse(d)) for a, d in defaulted])

        visit(tree, "")
    return found


def write_targets(path: Path, targets: list[dict]) -> None:
    """The hook's target table: ``"file:line"`` -> (module, qualname, read off self, parameters)."""
    table = {
        f"{t['file']}:{t['line']}": [t["dotted"], t["function"], t["from_self"], [name for name, _ in t["params"]]]
        for t in targets
    }
    path.write_text(json.dumps(table), encoding="utf-8")


def argument_reach(targets: list[dict], runs: dict[str, dict]) -> list[dict]:
    """One entry per defaulted parameter: its default, the values each set passed, and the
    sets that only ever passed its default (``None`` when the default could not be resolved)."""
    entries = []
    for target in targets:
        key = f"{target['file']}:{target['line']}"
        for param, default in target["params"]:
            shown = next(
                (run["arguments"][key]["defaults"].get(param) for run in runs.values() if key in run["arguments"]),
                None,
            )
            if shown is None:
                try:
                    shown = repr(ast.literal_eval(default))[:80]
                except (ValueError, SyntaxError):
                    pass
            values = {
                name: sorted(run["arguments"][key]["values"][param])
                for name, run in runs.items()
                if key in run["arguments"] and run["arguments"][key]["values"].get(param)
            }
            entries.append(
                {
                    "module": target["module"],
                    "function": target["function"],
                    "param": param,
                    "file": target["file"],
                    "line": target["line"],
                    "default": default,
                    "values": values,
                    "default_only": None
                    if shown is None
                    else [name for name, seen in values.items() if seen == [shown]],
                    "keep": reason_for(f"{target['module']}:{target['function']}.{param}", KEEP),
                }
            )
    return entries


def reason_for(name: str, table: tuple) -> str | None:
    """The first reason of ``table`` (:data:`KEEP` or :data:`EXEMPT`) with a pattern matching ``name``, or ``None``."""
    return next((reason for reason, patterns in table if any(fnmatch(name, p) for p in patterns)), None)


def argument_listing(entries: list[dict], run_set: str) -> list[str]:
    """The parameters ``run_set`` called only ever at their default, with each one's keep reason."""
    called = [e for e in entries if run_set in e["values"]]
    mine = [e for e in called if e["default_only"] and run_set in e["default_only"]]
    rows = [f'"{run_set}": {len(mine)} of {len(called)} parameters it passed were only ever their default']
    for e in mine:
        reason = e["keep"] or "no reason to keep"
        rows.append(f"  {e['module']}:{e['line']} {e['function']}({e['param']}={e['default']}): {reason}")
    return rows


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
    """One line per function of class ``cls``: where it is, its name, body lines and exemption."""
    mine = [fn for fn in fns if fn["class"] == cls]
    rows = [f'"{cls}": {len(mine)} functions, {sum(fn["body_lines"] for fn in mine)} body lines']
    for fn in mine:
        tag = " [stub]" if fn["stub"] else ""
        reason = f": {fn['exempt']}" if fn.get("exempt") else ""
        rows.append(f"  {fn['module']}:{fn['line']} {fn['name']} ({fn['body_lines']}){tag}{reason}")
    return rows


def is_public(fn: dict) -> bool:
    """No part of the module path or the qualified name is private (dunders are public)."""
    parts = fn["module"].removesuffix(".py").split("/") + fn["name"].split(".")
    return not any(p.startswith("_") and not (p.startswith("__") and p.endswith("__")) or p == "<locals>" for p in parts)


def mark_exempt(fns: list[dict], exempt: tuple = EXEMPT) -> None:
    """Set ``exempt`` on every non-stub function that tests only or nothing reach (``None`` elsewhere)."""
    for fn in fns:
        unreached = fn["class"] in ("tests only", "nothing") and not fn["stub"]
        fn["exempt"] = reason_for(f"{fn['module']}:{fn['name']}", exempt) if unreached else None


def violations(fns: list[dict]) -> list[dict]:
    """The public non-stub functions that tests only or nothing reach and no exemption names."""
    return [
        fn
        for fn in fns
        if fn["class"] in ("tests only", "nothing") and not fn["stub"] and is_public(fn) and not fn["exempt"]
    ]


def argument_totals(targets: list[dict], entries: list[dict]) -> list[str]:
    """Targets and defaulted parameters, then per set: parameters passed, and only ever at their default."""
    rows = [f"argument reach: {len(targets)} targets, {len(entries)} defaulted parameters"]
    for name in ("served", "modeled", "tests"):
        called = [e for e in entries if name in e["values"]]
        only = [e for e in called if e["default_only"] and name in e["default_only"]]
        unkept = [e for e in only if e["keep"] is None]
        rows.append(
            f"  {name:<8} passed {len(called):>4}, only ever their default {len(only):>4}"
            f" (no reason to keep: {len(unkept)})"
        )
    return rows


def prepare_hook(hook_dir: Path, root: Path) -> list[dict]:
    """Write the hook and its target table into ``hook_dir``; returns the targets under ``root``."""
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    targets = argument_targets(root)
    write_targets(hook_dir / "targets.json", targets)
    return targets


def report(scratch: Path, check: bool = False) -> int:
    """Run the three sets, print the tables, write ``reach.json``; 1 when a run failed
    (or, with ``check``, when a public function is unreached without an exemption)."""
    hook_dir = scratch / "hook"
    targets = prepare_hook(hook_dir, PACKAGE)
    runs = {name: run_set(name, cmds, hook_dir, PACKAGE) for name, cmds in command_sets(scratch).items()}
    fns = functions(PACKAGE)
    classify(fns, {name: run["records"] for name, run in runs.items()})
    mark_exempt(fns)
    for row in module_table(fns) + [""] + listing(fns, "tests only") + [""] + listing(fns, "nothing"):
        print(row)
    entries = argument_reach(targets, runs)
    for name in ("served", "modeled", "tests"):
        print()
        for row in argument_listing(entries, name):
            print(row)
    print()
    for row in argument_totals(targets, entries) + ["", "keep rule:"] + [f"  {reason}" for reason, _ in KEEP]:
        print(row)
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    sets = {name: {"seconds": run["seconds"], "failed": run["failed"]} for name, run in runs.items()}
    for item in fns + entries:
        item["file"] = Path(item["file"]).relative_to(REPO).as_posix()
    OUTPUT.write_text(
        json.dumps({"sets": sets, "functions": fns, "arguments": entries}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {OUTPUT.relative_to(REPO)}")
    failed = [(name, f["command"]) for name, run in runs.items() for f in run["failed"]]
    for name, cmd in failed:
        print(f"FAILED [{name}] {' '.join(cmd)[:120]}: the reach of this set is incomplete", file=sys.stderr)
    unexempt = violations(fns) if check else []
    for fn in unexempt:
        print(
            f"CHECK {fn['module']}:{fn['line']} {fn['name']} is reached by {fn['class'].replace(' only', '')} only"
            " and no EXEMPT reason names it: delete it, reach it from a served run, or exempt it",
            file=sys.stderr,
        )
    if check:
        print(f"check: {len(unexempt)} unexempt public functions reached by tests only or nothing")
    return 1 if failed or unexempt else 0


SELF_TEST_MODULE = '''\
from dataclasses import dataclass


def before():
    pass


def profiled():
    pass


def after():
    pass


def in_child(passed=0, left="left"):
    pass


def never():
    return 0


def never_but_exempt():
    return 0


def _never_private():
    return 0


@dataclass
class Config:
    passed: int = 0
    left: tuple = ()

    def __post_init__(self):
        pass
'''

SELF_TEST_MAIN = """
import cProfile, subprocess, sys
from pkg import probe
probe.before()
cProfile.Profile().runcall(probe.profiled)
probe.after()
grandchild = "from pkg import probe; probe.in_child(passed=1); probe.Config(passed=2)"
subprocess.run([sys.executable, "-c", grandchild], check=True)
"""


def self_test(scratch: Path) -> int:
    """The hook in a child records calls before, inside and after a ``cProfile`` run, and in a
    grandchild, where it records the keyword a call passed and the one it left at its default."""
    hook_dir, root = scratch / "hook", scratch / "pkg"
    root.mkdir()
    (root / "probe.py").write_text(SELF_TEST_MODULE, encoding="utf-8")
    targets = prepare_hook(hook_dir, root)
    run = run_set("self-test", [[sys.executable, "-c", SELF_TEST_MAIN]], hook_dir, root)
    fns = functions(root)
    classify(fns, {"served": run["records"]})
    reached = {fn["name"] for fn in fns if fn["class"] == "served"}
    want = {"before", "profiled", "after", "in_child", "Config.__post_init__"}
    entries = argument_reach(targets, {"served": run})
    arguments = {f"{e['function']}.{e['param']}": (e["values"], e["default_only"]) for e in entries}
    want_arguments = {
        "in_child.passed": ({"served": ["1"]}, []),
        "in_child.left": ({"served": ["'left'"]}, ["served"]),
        "Config.passed": ({"served": ["2"]}, []),
        "Config.left": ({"served": ["()"]}, ["served"]),
    }
    # The gate's canned failing case: ``never`` is public and unreached with no
    # exemption; ``never_but_exempt`` has one and ``_never_private`` is private.
    mark_exempt(fns, (("canned reason", ("pkg/probe.py:never_but_exempt",)),))
    flagged = [fn["name"] for fn in violations(fns)]
    ok = not run["failed"] and reached == want and arguments == want_arguments and flagged == ["never"]
    print(f"reach self-test: reached {sorted(reached)}, expected {sorted(want)}")
    print(f"  arguments {arguments}")
    print(f"  expected  {want_arguments}")
    print(f"  check flags {flagged}, expected ['never']: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check in seconds that a child process records calls and arguments, the hook survives cProfile,"
        " and --check flags an unexempt unreached function",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="after the report, exit 1 on any public function reached by tests only or nothing without an EXEMPT reason",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        return self_test(Path(scratch)) if args.self_test else report(Path(scratch), check=args.check)


if __name__ == "__main__":
    sys.exit(main())
