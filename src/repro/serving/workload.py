"""Trace-driven workload generation: arrival processes and scenario presets.

The load generator turns a :class:`WorkloadSpec` — an arrival process plus a
mixture of :class:`RequestClass` length/priority profiles — into a seeded,
reproducible list of :class:`~repro.serving.request.Request` objects ready to
feed :meth:`~repro.serving.engine.ServingEngine.run`.

Arrival processes:

* ``"poisson"`` — exponential inter-arrival times at ``arrival_rate_rps``.
* ``"bursty"`` — a hyperexponential process: each gap is drawn from a fast
  rate (``arrival_rate_rps * burst_rate_multiplier``) with probability
  ``burst_probability`` and a compensating slow rate otherwise, so the mean
  rate stays ``arrival_rate_rps`` while arrivals cluster into bursts.

Prompt and output lengths are lognormal (median/σ parameterisation) clipped
to ``[min, max]`` — the heavy right tail matches observed LLM serving traces.

Four presets live in :data:`SCENARIOS`: ``"chat"`` (short interactive
turns), ``"long_document_qa"`` (the paper's long-context regime: 16K–128K
prompts, short answers, bursty arrivals), ``"shared_prefix"`` (multi-tenant
system prompts plus multi-turn follow-ups — most of every prompt is a
shared prefix, the regime the prefix cache exists for), and
``"mixed_agentic"`` (interactive traffic plus background agent jobs in two
priority classes).  Use :func:`scenario` to fetch one and
:func:`dataclasses.replace` to vary it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.request import Request

__all__ = [
    "RequestClass",
    "WorkloadSpec",
    "WorkloadGenerator",
    "SCENARIOS",
    "scenario",
    "arrival_offsets",
]


def arrival_offsets(requests: list[Request], time_scale: float = 1.0) -> list[float]:
    """Wall-clock submission offsets for open-loop replay of a trace.

    Maps each request's virtual ``arrival_time_s`` to a non-negative offset
    from the trace's *first* arrival, scaled by ``time_scale`` — an open-loop
    client sleeps each request's offset and then submits, regardless of
    whether earlier requests have finished.  ``time_scale=1.0`` replays the
    trace's arrival process in real time, ``< 1`` compresses it (heavier
    load), and ``0.0`` degenerates to submit-everything-at-once.
    """
    if time_scale < 0:
        raise ValueError("time_scale must be non-negative")
    if not requests:
        return []
    start = min(r.arrival_time_s for r in requests)
    return [time_scale * (r.arrival_time_s - start) for r in requests]


@dataclass(frozen=True)
class RequestClass:
    """One request profile inside a workload mixture.

    ``weight`` is the class's relative share of arrivals.  ``priority`` is
    the scheduling class stamped on generated requests (lower = more urgent).
    Prompt and output lengths are lognormal with the given median and sigma
    (in log space), clipped to ``[min, max]`` tokens.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    prompt_median: int = 512
    prompt_sigma: float = 0.6
    prompt_min: int = 16
    prompt_max: int = 8_192
    output_median: int = 128
    output_sigma: float = 0.5
    output_min: int = 4
    output_max: int = 1_024
    #: Leading tokens of every prompt drawn from a class-wide shared prefix
    #: (a system prompt / conversation context reused across requests) —
    #: the shared-prefix KV cache turns these into prefix hits.  0 = no
    #: sharing.  Only meaningful with ``with_token_ids=True``.
    shared_prefix_tokens: int = 0
    #: Number of distinct shared prefixes in the class (tenants /
    #: conversations); each request draws one uniformly.
    shared_prefix_pool: int = 1
    #: Zipf skew of the tenant draw: 0.0 (default) keeps the uniform draw,
    #: ``alpha > 0`` weights tenant ``k`` (1-indexed) proportionally to
    #: ``k ** -alpha`` — a few hot tenants dominate the traffic, the regime
    #: where prefix-affinity routing and load-aware routing pull in opposite
    #: directions (the hot tenant's replica saturates).
    shared_prefix_zipf_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r}: weight must be positive")
        for label, lo, mid, hi in (
            ("prompt", self.prompt_min, self.prompt_median, self.prompt_max),
            ("output", self.output_min, self.output_median, self.output_max),
        ):
            if not (0 < lo <= mid <= hi):
                raise ValueError(
                    f"class {self.name!r}: need 0 < {label}_min <= {label}_median "
                    f"<= {label}_max, got ({lo}, {mid}, {hi})"
                )
        if self.shared_prefix_tokens < 0:
            raise ValueError(f"class {self.name!r}: shared_prefix_tokens must be >= 0")
        if self.shared_prefix_tokens >= self.prompt_min:
            if self.shared_prefix_tokens > 0:
                raise ValueError(
                    f"class {self.name!r}: shared_prefix_tokens "
                    f"({self.shared_prefix_tokens}) must be below prompt_min "
                    f"({self.prompt_min}) so every prompt has a unique tail"
                )
        if self.shared_prefix_pool < 1:
            raise ValueError(f"class {self.name!r}: shared_prefix_pool must be >= 1")
        if self.shared_prefix_zipf_alpha < 0:
            raise ValueError(
                f"class {self.name!r}: shared_prefix_zipf_alpha must be >= 0 "
                "(0 = uniform tenant draw)"
            )

    def max_kv_tokens(self) -> int:
        """Worst-case KV footprint of one request of this class (tokens)."""
        return self.prompt_max + self.output_max


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload: arrival process + request-class mixture + SLOs.

    ``arrival_rate_rps`` is the mean arrival rate in requests per second.
    ``ttft_slo_s`` / ``tpot_slo_s`` are the scenario's latency objectives
    (seconds), consumed by :meth:`ServingMetrics.slo_attainment` and the
    ``bench_serving_slo`` sweep.
    """

    name: str
    classes: tuple[RequestClass, ...]
    arrival_process: str = "poisson"  # "poisson" | "bursty"
    arrival_rate_rps: float = 1.0
    burst_rate_multiplier: float = 8.0
    burst_probability: float = 0.15
    ttft_slo_s: float = 10.0
    tpot_slo_s: float = 0.2

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a workload needs at least one request class")
        if self.arrival_process not in ("poisson", "bursty"):
            raise ValueError(
                f"unknown arrival_process {self.arrival_process!r}; "
                "expected 'poisson' or 'bursty'"
            )
        if self.arrival_rate_rps <= 0:
            raise ValueError("arrival_rate_rps must be positive")
        if self.burst_rate_multiplier <= 1.0:
            raise ValueError("burst_rate_multiplier must be > 1")
        if not (0.0 < self.burst_probability < 1.0):
            raise ValueError("burst_probability must be in (0, 1)")

    def max_kv_tokens(self) -> int:
        """Worst-case KV footprint of any request this workload can emit."""
        return max(c.max_kv_tokens() for c in self.classes)


class WorkloadGenerator:
    """Seeded generator of request traces from a :class:`WorkloadSpec`.

    The same ``(spec, seed)`` pair always yields the same trace, so serving
    experiments are reproducible end to end.  With ``with_token_ids=True``
    the requests carry synthetic prompt token ids (required by real-compute
    backends); length-only requests are enough for the cost-model backend.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def generate(
        self,
        n_requests: int,
        with_token_ids: bool = False,
        vocab_size: int = 32_000,
    ) -> list[Request]:
        """Draw ``n_requests`` requests with seeded arrivals, lengths, classes.

        Request ``i`` is named ``f"{spec.name}-{i}"``; arrival times count
        from 0.
        """
        if n_requests <= 0:
            raise ValueError("n_requests must be positive")
        # Trace structure (arrivals, classes, lengths) and token content draw
        # from independent child streams of the same seed, so the *same*
        # (spec, seed) trace is produced whether or not token ids are attached
        # (length-only cost-model runs stay comparable to real-backend runs).
        trace_seq, content_seq = np.random.SeedSequence(self.seed).spawn(2)
        rng = np.random.default_rng(trace_seq)
        content_rng = np.random.default_rng(content_seq)
        spec = self.spec

        arrivals = np.cumsum(self._inter_arrivals(rng, n_requests))
        weights = np.array([c.weight for c in spec.classes], dtype=np.float64)
        class_idx = rng.choice(len(spec.classes), size=n_requests, p=weights / weights.sum())

        # Shared prefixes are drawn once per class from the content stream
        # (they only exist when token ids are attached; trace structure is
        # unaffected either way).  Each entry is (pool, tenant_probs) where
        # tenant_probs is None for the uniform draw (the pre-Zipf behaviour,
        # kept bit-identical) or the Zipf popularity weights.
        prefix_pools: dict[int, tuple[list[np.ndarray], np.ndarray | None]] = {}
        if with_token_ids:
            for ci, cls in enumerate(spec.classes):
                if cls.shared_prefix_tokens > 0:
                    pool = [
                        content_rng.integers(0, vocab_size, size=cls.shared_prefix_tokens)
                        for _ in range(cls.shared_prefix_pool)
                    ]
                    probs = None
                    if cls.shared_prefix_zipf_alpha > 0:
                        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
                        weights_z = ranks ** -cls.shared_prefix_zipf_alpha
                        probs = weights_z / weights_z.sum()
                    prefix_pools[ci] = (pool, probs)

        requests = []
        for i in range(n_requests):
            cls = spec.classes[class_idx[i]]
            prompt = self._lognormal_length(
                rng, cls.prompt_median, cls.prompt_sigma, cls.prompt_min, cls.prompt_max
            )
            output = self._lognormal_length(
                rng, cls.output_median, cls.output_sigma, cls.output_min, cls.output_max
            )
            if with_token_ids:
                pooled = prefix_pools.get(int(class_idx[i]))
                if pooled is not None:
                    pool, probs = pooled
                    if probs is None:
                        tenant = int(content_rng.integers(0, len(pool)))
                    else:
                        tenant = int(content_rng.choice(len(pool), p=probs))
                    prefix_tokens = pool[tenant]
                    tail = content_rng.integers(0, vocab_size, size=prompt - prefix_tokens.size)
                    token_ids = tuple(int(t) for t in np.concatenate([prefix_tokens, tail]))
                else:
                    token_ids = tuple(
                        int(t) for t in content_rng.integers(0, vocab_size, size=prompt)
                    )
            else:
                token_ids = None
            requests.append(
                Request(
                    request_id=f"{spec.name}-{i}",
                    prompt_tokens=prompt,
                    max_new_tokens=output,
                    arrival_time_s=float(arrivals[i]),
                    prompt_token_ids=token_ids,
                    priority=cls.priority,
                )
            )
        return requests

    def _inter_arrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        spec = self.spec
        if spec.arrival_process == "poisson":
            return rng.exponential(1.0 / spec.arrival_rate_rps, size=n)
        # Hyperexponential burst model: fast gaps with probability p, slow gaps
        # otherwise, with the slow rate chosen so the mean rate stays put.
        p = spec.burst_probability
        fast_rate = spec.arrival_rate_rps * spec.burst_rate_multiplier
        slow_rate = (1.0 - p) / (1.0 / spec.arrival_rate_rps - p / fast_rate)
        in_burst = rng.random(n) < p
        gaps = np.where(
            in_burst,
            rng.exponential(1.0 / fast_rate, size=n),
            rng.exponential(1.0 / slow_rate, size=n),
        )
        return gaps

    @staticmethod
    def _lognormal_length(
        rng: np.random.Generator, median: int, sigma: float, lo: int, hi: int
    ) -> int:
        value = rng.lognormal(mean=float(np.log(median)), sigma=sigma)
        return int(np.clip(round(value), lo, hi))


#: Scenario presets covering the serving regimes the paper cares about.
SCENARIOS: dict[str, WorkloadSpec] = {
    "chat": WorkloadSpec(
        name="chat",
        arrival_process="poisson",
        arrival_rate_rps=4.0,
        ttft_slo_s=2.0,
        tpot_slo_s=0.08,
        classes=(
            RequestClass(
                name="chat-turn",
                prompt_median=768,
                prompt_sigma=0.8,
                prompt_min=32,
                prompt_max=8_192,
                output_median=192,
                output_sigma=0.6,
                output_min=8,
                output_max=1_024,
            ),
        ),
    ),
    "long_document_qa": WorkloadSpec(
        name="long_document_qa",
        arrival_process="bursty",
        arrival_rate_rps=0.25,
        burst_rate_multiplier=8.0,
        burst_probability=0.2,
        ttft_slo_s=60.0,
        tpot_slo_s=0.25,
        classes=(
            RequestClass(
                name="doc-qa",
                prompt_median=49_152,
                prompt_sigma=0.5,
                prompt_min=16_384,
                prompt_max=131_072,
                output_median=96,
                output_sigma=0.5,
                output_min=16,
                output_max=512,
            ),
        ),
    ),
    "shared_prefix": WorkloadSpec(
        name="shared_prefix",
        arrival_process="poisson",
        arrival_rate_rps=4.0,
        ttft_slo_s=2.0,
        tpot_slo_s=0.08,
        classes=(
            # Multi-tenant system prompts: each tenant's requests begin with
            # the same long instruction block, so prefix caching turns the
            # bulk of every prefill into a hit.
            RequestClass(
                name="tenant-chat",
                weight=3.0,
                shared_prefix_tokens=1_536,
                shared_prefix_pool=4,
                prompt_median=2_048,
                prompt_sigma=0.4,
                prompt_min=1_600,
                prompt_max=6_144,
                output_median=192,
                output_sigma=0.6,
                output_min=8,
                output_max=1_024,
            ),
            # Multi-turn conversations: follow-up turns carry the whole
            # conversation so far as their prefix (deeper shared context,
            # fewer distinct conversations).
            RequestClass(
                name="follow-up-turn",
                weight=1.0,
                shared_prefix_tokens=6_144,
                shared_prefix_pool=8,
                prompt_median=7_168,
                prompt_sigma=0.2,
                prompt_min=6_400,
                prompt_max=12_288,
                output_median=256,
                output_sigma=0.5,
                output_min=16,
                output_max=1_024,
            ),
        ),
    ),
    "mixed_agentic": WorkloadSpec(
        name="mixed_agentic",
        arrival_process="bursty",
        arrival_rate_rps=2.0,
        burst_rate_multiplier=6.0,
        burst_probability=0.25,
        ttft_slo_s=5.0,
        tpot_slo_s=0.1,
        classes=(
            RequestClass(
                name="interactive",
                weight=3.0,
                priority=0,
                prompt_median=1_024,
                prompt_sigma=0.7,
                prompt_min=64,
                prompt_max=16_384,
                output_median=160,
                output_sigma=0.6,
                output_min=8,
                output_max=1_024,
            ),
            RequestClass(
                name="agent-background",
                weight=1.0,
                priority=1,
                prompt_median=24_576,
                prompt_sigma=0.6,
                prompt_min=4_096,
                prompt_max=98_304,
                output_median=768,
                output_sigma=0.5,
                output_min=64,
                output_max=2_048,
            ),
        ),
    ),
}


def scenario(name: str) -> WorkloadSpec:
    """Fetch a scenario preset by name (see :data:`SCENARIOS`)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}") from None
