"""Seeded request lists for the end-to-end benchmark.

A pure function of ``(workload name, seed, block index)``: the served program
sees only the prompts and ``max_tokens`` produced here.  No numpy and no
``repro`` import, so the self-test can load this file on its own.

Lengths are *stratified*: every block of a workload carries the same multiset
of prompt and output lengths (an evenly spaced grid over the stated range,
shuffled by the seed), so the work per block is identical on every block,
seed and commit, while the order and the token contents change with the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

VOCAB_SIZE = 512


@dataclass(frozen=True)
class RequestSpec:
    """One request: where it sits in the list, its prompt and output length."""

    block: int
    index: int
    prompt: tuple[int, ...]
    max_tokens: int
    #: Which of the workload's distinct prompts this is, where prompts repeat
    #: (``spec_decode`` serves 32 prompts several times); ``None`` elsewhere.
    prompt_key: int | None = None

    @property
    def check_key(self) -> tuple:
        """What a reference output is filed under: the prompt where prompts repeat, else the place."""
        return ("prompt", self.prompt_key) if self.prompt_key is not None else (self.block, self.index)


@dataclass(frozen=True)
class Workload:
    """Fixed shape of one traffic mix (see README.md for the full table)."""

    name: str
    why: str
    driver: str  # "http" (CompletionServer + SSE client) | "inproc" (submit().stream())
    concurrency: int  # HTTP connections or in-process streams, closed loop
    max_batch_size: int
    block_requests: int
    blocks: int  # blocks per pass of a full invocation
    speculation_k: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="long_prefill",
            why="prompts of 2048-4096 tokens with 8 output tokens over HTTP: block-sparse prefill "
            "attention, bulk KV append and KV8 quantisation do the work; decode and selector idle",
            driver="http",
            concurrency=1,
            max_batch_size=1,
            block_requests=3,
            blocks=8,
        ),
        Workload(
            name="long_decode",
            why="16 in-process streams, prompt 512 and 384-640 output tokens: context stays above "
            "token_budget, so page selection, gather and decode attention carry the run",
            driver="inproc",
            concurrency=16,
            max_batch_size=16,
            block_requests=16,
            blocks=5,
        ),
        Workload(
            name="chat_http",
            why="short prompts (32-128) and outputs (16-32) on 2 HTTP connections: context never exceeds "
            "token_budget, so page selection and gather are bypassed; the largest serving-path share",
            driver="http",
            concurrency=2,
            max_batch_size=2,
            block_requests=100,
            blocks=8,
        ),
        Workload(
            name="spec_decode",
            why="8 streams with speculation_k=4 and scripted drafts at acceptance 0.83: the same "
            "engine and KV layers driven through scratch forks, fused verify and commit",
            driver="inproc",
            concurrency=8,
            max_batch_size=8,
            block_requests=8,
            blocks=8,
            speculation_k=4,
        ),
    )
}

SPEC_DISTINCT_PROMPTS = 32
LONG_PREFILL_LENGTHS = (2048, 3072, 4096)


def _grid(lo: int, hi: int, n: int) -> list[int]:
    """``n`` integers evenly spaced over ``[lo, hi]`` (both ends included)."""
    if n == 1:
        return [(lo + hi) // 2]
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def _tokens(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(VOCAB_SIZE) for _ in range(n))


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def block_requests(name: str, seed: int, block: int, scale: float = 1.0) -> list[RequestSpec]:
    """The requests of block ``block`` of workload ``name`` under ``seed``.

    ``scale`` < 1 shrinks the block (fewer requests, or shorter outputs where
    the request count is the stream count) for ``--smoke``; measured runs use 1.
    """
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{block}")
    n = w.block_requests
    if name == "long_prefill":
        n = _scaled(n, scale)
        lengths = [LONG_PREFILL_LENGTHS[i % 3] for i in range(n)]
        return [RequestSpec(block, i, _tokens(rng, lengths[i]), 8) for i in range(n)]
    if name == "long_decode":
        outputs = _grid(_scaled(384, scale), _scaled(640, scale), n)
        rng.shuffle(outputs)
        return [RequestSpec(block, i, _tokens(rng, 512), outputs[i]) for i in range(n)]
    if name == "chat_http":
        n = _scaled(n, scale)
        prompts = _grid(32, 128, n)
        outputs = _grid(16, 32, n)
        rng.shuffle(prompts)
        rng.shuffle(outputs)
        return [RequestSpec(block, i, _tokens(rng, prompts[i]), outputs[i]) for i in range(n)]
    if name == "spec_decode":
        # The 32 distinct prompts depend on the seed only; block b serves
        # prompts (8 b .. 8 b + 7) mod 32, so four blocks cover all of them.
        output = _scaled(256, scale)
        specs = []
        for i in range(n):
            key = (block * n + i) % SPEC_DISTINCT_PROMPTS
            prompt = _tokens(random.Random(f"{name}:{seed}:prompt:{key}"), 512)
            specs.append(RequestSpec(block, i, prompt, output, key))
        return specs
    raise KeyError(name)


def warmup_requests(name: str, seed: int) -> list[RequestSpec]:
    """Four short requests served during set-up so lazy initialisation is paid there."""
    rng = random.Random(f"{name}:{seed}:warmup")
    n_prompt = 64 if name == "chat_http" else 256
    return [RequestSpec(-1, i, _tokens(rng, n_prompt), 8) for i in range(4)]


def digest(blocks: list[list[RequestSpec]]) -> str:
    """SHA-256 over the served request list: two runs can prove equal inputs."""
    h = hashlib.sha256()
    for specs in blocks:
        for r in specs:
            h.update(f"{r.block}/{r.index}/{r.max_tokens}/{r.prompt_key}:".encode())
            h.update(",".join(map(str, r.prompt)).encode())
            h.update(b";")
    return h.hexdigest()
