"""End-to-end latency breakdowns for one serving step under a system policy.

The :class:`SystemCostModel` combines the per-kernel latencies of
:class:`~repro.gpu.kernels.KernelCostModel` according to a
:class:`~repro.baselines.policy.SystemPolicy`: which heads are streaming, how
many KV tokens the dense heads read, whether a page selector runs and how
often, what precision the GEMMs and the KV cache use, and what per-step
framework overhead the system pays.  It also models the KV/weight memory
footprint, which determines the OOM entries of Figs. 10/11.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.policy import SystemPolicy
from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import KernelCostModel
from repro.model.configs import ModelConfig

__all__ = ["StageBreakdown", "SystemCostModel", "TransferCostModel"]


@dataclass(frozen=True)
class TransferCostModel:
    """Cost of migrating KV-cache pages between replicas over a finite link.

    First-principles model of the prefill→decode KV hand-off in a
    disaggregated cluster (DistServe/Mooncake style): the payload is the
    page images themselves — ``pages × page_size × layers × heads × head_dim
    × 2 (K and V) × dtype width`` bytes — and the latency is a fixed
    per-transfer setup cost plus the serialisation time over the link:

    ``latency = base_latency_s + bytes / bandwidth_bytes_per_s``

    A zero-page transfer costs only the base latency (the control-plane
    round trip still happens).  Defaults approximate a NVLink-class
    intra-node link; drop ``bandwidth_bytes_per_s`` to ~2e10 for PCIe or
    ~1e10 for a 100 GbE fabric.
    """

    bandwidth_bytes_per_s: float = 6.4e10
    base_latency_s: float = 5e-4

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if self.base_latency_s < 0:
            raise ValueError("base_latency_s must be non-negative")

    def page_bytes(
        self, page_size: int, n_layers: int, n_kv_heads: int, head_dim: int, kv_bits: int
    ) -> float:
        """Wire bytes of one physical KV page (K and V, all layers)."""
        if min(page_size, n_layers, n_kv_heads, head_dim, kv_bits) <= 0:
            raise ValueError("page geometry must be positive")
        return page_size * n_layers * n_kv_heads * head_dim * 2 * (kv_bits / 8.0)

    def transfer_bytes(
        self,
        n_pages: int,
        page_size: int,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        kv_bits: int,
    ) -> float:
        """Total wire bytes of migrating ``n_pages`` physical pages."""
        if n_pages < 0:
            raise ValueError("n_pages must be non-negative")
        return n_pages * self.page_bytes(page_size, n_layers, n_kv_heads, head_dim, kv_bits)

    def transfer_latency_s(
        self,
        n_pages: int,
        page_size: int,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        kv_bits: int,
    ) -> float:
        """Modeled hand-off latency in seconds: base + bytes / bandwidth."""
        payload = self.transfer_bytes(
            n_pages, page_size, n_layers, n_kv_heads, head_dim, kv_bits
        )
        return self.base_latency_s + payload / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class StageBreakdown:
    """Latency breakdown of one prefill pass or one decode step (seconds)."""

    attention_s: float
    gemm_s: float
    selector_s: float
    other_s: float

    @property
    def total_s(self) -> float:
        return self.attention_s + self.gemm_s + self.selector_s + self.other_s

    @property
    def attention_fraction(self) -> float:
        return self.attention_s / self.total_s if self.total_s > 0 else 0.0


class SystemCostModel:
    """Latency/memory model of serving ``model`` on ``device`` under ``policy``."""

    def __init__(
        self,
        model: ModelConfig,
        device: DeviceSpec,
        policy: SystemPolicy,
        kernels: KernelCostModel | None = None,
    ) -> None:
        self.model = model
        self.device = device
        self.policy = policy
        self.kernels = kernels or KernelCostModel(device)

    # -- head bookkeeping ----------------------------------------------------------
    def _streaming_kv_heads(self) -> int:
        return int(round(self.policy.streaming_head_ratio * self.model.n_kv_heads))

    def _dense_kv_heads(self) -> int:
        return self.model.n_kv_heads - self._streaming_kv_heads()

    # -- GEMM stack ------------------------------------------------------------------
    def _linear_layer_latency(self, m: int) -> float:
        """All linear projections of one transformer layer for ``m`` rows."""
        cfg = self.model
        p = self.policy
        k = self.kernels
        h, kv, inter = cfg.hidden_size, cfg.kv_dim, cfg.intermediate_size
        return (
            k.gemm_latency(m, h, h, p.weight_bits, p.activation_bits)  # Q
            + 2 * k.gemm_latency(m, kv, h, p.weight_bits, p.activation_bits)  # K, V
            + k.gemm_latency(m, h, h, p.weight_bits, p.activation_bits)  # O
            + 2 * k.gemm_latency(m, inter, h, p.weight_bits, p.activation_bits)  # gate, up
            + k.gemm_latency(m, h, inter, p.weight_bits, p.activation_bits)  # down
        )

    def gemm_latency(self, n_tokens: int, batch: int = 1) -> float:
        """All GEMMs of one forward pass over ``n_tokens`` new tokens per sequence."""
        m = max(1, n_tokens) * batch
        cfg = self.model
        per_layer = self._linear_layer_latency(m)
        lm_head = self.kernels.gemm_latency(
            batch, cfg.vocab_size, cfg.hidden_size, self.policy.weight_bits, self.policy.activation_bits
        )
        return cfg.n_layers * per_layer + lm_head

    # -- decode step --------------------------------------------------------------------
    def decode_attention_latency(self, context_length: int, batch: int = 1) -> float:
        """Decode-stage attention across all layers and both head groups."""
        cfg = self.model
        p = self.policy
        k = self.kernels
        per_layer = 0.0
        dense_heads = self._dense_kv_heads()
        streaming_heads = self._streaming_kv_heads()
        if dense_heads:
            per_layer += k.decode_attention_latency(
                tokens_read=p.dense_decode_tokens(context_length),
                n_kv_heads=dense_heads,
                head_dim=cfg.head_dim,
                kv_bits=p.kv_bits,
                page_size=p.page_size,
                batch=batch,
                efficiency_scale=p.decode_attention_efficiency,
            )
        if streaming_heads:
            per_layer += k.decode_attention_latency(
                tokens_read=min(context_length, p.streaming_window()),
                n_kv_heads=streaming_heads,
                head_dim=cfg.head_dim,
                kv_bits=p.kv_bits,
                page_size=p.page_size,
                batch=batch,
                efficiency_scale=p.decode_attention_efficiency,
            )
        if dense_heads and streaming_heads:
            # Dense and streaming heads run in one fused kernel (paper §3.6);
            # only one launch overhead is paid per layer.
            per_layer -= k.kernel_launch_overhead_s
        return cfg.n_layers * per_layer

    def selector_latency(self, context_length: int, batch: int = 1) -> float:
        """Page-selector cost per decode step (amortised over the reuse interval)."""
        p = self.policy
        if not p.has_dynamic_decode_sparsity:
            return 0.0
        if context_length <= (p.decode_token_budget or 0):
            return 0.0
        n_logical_pages = -(-context_length // p.effective_logical_page_size)
        per_layer = self.kernels.page_selector_latency(n_logical_pages, batch=batch)
        return self.model.n_layers * per_layer / p.reuse_interval

    def decode_step_breakdown(self, context_length: int, batch: int = 1) -> StageBreakdown:
        """Latency breakdown of one decode step at the given context length."""
        if context_length < 0 or batch <= 0:
            raise ValueError("context_length must be >= 0 and batch > 0")
        return StageBreakdown(
            attention_s=self.decode_attention_latency(context_length, batch),
            gemm_s=self.gemm_latency(1, batch),
            selector_s=self.selector_latency(context_length, batch),
            other_s=self.policy.per_step_overhead_s,
        )

    def decode_step_latency(self, context_length: int, batch: int = 1) -> float:
        return self.decode_step_breakdown(context_length, batch).total_s

    # -- prefill -------------------------------------------------------------------------
    def prefill_attention_latency(self, seq_len: int, batch: int = 1) -> float:
        cfg = self.model
        p = self.policy
        per_layer = self.kernels.prefill_attention_latency(
            n_q=seq_len,
            n_kv=seq_len,
            n_heads=cfg.n_heads,
            head_dim=cfg.head_dim,
            visited_fraction=p.prefill_visited_fraction(seq_len),
            batch=batch,
            kernel_efficiency_scale=p.prefill_kernel_efficiency,
        )
        return cfg.n_layers * per_layer

    def prefill_breakdown(self, seq_len: int, batch: int = 1) -> StageBreakdown:
        """Latency breakdown of prefilling ``seq_len`` tokens (time to first token)."""
        if seq_len <= 0 or batch <= 0:
            raise ValueError("seq_len and batch must be positive")
        cfg = self.model
        pooling = 0.0
        if self.policy.has_dynamic_decode_sparsity:
            pooling = cfg.n_layers * self.kernels.pooling_latency(
                seq_len, self._dense_kv_heads(), cfg.head_dim, batch=batch
            )
        return StageBreakdown(
            attention_s=self.prefill_attention_latency(seq_len, batch),
            gemm_s=self.gemm_latency(seq_len, batch),
            selector_s=pooling,
            other_s=self.policy.per_prefill_overhead_s,
        )

    def prefill_latency(self, seq_len: int, batch: int = 1) -> float:
        return self.prefill_breakdown(seq_len, batch).total_s

    # -- memory ---------------------------------------------------------------------------
    def weight_memory_bytes(self) -> float:
        return self.model.linear_weight_bytes(self.policy.weight_bits / 8.0)

    def kv_memory_bytes(self, context_length: int, batch: int = 1) -> float:
        """KV-cache footprint at the given context length.

        Streaming heads only store sink + local tokens (the two-way cache);
        dense heads store the full context at ``kv_bits`` plus per-token
        scales/zeros and, for hierarchically paged systems, key statistics.
        """
        cfg = self.model
        p = self.policy
        dense_heads = self._dense_kv_heads()
        streaming_heads = self._streaming_kv_heads()
        streaming_tokens = min(context_length, p.streaming_window())

        def per_token_bytes(n_heads: int) -> float:
            bytes_per_elem = p.kv_bits / 8.0
            base = 2.0 * n_heads * cfg.head_dim * bytes_per_elem
            if p.kv_bits < 16:
                base += 2.0 * n_heads * 2 * 2.0  # fp16 scale + zero for K and V
            return base

        total = context_length * per_token_bytes(dense_heads)
        total += streaming_tokens * per_token_bytes(streaming_heads)
        if p.has_dynamic_decode_sparsity and dense_heads:
            n_logical = -(-context_length // p.effective_logical_page_size)
            total += n_logical * dense_heads * cfg.head_dim * 2 * 2.0  # kmin/kmax fp16
        return batch * cfg.n_layers * total

    def total_memory_bytes(self, context_length: int, batch: int = 1) -> float:
        return self.weight_memory_bytes() + self.kv_memory_bytes(context_length, batch)

    def fits_in_memory(self, context_length: int, batch: int = 1, reserve_fraction: float = 0.1) -> bool:
        """Whether weights + KV fit on the device, keeping a workspace reserve."""
        budget = self.device.memory_bytes * (1.0 - reserve_fraction)
        return self.total_memory_bytes(context_length, batch) <= budget
