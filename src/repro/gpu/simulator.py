"""End-to-end latency simulator for one (model, device, policy) combination."""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.policy import SystemPolicy
from repro.gpu.cost_model import SystemCostModel
from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import KernelCostModel
from repro.model.configs import ModelConfig

__all__ = ["OutOfMemoryError", "GenerationEstimate", "LatencySimulator"]


class OutOfMemoryError(RuntimeError):
    """Raised when a workload does not fit in device memory under a policy."""


@dataclass(frozen=True)
class GenerationEstimate:
    """Timing estimate for serving one request (prefill + autoregressive decode)."""

    prefill_s: float
    decode_s: float
    decode_steps: int

    @property
    def total_s(self) -> float:
        return self.prefill_s + self.decode_s

    @property
    def decode_throughput_tokens_s(self) -> float:
        return self.decode_steps / self.decode_s if self.decode_s > 0 else 0.0


class LatencySimulator:
    """Convenience wrapper around :class:`SystemCostModel` with OOM checking."""

    def __init__(
        self,
        model: ModelConfig,
        device: DeviceSpec,
        policy: SystemPolicy,
        kernels: KernelCostModel | None = None,
        check_memory: bool = True,
    ) -> None:
        self.cost_model = SystemCostModel(model, device, policy, kernels)
        self.model = model
        self.device = device
        self.policy = policy
        self.check_memory = check_memory

    def _require_fits(self, context_length: int, batch: int) -> None:
        if self.check_memory and not self.cost_model.fits_in_memory(context_length, batch):
            needed = self.cost_model.total_memory_bytes(context_length, batch) / 1e9
            raise OutOfMemoryError(
                f"{self.policy.name} needs {needed:.1f} GB for context {context_length} "
                f"x batch {batch} on {self.device.name} ({self.device.memory_gb} GB)"
            )

    # -- single-stage queries ---------------------------------------------------------
    def prefill_latency(self, seq_len: int, batch: int = 1) -> float:
        """Time-to-first-token for a ``seq_len``-token prompt."""
        self._require_fits(seq_len, batch)
        return self.cost_model.prefill_latency(seq_len, batch)

    def decode_step_latency(self, context_length: int, batch: int = 1) -> float:
        """Per-token generation latency at the given context length."""
        self._require_fits(context_length, batch)
        return self.cost_model.decode_step_latency(context_length, batch)

    def decode_throughput(self, context_length: int, batch: int = 1) -> float:
        """Generated tokens per second across the batch at a context length."""
        return batch / self.decode_step_latency(context_length, batch)

    # -- serving integration ----------------------------------------------------------
    def as_backend(self):
        """This cost model as a :class:`~repro.serving.backend.SimulatedBackend`.

        The returned object implements the serving ``InferenceBackend``
        protocol, so a clock-only run is just one configuration of the
        :class:`~repro.serving.engine.ServingEngine` front door.
        """
        from repro.serving.backend import SimulatedBackend  # avoid import cycle

        return SimulatedBackend(self)

    # -- request-level estimate -----------------------------------------------------------
    def generation_estimate(
        self, prompt_tokens: int, output_tokens: int, batch: int = 1
    ) -> GenerationEstimate:
        """Estimate serving one request end to end.

        Decode latency grows with the context, so the decode phase is integrated
        step by step (sampled every 256 steps for speed).
        """
        if prompt_tokens <= 0 or output_tokens < 0:
            raise ValueError("prompt_tokens must be positive and output_tokens >= 0")
        self._require_fits(prompt_tokens + output_tokens, batch)
        prefill = self.cost_model.prefill_latency(prompt_tokens, batch)
        decode = 0.0
        stride = 256
        step = 0
        while step < output_tokens:
            chunk = min(stride, output_tokens - step)
            context = prompt_tokens + step + chunk // 2
            decode += chunk * self.cost_model.decode_step_latency(context, batch)
            step += chunk
        return GenerationEstimate(prefill_s=prefill, decode_s=decode, decode_steps=output_tokens)
