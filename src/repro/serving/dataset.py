"""Synthetic chat-trace generator (the ultrachat_200k substitution).

The paper drives its Fig. 16 experiment with token-length patterns
reconstructed from HuggingFaceH4/ultrachat_200k.  Offline, we generate
(input_len, output_len) pairs from log-normal marginals matched to that
dataset's published summary statistics.  Ultrachat is *multi-turn*: a
served request carries the running conversation history as its prompt,
so the effective input length is the accumulated context (~760 tokens on
average) while responses average ~260 tokens, both heavy-tailed.  The
serving simulator consumes only these pairs, so QoS trends depend
exactly on the distribution shape this generator preserves (see
DESIGN.md's substitution table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.spec_codec import SpecCodec


@dataclass(frozen=True)
class ChatTraceConfig(SpecCodec):
    """Log-normal token-length marginals for a chat workload.

    Each length is a rounded log-normal draw clipped to its
    ``[min_*, max_*]`` bounds, so the bounds are whole token counts
    with ``1 <= min_* <= max_*`` and the medians and sigmas are finite.
    """

    name: str
    input_median: float
    input_sigma: float
    output_median: float
    output_sigma: float
    min_input: int = 8
    max_input: int = 4096
    min_output: int = 16
    max_output: int = 2048

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("input_median", "output_median"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}")
        for name in ("input_sigma", "output_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, "
                    f"got {value!r}")
        for low, high in (("min_input", "max_input"),
                          ("min_output", "max_output")):
            bottom, top = getattr(self, low), getattr(self, high)
            if bottom < 1:
                raise ValueError(f"{low} must be >= 1, got {bottom!r}")
            if bottom > top:
                raise ValueError(f"{low} must not exceed {high}, "
                                 f"got {bottom!r} > {top!r}")

    @property
    def mean_input(self) -> float:
        return self.input_median * math.exp(self.input_sigma ** 2 / 2)

    @property
    def mean_output(self) -> float:
        return self.output_median * math.exp(self.output_sigma ** 2 / 2)


#: Calibrated to ultrachat_200k summary statistics (multi-turn chat:
#: prompts include conversation history).
ULTRACHAT_LIKE = ChatTraceConfig(
    name="ultrachat-like",
    input_median=550.0,
    input_sigma=0.8,
    output_median=220.0,
    output_sigma=0.6,
)

#: A fixed-length trace for controlled sweeps (Fig. 17's grid).
def fixed_trace(input_len: int, output_len: int) -> ChatTraceConfig:
    """Degenerate trace: every request has the same lengths."""
    return ChatTraceConfig(
        name=f"fixed-{input_len}x{output_len}",
        input_median=float(input_len),
        input_sigma=0.0,
        output_median=float(output_len),
        output_sigma=0.0,
        min_input=1,
        max_input=max(1, input_len),
        min_output=1,
        max_output=max(1, output_len),
    )


def sample_inputs(config: ChatTraceConfig, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` clipped input lengths (one normal draw each).

    Split out of :func:`sample_trace` so the streaming replay
    generators can consume the input and output halves of the draw
    stream independently — each half performs the identical numpy
    operations, so chunked replay stays bit-for-bit equal to one
    full-size :func:`sample_trace` call.
    """
    values = rng.lognormal(math.log(config.input_median),
                           max(config.input_sigma, 1e-12), size=count)
    return np.clip(np.round(values), config.min_input, config.max_input)


def sample_outputs(config: ChatTraceConfig, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` clipped output lengths (one normal draw each)."""
    values = rng.lognormal(math.log(config.output_median),
                           max(config.output_sigma, 1e-12), size=count)
    return np.clip(np.round(values), config.min_output, config.max_output)


def sample_trace(config: ChatTraceConfig, count: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """Draw ``count`` (input_len, output_len) pairs."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    inputs = sample_inputs(config, count, rng)
    outputs = sample_outputs(config, count, rng)
    return [(int(i), int(o)) for i, o in zip(inputs, outputs)]
