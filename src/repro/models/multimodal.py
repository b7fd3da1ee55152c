"""Multimodal GenAI workloads: vision encoders and diffusion transformers.

Fig. 2(a) and Fig. 9's input box list LMMs (image encoder + LLM) and
DiT-style generators among the model types ADOR must serve.  Both reduce
to transformer operator lists the existing performance models already
understand:

* a **vision encoder** (ViT) is a prefill-only transformer over patch
  tokens — pure GEMM work, throughput-shaped;
* an **LMM request** is the encoder pass followed by an LLM whose prompt
  is extended by the image tokens;
* a **DiT** denoising step is a bidirectional transformer pass over
  latent tokens, repeated for N sampling steps — again prefill-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.layers import Operator, decoder_layer_operators
from repro.models.zoo import get_model, register_model


def _encoder_config(name: str, num_layers: int, hidden: int, heads: int,
                    intermediate: int) -> ModelConfig:
    """Encoders are bidirectional; we reuse ModelConfig with MHA heads."""
    return ModelConfig(
        name=name,
        num_layers=num_layers,
        hidden_size=hidden,
        num_heads=heads,
        num_kv_heads=heads,
        intermediate_size=intermediate,
        vocab_size=1,  # no vocabulary: patch/latent embeddings
        gated_mlp=False,
        max_position_embeddings=16384,
    )


#: ViT-L/14 as used by CLIP-style LMM front-ends (LLaVA et al.)
VIT_L_14 = register_model(_encoder_config(
    "vit-l-14", num_layers=24, hidden=1024, heads=16, intermediate=4096))

#: A DiT-XL/2 class latent diffusion transformer
DIT_XL_2 = register_model(_encoder_config(
    "dit-xl-2", num_layers=28, hidden=1152, heads=16, intermediate=4608))


@dataclass(frozen=True)
class VisionEncoderWorkload:
    """One image encoded into ``num_tokens`` patch embeddings."""

    encoder: ModelConfig
    num_tokens: int = 576  # 336x336 image at patch 14

    def operators(self, batch: int = 1) -> list[Operator]:
        """Prefill-shaped operator list for ``batch`` images."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        ops: list[Operator] = []
        for _ in range(self.encoder.num_layers):
            ops.extend(decoder_layer_operators(self.encoder, batch,
                self.num_tokens, self.num_tokens))
        return ops

    def flops(self, batch: int = 1) -> float:
        return sum(op.flops for op in self.operators(batch))


@dataclass(frozen=True)
class LmmWorkload:
    """A multimodal chat request: image encode + LLM with a longer prompt.

    The encoder output is projected into the LLM's embedding space and
    prepended to the text prompt, so the LLM's effective input length is
    ``text_tokens + image_tokens`` — the extra prefill the paper's LMM
    row implies.
    """

    llm: ModelConfig
    encoder_workload: VisionEncoderWorkload

    @classmethod
    def default(cls) -> "LmmWorkload":
        """LLaMA3-8B behind a ViT-L/14 encoder."""
        return cls(llm=get_model("llama3-8b"),
                   encoder_workload=VisionEncoderWorkload(VIT_L_14))

    def effective_input_tokens(self, text_tokens: int,
                               images: int = 1) -> int:
        if text_tokens < 0 or images < 0:
            raise ValueError("token and image counts must be non-negative")
        return text_tokens + images * self.encoder_workload.num_tokens

    def encoder_flops(self) -> float:
        """Encoder FLOPs for one image."""
        return self.encoder_workload.flops(batch=1)


@dataclass(frozen=True)
class DitWorkload:
    """Latent-diffusion image generation: N denoising transformer passes."""

    dit: ModelConfig
    latent_tokens: int = 1024  # 64x64 latents at patch 2
    sampling_steps: int = 30

    @classmethod
    def default(cls) -> "DitWorkload":
        return cls(dit=DIT_XL_2)
