"""Registry of every model architecture the paper touches.

The paper pulls model descriptions from HuggingFace at simulation time
(Fig. 14b).  We have no network, so the public architecture constants are
entered here by hand — this is the substitution documented in DESIGN.md.
Configurations follow the models' published ``config.json`` files.
"""

from __future__ import annotations

from repro.models.config import ModelConfig
from repro.registry import Registry

MODEL_REGISTRY = Registry("model")


def register_model(config: ModelConfig) -> ModelConfig:
    """Add a model to the zoo under its ``name``; returns the config for
    chaining."""
    return MODEL_REGISTRY.register(config.name, config)


def get_model(name: str) -> ModelConfig:
    """Look up a model by exactly its registered name.

    Raises ``KeyError`` with the list of known names on a miss so typos in
    experiment scripts fail loudly.
    """
    return MODEL_REGISTRY.get(name)


def list_models() -> list[str]:
    """Names of all registered models, sorted."""
    return MODEL_REGISTRY.names()


# --------------------------------------------------------------------- #
# Dense models used throughout the evaluation                            #
# --------------------------------------------------------------------- #

register_model(ModelConfig(
    name="gptj-6b",
    num_layers=28,
    hidden_size=4096,
    num_heads=16,
    num_kv_heads=16,
    head_dim=256,
    intermediate_size=16384,
    vocab_size=50400,
    gated_mlp=False,
    max_position_embeddings=2048,
))

register_model(ModelConfig(
    name="llama2-7b",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    num_kv_heads=32,           # MHA — the paper's Fig. 11(b) MHA exemplar
    intermediate_size=11008,
    vocab_size=32000,
    max_position_embeddings=4096,
))

register_model(ModelConfig(
    name="llama3-8b",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    num_kv_heads=8,            # GQA — the paper's primary evaluation model
    intermediate_size=14336,
    vocab_size=128256,
    max_position_embeddings=8192,
))

register_model(ModelConfig(
    name="llama3-70b",
    num_layers=80,
    hidden_size=8192,
    num_heads=64,
    num_kv_heads=8,
    intermediate_size=28672,
    vocab_size=128256,
    max_position_embeddings=8192,
))

register_model(ModelConfig(
    name="mistral-7b",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    num_kv_heads=8,
    intermediate_size=14336,
    vocab_size=32000,
    max_position_embeddings=32768,
))

register_model(ModelConfig(
    name="falcon-7b",
    num_layers=32,
    hidden_size=4544,
    num_heads=71,
    num_kv_heads=1,            # MQA — the paper's Fig. 11(b) MQA exemplar
    head_dim=64,
    intermediate_size=18176,
    vocab_size=65024,
    gated_mlp=False,
    max_position_embeddings=2048,
))

register_model(ModelConfig(
    name="qwen2-7b",
    num_layers=28,
    hidden_size=3584,
    num_heads=28,
    num_kv_heads=4,
    intermediate_size=18944,
    vocab_size=152064,
    max_position_embeddings=32768,
))

register_model(ModelConfig(
    name="gemma2-9b",
    num_layers=42,
    hidden_size=3584,
    num_heads=16,
    num_kv_heads=8,
    head_dim=256,
    intermediate_size=14336,
    vocab_size=256000,
    tie_word_embeddings=True,
    max_position_embeddings=8192,
))

register_model(ModelConfig(
    name="yi-34b",
    num_layers=60,
    hidden_size=7168,
    num_heads=56,
    num_kv_heads=8,
    intermediate_size=20480,
    vocab_size=64000,
    max_position_embeddings=4096,
))

register_model(ModelConfig(
    name="llama2-13b",
    num_layers=40,
    hidden_size=5120,
    num_heads=40,
    num_kv_heads=40,
    intermediate_size=13824,
    vocab_size=32000,
    max_position_embeddings=4096,
))

register_model(ModelConfig(
    name="llama2-70b",
    num_layers=80,
    hidden_size=8192,
    num_heads=64,
    num_kv_heads=8,
    intermediate_size=28672,
    vocab_size=32000,
    max_position_embeddings=4096,
))

register_model(ModelConfig(
    name="qwen2-72b",
    num_layers=80,
    hidden_size=8192,
    num_heads=64,
    num_kv_heads=8,
    intermediate_size=29568,
    vocab_size=152064,
    max_position_embeddings=32768,
))

register_model(ModelConfig(
    name="phi-3-mini",
    num_layers=32,
    hidden_size=3072,
    num_heads=32,
    num_kv_heads=32,
    intermediate_size=8192,
    vocab_size=32064,
    max_position_embeddings=4096,
))

# --------------------------------------------------------------------- #
# Mixture-of-experts                                                     #
# --------------------------------------------------------------------- #

register_model(ModelConfig(
    name="mixtral-8x7b",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    num_kv_heads=8,
    intermediate_size=14336,
    vocab_size=32000,
    num_experts=8,
    experts_per_token=2,
    max_position_embeddings=32768,
))

# --------------------------------------------------------------------- #
# OPT family — the Fig. 10 bandwidth-calibration workloads               #
# --------------------------------------------------------------------- #

register_model(ModelConfig(
    name="opt-1.3b",
    num_layers=24,
    hidden_size=2048,
    num_heads=32,
    num_kv_heads=32,
    intermediate_size=8192,
    vocab_size=50272,
    gated_mlp=False,
    max_position_embeddings=2048,
))

register_model(ModelConfig(
    name="opt-6.7b",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    num_kv_heads=32,
    intermediate_size=16384,
    vocab_size=50272,
    gated_mlp=False,
    max_position_embeddings=2048,
))

register_model(ModelConfig(
    name="opt-13b",
    num_layers=40,
    hidden_size=5120,
    num_heads=40,
    num_kv_heads=40,
    intermediate_size=20480,
    vocab_size=50272,
    gated_mlp=False,
    max_position_embeddings=2048,
))

register_model(ModelConfig(
    name="opt-30b",
    num_layers=48,
    hidden_size=7168,
    num_heads=56,
    num_kv_heads=56,
    intermediate_size=28672,
    vocab_size=50272,
    gated_mlp=False,
    max_position_embeddings=2048,
))

register_model(ModelConfig(
    name="opt-66b",
    num_layers=64,
    hidden_size=9216,
    num_heads=72,
    num_kv_heads=72,
    intermediate_size=36864,
    vocab_size=50272,
    gated_mlp=False,
    max_position_embeddings=2048,
))
