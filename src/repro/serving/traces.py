"""Named workload-trace registry.

Traces are the token-length distributions driving the request generator.
Built-ins cover the paper's two workload shapes — the ultrachat-like
chat trace and the fixed-length grid traces of Fig. 17 — and third-party
traces plug in by name::

    from repro.serving.traces import register_trace

    @register_trace("sharegpt-like")
    def sharegpt_like() -> ChatTraceConfig:
        return ChatTraceConfig(...)

Fixed-length traces need no registration: any name of the form
``fixed-<input>x<output>`` (e.g. ``fixed-512x128``) resolves dynamically,
so experiment files can sweep the Fig. 17 grid declaratively.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.registry import Registry
from repro.serving.dataset import ULTRACHAT_LIKE, ChatTraceConfig, fixed_trace

TRACE_REGISTRY = Registry("trace")

_FIXED_PATTERN = re.compile(r"^fixed-(\d+)x(\d+)$")


def register_trace(name: str, config: ChatTraceConfig | None = None):
    """Register a trace under ``name``.

    Accepts a ready :class:`ChatTraceConfig` directly, or decorates a
    zero-arg factory returning one.
    """
    if config is not None:
        return TRACE_REGISTRY.register(name, config)

    def _decorate(factory: Callable[[], ChatTraceConfig]):
        TRACE_REGISTRY.register(name, factory)
        return factory

    return _decorate


def get_trace(name: str) -> ChatTraceConfig:
    """Resolve a trace name to its :class:`ChatTraceConfig`."""
    match = _FIXED_PATTERN.match(name)
    if match and name not in TRACE_REGISTRY:
        return fixed_trace(int(match.group(1)), int(match.group(2)))
    entry = TRACE_REGISTRY.get(name)
    return entry() if callable(entry) else entry


def list_traces() -> list[str]:
    """Registered trace names (dynamic ``fixed-AxB`` names excluded)."""
    return TRACE_REGISTRY.names()


register_trace("ultrachat", ULTRACHAT_LIKE)
register_trace("ultrachat-like", ULTRACHAT_LIKE)
