"""Named chip registry: the single source of chip-preset names.

Every chip the CLI, the ``repro.api`` facade and the experiment files can
name by string lives here.  Built-in presets register themselves in
:mod:`repro.hardware.presets` via the :func:`register_chip` decorator;
third-party designs plug in the same way without touching core::

    from repro.hardware.registry import register_chip

    @register_chip("my-npu")
    def my_npu() -> ChipSpec:
        return ChipSpec(...)

Entries are zero-argument factories returning a fresh :class:`ChipSpec`,
so callers can mutate-by-replace (``with_updates``) without aliasing the
registry's copy.
"""

from __future__ import annotations

from typing import Callable

from repro.hardware.chip import ChipSpec
from repro.registry import Registry

CHIP_REGISTRY = Registry("chip")


def register_chip(name: str) -> Callable:
    """Decorator: register a zero-arg ``ChipSpec`` factory under ``name``."""

    def _decorate(factory: Callable[[], ChipSpec]) -> Callable[[], ChipSpec]:
        CHIP_REGISTRY.register(name, factory)
        return factory

    return _decorate


def get_chip(name: str) -> ChipSpec:
    """Instantiate the chip registered under exactly ``name``."""
    factory = CHIP_REGISTRY.get(name)
    chip = factory()
    if not isinstance(chip, ChipSpec):
        raise TypeError(f"chip factory {name!r} returned {type(chip).__name__}")
    return chip


def list_chips() -> list[str]:
    """Names of all registered chips, sorted."""
    return CHIP_REGISTRY.names()


# Importing the presets module runs its ``@register_chip`` decorators, so
# looking up a built-in never depends on who imported what first.
import repro.hardware.presets  # noqa: E402,F401  (registration side effect)
