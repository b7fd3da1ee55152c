"""Generic decorator-based string registries.

The model zoo established the repo's extension idiom: named entries in a
flat string-keyed table, loud ``KeyError`` on a typo, no subclassing
required to plug in.  This module generalizes that idiom so chips,
workload traces, routers, autoscalers, eviction policies and lint
rules share one implementation instead of hand-rolled dicts.

Usage, decorator style (the common case — registering a factory)::

    CHIPS = Registry("chip")

    @CHIPS.register("my-chip")
    def my_chip() -> ChipSpec: ...

or direct style (registering a ready value)::

    TRACES.register("ultrachat", ULTRACHAT_LIKE)
"""

from __future__ import annotations

from typing import Any, Callable, Iterator


class Registry:
    """A flat, case-insensitive name -> object table.

    ``names()`` and iteration are always **sorted**: help output, error
    messages and sweep orderings derived from a registry must not depend
    on import order (a nondeterministic CLI choice list is a
    reproducibility bug like any other).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Registration                                                         #
    # ------------------------------------------------------------------ #

    def register(self, name: str,
                 obj: Any = None) -> Callable[[Any], Any] | Any:
        """Register ``obj`` under ``name``; decorator form when ``obj`` is
        omitted.  Duplicate names fail loudly — silently shadowing a chip
        preset or policy would corrupt every experiment referencing it.
        """
        key = self._key(name)

        def _add(value: Any) -> Any:
            if key in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered")
            self._entries[key] = value
            return value

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (used by tests and experiment teardown)."""
        self._entries.pop(self._key(name), None)

    # ------------------------------------------------------------------ #
    # Lookup                                                               #
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> Any:
        """Look up by name; unknown names list the known ones."""
        key = self._key(name)
        if key not in self._entries:
            known = ", ".join(sorted(self._entries))
            raise KeyError(
                f"unknown {self.kind} {name!r}; "
                f"known {self.kind} names: {known}")
        return self._entries[key]

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(name: str) -> str:
        if not isinstance(name, str) or not name:
            raise ValueError("registry names must be non-empty strings")
        return name.lower()
