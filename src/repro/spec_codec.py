"""One JSON codec for the frozen spec dataclasses.

A spec's JSON shape is its dataclass fields: :class:`SpecCodec` gives a
frozen spec dataclass ``to_dict()`` / ``from_dict()`` driven by
:func:`dataclasses.fields` and the fields' type hints, so a knob added
to a spec is serialized, parsed and validated with no second list to
keep in step.  The same rules carry every dataclass nested in a spec,
an inline :class:`~repro.hardware.chip.ChipSpec` and its parts included.

* ``to_dict`` emits fields in declaration order.  A nested dataclass,
  or a tuple of them, recurses; a tuple becomes a JSON list.  An
  :class:`enum.Enum` member is written as its ``value``, and +inf in a
  field typed plain ``float`` as ``null`` (strict JSON has no
  infinity).  A field whose metadata is :data:`OMIT_DEFAULT` is left
  out while it holds its default.
* ``from_dict`` decodes a JSON object arriving for a dataclass-typed
  field into that dataclass, a list arriving for a ``tuple[X, ...]``
  field element by element, a value arriving for an enum-typed field
  through the enum class, and ``null`` in a plain ``float`` field back
  to +inf.  A missing key takes the field's default, so a key may be
  omitted exactly when its constructor argument may be.
* At construction, JSON or Python alike, a field typed ``int`` or
  ``int | None`` rejects bools, floats (``8.0`` and NaN included) and
  strings with ``<field> must be an integer, got <value>``; Python and
  numpy integers pass.  A spec class with its own ``__post_init__``
  calls ``super().__post_init__()`` first.
* Unknown keys, missing required keys, non-object sections and enum
  values outside the enum raise ``ValueError`` naming the section,
  whose label derives from the class name (``ReplicaGroupSpec`` ->
  ``replica group``).  A typo'd knob silently running with its default
  would defeat the reproducible-config contract.  The one exception is
  a key the class lists in ``_RETIRED_KEYS``: a field since removed,
  whose old JSON still loads with the key dropped.  ``_RETIRED_KEYS``
  maps each such key to the one value it still loads with, or to
  :data:`ANY_VALUE` when no value of the removed field changed a
  result; any other value raises ``ValueError`` naming the section,
  since dropping it would change what runs (``"enabled": false`` on a
  prefix-cache or fault section).

Type hints resolve on first use, once per class, since the annotations
are strings until every module they name has loaded.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import numbers
import re
import types
import typing
from typing import Any, Callable, ClassVar, Final, Mapping, TypeVar

T = TypeVar("T")
S = TypeVar("S", bound="SpecCodec")

#: Field metadata: ``to_dict`` leaves the key out while the field holds
#: its default (``from_dict`` fills the default back in).
OMIT_DEFAULT: Mapping[str, bool] = types.MappingProxyType(
    {"omit_default": True})

#: A ``_RETIRED_KEYS`` value: the retired key loads whatever it holds.
ANY_VALUE: Final[object] = object()

_UNIONS = (typing.Union, types.UnionType)


def _decode(cls: type[T], data: Any) -> T:
    """Build dataclass ``cls`` from a JSON object, field by field."""
    label = _section_label(cls)
    if not isinstance(data, dict):
        raise ValueError(f"{label} section must be a JSON object, "
                         f"got {type(data).__name__}")
    allowed = {field.name for field in _fields(cls)}
    retired: Mapping[str, object] = getattr(cls, "_RETIRED_KEYS", {})
    unknown = set(data) - allowed - set(retired)
    if unknown:
        raise ValueError(
            f"unknown {label} field(s): {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}")
    for key, kept in retired.items():
        if key in data and kept is not ANY_VALUE and data[key] != kept:
            raise ValueError(
                f"retired {label} field {key!r} loads only as {kept!r}, "
                f"got {data[key]!r}: drop the {label} section instead")
    hints = _hints(cls)
    kwargs: dict[str, Any] = {}
    missing: list[str] = []
    for field in _fields(cls):
        if field.name in data:
            kwargs[field.name] = _decode_value(
                hints[field.name], data[field.name], cls, field.name)
        elif field.default is dataclasses.MISSING \
                and field.default_factory is dataclasses.MISSING:
            missing.append(field.name)
    if missing:
        raise ValueError(f"missing {label} field(s): {', '.join(missing)}")
    build: Callable[..., T] = cls
    return build(**kwargs)


class SpecCodec:
    """Mixin: the JSON round-trip of a frozen spec dataclass."""

    #: keys of removed fields that ``from_dict`` accepts and drops, each
    #: with the one value it may hold (or :data:`ANY_VALUE`)
    _RETIRED_KEYS: ClassVar[Mapping[str, object]] = \
        types.MappingProxyType({})

    def __post_init__(self) -> None:
        """Reject a non-integer in an ``int`` or ``int | None`` field:
        a float count would fail deep in numpy or an engine's
        ``range()`` instead of at the spec."""
        for name, optional in _integer_fields(type(self)):
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")

    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON object, keys in field order."""
        return _encode_fields(self)

    @classmethod
    def from_dict(cls: type[S], data: dict[str, Any]) -> S:
        """Rebuild the spec from :meth:`to_dict` output."""
        return _decode(cls, data)


def _fields(cls_or_instance: Any) -> tuple[dataclasses.Field[Any], ...]:
    return dataclasses.fields(cls_or_instance)


def _section_label(cls: type[Any]) -> str:
    """The name errors give a section: ``ReplicaGroupSpec`` ->
    ``replica group``."""
    words = re.findall(r"[A-Z][a-z0-9]*", cls.__name__.removesuffix("Spec"))
    return " ".join(words).lower()


@functools.cache
def _hints(cls: type[Any]) -> dict[str, Any]:
    return typing.get_type_hints(cls)


@functools.cache
def _integer_fields(cls: type[Any]) -> tuple[tuple[str, bool], ...]:
    """``(name, None allowed)`` for each ``int`` / ``int | None`` field."""
    found: list[tuple[str, bool]] = []
    for field in _fields(cls):
        hint = _hints(cls)[field.name]
        if hint is int:
            found.append((field.name, False))
        elif typing.get_origin(hint) in _UNIONS \
                and set(typing.get_args(hint)) == {int, type(None)}:
            found.append((field.name, True))
    return tuple(found)


def _encode(value: Any) -> Any:
    """``value`` as plain JSON data."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode_fields(value)
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


def _encode_fields(spec: Any) -> dict[str, Any]:
    hints = _hints(type(spec))
    data: dict[str, Any] = {}
    for field in _fields(spec):
        value = getattr(spec, field.name)
        if field.metadata.get("omit_default") and value == field.default:
            continue
        data[field.name] = None if hints[field.name] is float \
            and value == math.inf else _encode(value)
    return data


def _decode_value(hint: Any, value: Any, owner: type[Any],
                  name: str) -> Any:
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(
                f"{_section_label(owner)} field {name!r} must be a JSON "
                f"array, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(_decode_value(item, element, owner, name)
                     for element in value)
    if hint is float and value is None:
        return math.inf
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            allowed = ", ".join(str(member.value) for member in hint)
            raise ValueError(
                f"{_section_label(owner)} field {name!r} must be one of "
                f"{allowed}; got {value!r}") from None
    members = typing.get_args(hint) if typing.get_origin(hint) in _UNIONS \
        else (hint,)
    specs = [member for member in members if dataclasses.is_dataclass(member)]
    if not specs:
        return value
    spec = specs[0]
    if isinstance(value, dict):
        return _decode(spec, value)
    others = [member for member in members
              if member is not spec and member is not type(None)]
    if isinstance(value, spec) or others \
            or (value is None and type(None) in members):
        # a ready spec, or a value for the union's other members
        # (a registry name) that the constructor validates
        return value
    raise ValueError(f"{_section_label(spec)} section must be a JSON "
                     f"object, got {type(value).__name__}")
