"""One JSON codec for the frozen spec dataclasses.

A spec's JSON shape is its dataclass fields: :class:`SpecCodec` gives a
frozen spec dataclass ``to_dict()`` / ``from_dict()`` driven by
:func:`dataclasses.fields` and the fields' type hints, so a knob added
to a spec is serialized, parsed and validated with no second list to
keep in step.

* ``to_dict`` emits fields in declaration order.  A nested dataclass,
  or a tuple of them, recurses; a tuple becomes a JSON list.  A field
  whose metadata is :data:`OMIT_DEFAULT` is left out while it holds its
  default.
* ``from_dict`` decodes a JSON object arriving for a dataclass-typed
  field into that dataclass, and a list arriving for a
  ``tuple[X, ...]`` field element by element.  A missing key takes the
  field's default, so a key may be omitted exactly when its
  constructor argument may be.
* Unknown keys, missing required keys and non-object sections raise
  ``ValueError`` naming the section, whose label derives from the class
  name (``ReplicaGroupSpec`` -> ``replica group``).  A typo'd knob
  silently running with its default would defeat the
  reproducible-config contract.  The one exception is a key the class
  lists in ``_RETIRED_KEYS``: a field since removed, whose old JSON
  still loads with the key dropped.

Types with a hand-written format (a chip serializes its process node
by label) plug in through :func:`register_format`.  Type hints resolve
on first use, once per class, since the annotations are strings until
every module they name has loaded.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import types
import typing
from typing import Any, Callable, ClassVar, Mapping, TypeVar

T = TypeVar("T")
S = TypeVar("S", bound="SpecCodec")

#: Field metadata: ``to_dict`` leaves the key out while the field holds
#: its default (``from_dict`` fills the default back in).
OMIT_DEFAULT: Mapping[str, bool] = types.MappingProxyType(
    {"omit_default": True})

_FORMATS: dict[type[Any], tuple[Callable[[Any], Any],
                                Callable[[Any], Any]]] = {}
_UNIONS = (typing.Union, types.UnionType)


def register_format(cls: type[T], encoder: Callable[[T], Any],
                    decoder: Callable[[Any], T]) -> None:
    """Serialize ``cls`` values through a hand-written encoder/decoder
    pair instead of field by field."""
    _FORMATS[cls] = (encoder, decoder)


def check_keys(cls: type[Any], data: Any) -> dict[str, Any]:
    """``data`` itself, once it is a JSON object whose keys all name
    fields (or retired fields) of dataclass ``cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"{_section_label(cls)} section must be a JSON "
                         f"object, got {type(data).__name__}")
    allowed = {field.name for field in _fields(cls)}
    unknown = set(data) - allowed - getattr(cls, "_RETIRED_KEYS",
                                            frozenset())
    if unknown:
        raise ValueError(
            f"unknown {_section_label(cls)} field(s): "
            f"{', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}")
    return data


def decode(cls: type[T], data: Any) -> T:
    """Build dataclass ``cls`` from a JSON object, field by field."""
    check_keys(cls, data)
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
        raise ValueError(f"missing {_section_label(cls)} field(s): "
                         f"{', '.join(missing)}")
    build: Callable[..., T] = cls
    return build(**kwargs)


class SpecCodec:
    """Mixin: the JSON round-trip of a frozen spec dataclass."""

    #: keys of removed fields that ``from_dict`` accepts and drops
    _RETIRED_KEYS: ClassVar[frozenset[str]] = frozenset()

    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON object, keys in field order."""
        return _encode_fields(self)

    @classmethod
    def from_dict(cls: type[S], data: dict[str, Any]) -> S:
        """Rebuild the spec from :meth:`to_dict` output."""
        return decode(cls, data)


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


def _encode(value: Any) -> Any:
    """``value`` as plain JSON data."""
    custom = _FORMATS.get(type(value))
    if custom is not None:
        return custom[0](value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode_fields(value)
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


def _encode_fields(spec: Any) -> dict[str, Any]:
    data: dict[str, Any] = {}
    for field in _fields(spec):
        value = getattr(spec, field.name)
        if field.metadata.get("omit_default") and value == field.default:
            continue
        data[field.name] = _encode(value)
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
    members = typing.get_args(hint) if typing.get_origin(hint) in _UNIONS \
        else (hint,)
    specs = [member for member in members if member in _FORMATS
             or dataclasses.is_dataclass(member)]
    if not specs:
        return value
    spec = specs[0]
    if isinstance(value, dict):
        custom = _FORMATS.get(spec)
        return custom[1](value) if custom is not None \
            else decode(spec, value)
    others = [member for member in members
              if member is not spec and member is not type(None)]
    if isinstance(value, spec) or others \
            or (value is None and type(None) in members):
        # a ready spec, or a value for the union's other members
        # (a registry name) that the constructor validates
        return value
    raise ValueError(f"{_section_label(spec)} section must be a JSON "
                     f"object, got {type(value).__name__}")
