"""JSON records: dataclasses written to and read from JSON by their fields.

A record is a dataclass whose fields are annotated ``int``, ``float``,
``bool``, ``str``, an enum, a record, ``list[T]``, ``tuple[T, U]`` or
``T | None``.  Its JSON object holds each field under its name, in
order, enums as their values.  Field metadata
``{"json": key}`` stores a field under ``key`` instead; ``INLINE`` puts a
record field's keys in the enclosing object, after its own keys;
``UNRECORDED`` leaves a field out, to read back as its default;
``{"least": n}`` bounds a number from below.

:func:`fields_dict` is the one writer and :func:`read` the one reader.
Reading is exact: a missing or unknown key, or a value not of its
annotation's JSON type (a bool is no ``int``), raises :class:`ConfigError`
naming the key path, e.g. ``rois[0].x0``, put together only on the way out
of a failed read.  :func:`check_fields` checks a record built in Python
with the same per-value check.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import types
import typing
from enum import EnumMeta
from sys import float_info

from .errors import ConfigError

INLINE = {"json": "inline"}
UNRECORDED = {"json": None}

# What each scalar annotation admits; an enum admits only its members.
_ADMITS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}


class _Misfit(Exception):
    """A value that does not fit: ``message`` makes the error text from the
    key path, which ``keys`` gathers, innermost first, as the read unwinds."""

    def __init__(self, message, *keys):
        self.message, self.keys = message, list(keys)

    def error(self) -> ConfigError:
        path = ""
        for key in reversed(self.keys):
            path += f"[{key}]" if type(key) is int else f".{key}" if path else key
        return ConfigError(self.message(path))


def _expected(what: str, value) -> _Misfit:
    text = f"expected {what}, got {value!r}"
    return _Misfit(lambda key: f"key {key!r}: {text}" if key else text)


def _fit(kind, least, value) -> None:
    """Raise :class:`_Misfit` unless ``value`` fits the scalar annotation ``kind``:
    an ``int`` takes any integer but no bool, a ``float`` any finite real
    number but no bool, an enum only its members; ``least`` is a lower bound."""
    # bool is an Integral, so it is told apart first.
    if type(value) is not kind and (
        isinstance(value, bool) != (kind is bool) or not isinstance(value, _ADMITS.get(kind, kind))
    ):
        choices = f" ({'|'.join(m.value for m in kind)})" if isinstance(kind, EnumMeta) else ""
        raise _expected(kind.__name__ + choices, value)
    # An int is compared as it is: math.isfinite() would overflow on a huge one.
    if kind is float and not abs(value if type(value) is int else float(value)) <= float_info.max:
        raise _Misfit(lambda key: f"{key} must be finite, got {value}")
    if least is not None and value < least:
        raise _Misfit(lambda key: f"key {key!r}: must be at least {least}, got {value}")


def _check_keys(names, value, extra_keys: bool = False) -> None:
    """Raise unless ``value`` is an object, naming the first of ``names`` it
    lacks, or else its first key not in ``names`` unless ``extra_keys``."""
    if type(value) is not dict:
        raise _expected("an object", value)
    for name in names:
        if name not in value:
            raise _Misfit(lambda key: f"key {key!r} is missing", name)
    for name in () if extra_keys else value:
        if name not in names:
            raise _Misfit(lambda key: f"key {key!r} is unknown", name)


@functools.lru_cache(maxsize=None)
def _reader(kind, optional: bool = False, least=None):
    """Function taking parsed JSON to a value of annotation ``kind``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if dataclasses.is_dataclass(kind):
        read = functools.partial(_read_record, kind)
    elif origin in (list, tuple):
        items = tuple(map(_reader, args))

        def read(value):
            if type(value) is not list or origin is tuple and len(value) != len(items):
                raise _expected("a list" if origin is list else f"a list of {len(items)}", value)
            out = []
            try:
                for item, member in zip(items if origin is tuple else items * len(value), value):
                    out.append(item(member))
            except _Misfit as misfit:
                misfit.keys.append(len(out))
                raise
            return out if origin is list else tuple(out)
    else:
        members = kind._value2member_map_ if isinstance(kind, EnumMeta) else {}
        plain = kind if kind in (int, bool, str) and least is None else None

        def read(value):
            if type(value) is plain:
                return value
            value = members.get(value, value) if type(value) is str else value
            _fit(kind, least, value)
            return value
    return (lambda value: None if value is None else read(value)) if optional else read


@functools.lru_cache(maxsize=None)
def _writer(kind):
    """Function taking a value of annotation ``kind`` to JSON, or ``None``
    when the value is its own JSON form (a tuple holds only such values)."""
    if dataclasses.is_dataclass(kind):
        return fields_dict
    if isinstance(kind, EnumMeta):
        return lambda member: member.value
    item = _writer(typing.get_args(kind)[0]) if typing.get_origin(kind) is list else None
    return item and (lambda value: [item(member) for member in value])


@functools.lru_cache(maxsize=None)
def field_table(cls) -> types.SimpleNamespace:
    """The fields of record class ``cls``, worked out once: ``scalars`` holds
    ``(name, T, takes None, least)`` per field of an ``int``, ``float``, ``bool``,
    ``str`` or enum type ``T``; ``reads`` and ``writes`` ``(name, key, reader or
    writer)`` per field stored under a key of its own; ``inline`` ``(name, record
    class)`` per INLINE field; ``keys`` the keys of the JSON object."""
    table = types.SimpleNamespace(scalars=[], reads=[], writes=[], inline=[])
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind, args = hints[f.name], typing.get_args(hints[f.name])
        optional = typing.get_origin(kind) is types.UnionType and type(None) in args
        if optional:
            kind = next(a for a in args if a is not type(None))
        least, stored = f.metadata.get("least"), f.metadata.get("json", f.name)
        if kind in _ADMITS or isinstance(kind, EnumMeta):
            table.scalars.append((f.name, kind, optional, least))
        if stored == "inline":
            table.inline.append((f.name, kind))
        elif stored:
            table.writes.append((f.name, stored, _writer(kind)))
            if f.init:
                table.reads.append((f.name, stored, _reader(kind, optional, least)))
    table.keys = [key for _, key, _ in table.reads]
    table.keys += [key for _, kind in table.inline for key in field_table(kind).keys]
    table.key_set = frozenset(table.keys)
    return table


def check_fields(spec, prefix: str = "", keys: dict[str, str] | None = None) -> None:
    """Raise :class:`ConfigError` naming, after ``prefix``, the first misfit
    scalar of ``spec``: by ``keys[name]`` where ``keys`` has its field
    name, else by the field name."""
    try:
        for name, kind, optional, least in field_table(type(spec)).scalars:
            value = getattr(spec, name)
            if value is not None or not optional:
                _fit(kind, least, value)
    except _Misfit as misfit:
        raise ConfigError(misfit.message(prefix + (keys or {}).get(name, name))) from None


def _read_record(cls, value, extra_keys: bool = False):
    table, fields = field_table(cls), {}
    if type(value) is not dict or not (
        table.key_set <= value.keys() if extra_keys else value.keys() == table.key_set
    ):
        _check_keys(table.keys, value, extra_keys)
    try:
        for name, key, read in table.reads:
            fields[name] = read(value[key])
    except _Misfit as misfit:
        misfit.keys.append(key)
        raise
    for name, kind in table.inline:
        fields[name] = _read_record(kind, value, extra_keys=True)
    return cls(**fields)


def read(cls, value, extra_keys: bool = False):
    """The ``cls`` record that parsed JSON ``value`` holds; ``extra_keys``
    lets through top-level keys that no field names."""
    try:
        return _read_record(cls, value, extra_keys)
    except _Misfit as misfit:
        raise misfit.error() from None


def fields_dict(spec) -> dict:
    """The JSON form of record ``spec``."""
    table, out = field_table(type(spec)), {}
    for name, key, write in table.writes:
        value = getattr(spec, name)
        out[key] = write(value) if write and value is not None else value
    for name, _ in table.inline:
        out.update(fields_dict(getattr(spec, name)))
    return out


def ungroup(value, layout: dict) -> dict:
    """The flat object that JSON ``value``, laid out as ``layout``, holds.

    ``layout`` maps each key of ``value`` to a key of the flat object, or
    to the layout of the object under that key.  A key missing from
    ``value`` or not in ``layout`` raises :class:`ConfigError` naming it.
    """

    def take(value, layout, flat):
        _check_keys(layout, value)
        for key, into in layout.items():
            try:
                if type(into) is dict:
                    take(value[key], into, flat)
                else:
                    flat[into] = value[key]
            except _Misfit as misfit:
                misfit.keys.append(key)
                raise
        return flat

    try:
        return take(value, layout, {})
    except _Misfit as misfit:
        raise misfit.error() from None


def group(flat: dict, layout: dict) -> dict:
    """Inverse of :func:`ungroup`: ``flat`` laid out as ``layout``."""
    return {key: group(flat, into) if type(into) is dict else flat[into]
            for key, into in layout.items()}


_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _flat_encoder(level: int):
    """Encoder of a container that holds no container, ``level`` deep.

    Without ``indent``, :mod:`json` encodes in C; the item separator
    carries the newline and the indent of the items one level down.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * (level + 1), ": ")).encode


def _is_flat(value) -> bool:
    for member in value.values() if isinstance(value, dict) else value:
        if isinstance(member, _CONTAINERS):
            return False
    return True


def _rows_of_one_kind(value) -> bool:
    """Whether every member of the list ``value`` is a nonempty container
    holding no container, all dicts or all lists."""
    kind = dict if isinstance(value[0], dict) else (list, tuple)
    return all(member and isinstance(member, kind) and _is_flat(member) for member in value)


def _indented(value, level: int) -> str:
    # A raw newline never appears inside encoded JSON text, so in what the
    # flat encoders return the separators hold the only newlines.
    is_dict = isinstance(value, dict)
    if not value or not (is_dict or isinstance(value, (list, tuple))):
        return _flat_encoder(level)(value)
    open_, close = "{}" if is_dict else "[]"
    pad, inner = "  " * level, "  " * (level + 1)
    if _is_flat(value):
        return open_ + "\n" + inner + _flat_encoder(level)(value)[1:-1] + "\n" + pad + close
    if not is_dict and _rows_of_one_kind(value):
        # One call encodes the whole list.  Its members' closing and
        # opening brackets meet a separator only between two members, and
        # there the member indent is put back.
        row_open, row_close = "{}" if isinstance(value[0], dict) else "[]"
        deeper = "\n" + "  " * (level + 2)
        text = _flat_encoder(level + 1)(value)[2:-2].replace(
            row_close + "," + deeper + row_open,
            "\n" + inner + row_close + ",\n" + inner + row_open + deeper,
        )
        return (open_ + "\n" + inner + row_open + deeper + text + "\n" + inner + row_close
                + "\n" + pad + close)
    # In '{"k": 0}' the C encoder turns any key into text as json.dumps does.
    members = (
        (_flat_encoder(level)({k: 0})[1:-2] + _indented(v, level + 1) for k, v in value.items())
        if is_dict else (_indented(v, level + 1) for v in value)
    )
    return open_ + "\n" + inner + (",\n" + inner).join(members) + "\n" + pad + close


def dumps_indented(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in less time.

    ``indent`` makes :mod:`json` fall back to its pure-Python encoder;
    here every container that holds no container is encoded by the C
    encoder, with the indented item separator.
    """
    return _indented(value, 0)
