"""Stable hashing, seed derivation, and the flat key-value config format.

Everything here must be deterministic across processes and platforms:
hashes and derived seeds feed freeze manifests and the seeded simulator,
so no use of Python's randomized str hash or dict iteration order.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from typing import Any, Iterable, Mapping


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stable_digest(*parts: Any) -> str:
    """Hex digest of a tuple of json-serializable parts, order-sensitive."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return sha256_hex(blob.encode("utf-8"))


def derive_seed(*parts: Any) -> int:
    """Deterministic 64-bit seed from arbitrary labeled parts.

    Used to give every (world, purpose, index, ...) tuple its own RNG stream
    without any shared mutable state.
    """
    return int.from_bytes(bytes.fromhex(stable_digest(*parts)[:16]), "big")


def parse_kv_file(path: str) -> dict[str, str]:
    """Parse a flat key-value config file.

    One `key = value` per line; blank lines and `#` comments ignored; a
    repeated key is an error.
    Keys may be dotted (e.g. applicability_rate.rule) to express flat maps.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (t.strip() for t in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = value
    return out


def write_kv_file(path: str, items: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(items):
            fh.write(f"{key} = {items[key]}\n")


@functools.cache
def _fields(cls) -> tuple:
    """(attribute, config key, type, shape) per field of a config dataclass.

    Shape "nested" is a dataclass and "pairs" a tuple[tuple[str, V], ...],
    with type V; both are written as dotted keys `field.sub`.
    """
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        tp, shape = hints[f.name], "scalar"
        if dataclasses.is_dataclass(tp):
            shape = "nested"
        elif typing.get_origin(tp) is tuple:
            tp, shape = typing.get_args(typing.get_args(tp)[0])[1], "pairs"
        out.append((f.name, f.metadata.get("key", f.name), tp, shape))
    return tuple(out)


def _optional_base(tp):
    """(T, True) for `T | None`, else (tp, False)."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    return (args[0], True) if len(args) < len(typing.get_args(tp)) else (tp, False)


def _encode(tp, value) -> str:
    base, _ = _optional_base(tp)
    if value is None:
        return "none"
    if base is float:
        return repr(value)
    if typing.get_origin(base) is frozenset:
        return ",".join(sorted(value))
    return str(value)


def parse_value(key: str, tp, text: str):
    """Decode one flat value of declared type `tp`; a bad value names its key.

    Optionals read `none` or an empty value as None; frozensets are comma
    lists with blanks dropped; int, float and str go through their type.
    """
    base, optional = _optional_base(tp)
    if not isinstance(text, str):
        raise ValueError(f"{key}: expected a string value, got {text!r}")
    if optional and text.lower() in ("none", ""):
        return None
    if typing.get_origin(base) is frozenset:
        return frozenset(t.strip() for t in text.split(",") if t.strip())
    try:
        return base(text)
    except ValueError:
        raise ValueError(f"{key}: expected {base.__name__}{' or none' * optional}, got {text!r}") from None


def to_flat(obj) -> dict[str, str]:
    """Flat `key = value` form of a config dataclass.

    The key is the field name, or `metadata["key"]` when set. Floats are
    written with repr, None as `none`, frozensets as a sorted comma list.
    """
    flat: dict[str, str] = {}
    for name, key, tp, shape in _fields(type(obj)):
        value = getattr(obj, name)
        if shape == "nested":
            flat.update((f"{key}.{k}", v) for k, v in to_flat(value).items())
        elif shape == "pairs":
            flat.update((f"{key}.{n}", _encode(tp, v)) for n, v in value)
        else:
            flat[key] = _encode(tp, value)
    return flat


def from_flat(cls, flat: Mapping[str, str]):
    """Inverse of to_flat; a missing key keeps the field's default.

    An unknown key or a value that does not parse is a ValueError naming the
    key; the dataclass checks the decoded values itself.
    """
    rest = dict(flat)
    kwargs = _take_fields(cls, rest, "")
    if rest:
        raise ValueError(f"unknown {cls.__name__} config keys: {sorted(rest)}")
    return cls(**kwargs)


def _take_fields(cls, flat: dict, prefix: str) -> dict:
    # pops every key it decodes, so the keys left in `flat` are unknown
    kwargs = {}
    for name, key, tp, shape in _fields(cls):
        key = prefix + key
        if shape == "nested":
            sub = _take_fields(tp, flat, key + ".")
            if sub:
                kwargs[name] = tp(**sub)
        elif shape == "pairs":
            keys = sorted(k for k in flat if k.startswith(key + "."))
            if keys:
                kwargs[name] = tuple((k[len(key) + 1:], parse_value(k, tp, flat.pop(k))) for k in keys)
        elif key in flat:
            kwargs[name] = parse_value(key, tp, flat.pop(key))
    return kwargs


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def indices_digest(indices: Iterable[int]) -> str:
    return stable_digest(list(indices))
