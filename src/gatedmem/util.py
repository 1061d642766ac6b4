"""Stable hashing, seed derivation, and the flat key-value config format.

Everything here must be deterministic across processes and platforms:
hashes and derived seeds feed freeze manifests and the seeded simulator,
so no use of Python's randomized str hash or dict iteration order.
"""

from __future__ import annotations

import hashlib
import json
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


def format_float(x: float, places: int = 8) -> str:
    return f"{x:.{places}f}"


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


def parse_opt_int(s: str) -> int | None:
    v = s.strip().lower()
    if v in ("none", ""):
        return None
    return int(v)


def split_csv(s: str) -> list[str]:
    return [t.strip() for t in s.split(",") if t.strip()]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def indices_digest(indices: Iterable[int]) -> str:
    return stable_digest(list(indices))
