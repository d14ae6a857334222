"""Flat dotted-key config files, run manifests, and NDJSON output.

Config files are plain text: one `key = value` pair per line, `#` comments,
values parsed as bool/int/float/string or `[a, b]` lists.  The full key
table is documented in the README.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from datetime import datetime, timezone

from . import __version__
from .evolution import SimConfig, _dotted_key

__all__ = [
    "parse_flat",
    "config_from_file",
    "sim_config_from_dict",
    "canonical_text",
    "write_manifest",
    "write_ndjson",
]


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        return [_parse_value(tok) for tok in inner.split(",")] if inner else []
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    return raw


def parse_flat(text: str) -> dict:
    """Parse `dotted.key = value` lines into a flat dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        out[key.strip()] = _parse_value(raw)
    return out


_KEY_MAP = {_dotted_key(f.name): f.name for f in fields(SimConfig)}


def sim_config_from_dict(flat: dict) -> SimConfig:
    kwargs = {}
    for key, value in flat.items():
        if key not in _KEY_MAP:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[_KEY_MAP[key]] = value
    return SimConfig(**kwargs)


def config_from_file(path) -> SimConfig:
    with open(path) as fh:
        return sim_config_from_dict(parse_flat(fh.read()))


def canonical_text(cfg: SimConfig) -> str:
    """Deterministic flat rendering of a config (for digests and manifests)."""
    reverse = {v: k for k, v in _KEY_MAP.items()}
    lines = []
    for field in sorted(reverse):
        value = getattr(cfg, field)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = "[" + ", ".join(repr(v) for v in value) + "]"
        lines.append(f"{reverse[field]} = {value}")
    return "\n".join(lines) + "\n"


def write_manifest(out_dir, cfg: SimConfig, outputs) -> str:
    """Write the run manifest; refuses to overwrite (manifests are immutable)."""
    path = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(path):
        raise FileExistsError(f"{path} already exists; manifests are immutable")
    text = canonical_text(cfg)
    digest = hashlib.sha256(text.encode()).hexdigest()
    stamp = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        fh.write("peskin-lab manifest v1\n")
        fh.write(f"created_utc: {stamp}\n")
        fh.write(f"code_version: {__version__}\n")
        fh.write(f"seed: {cfg.seed}\n")
        fh.write(f"config_sha256: {digest}\n")
        fh.write(f"outputs: {', '.join(outputs)}\n")
        fh.write("--- config ---\n")
        fh.write(text)
    return path


def write_ndjson(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
