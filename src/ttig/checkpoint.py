"""Bit-exact checkpoint container: manifest.json plus packed float32 bytes.

The manifest records, per parameter, the name, shape, dtype, byte offset and
byte length into weights.bin (contiguous little-endian float32), alongside
the embedded config and a format_version. Loading validates the version and
the offset table (in-bounds, non-overlapping) before touching any bytes, and
a save/load round trip reproduces every parameter bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import contrastive, seq2seq, vq
from .errors import DataError

FORMAT_VERSION = 1
_DTYPE = "<f4"


def save_checkpoint(state: dict, config: dict, path):
    """state maps parameter names to float32 arrays; config is JSON-serializable."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    blobs = []
    offset = 0
    for name in state:
        arr = np.ascontiguousarray(state[name], dtype=_DTYPE)
        raw = arr.tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": _DTYPE,
            "byte_offset": offset,
            "byte_len": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = {"format_version": FORMAT_VERSION, "config": config, "params": entries}
    (path / "weights.bin").write_bytes(b"".join(blobs))
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _is_count(x) -> bool:
    """A non-negative JSON integer; a bool is not one."""
    return type(x) is int and x >= 0


def _validate_manifest(manifest, blob_len: int, where):
    """Raise DataError, naming where (the manifest.json), unless manifest is
    an object with the format version, a config object and a params list of
    entries with a new name, a list of non-negative ints for shape, and
    in-bounds, non-overlapping float32 spans."""
    def bad(msg):
        return DataError(f"{where}: {msg}")

    if not isinstance(manifest, dict):
        raise bad("not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise bad(f"unsupported checkpoint format_version {version!r}")
    if not isinstance(manifest.get("config"), dict):
        raise bad("config is missing or not an object")
    entries = manifest.get("params")
    if not isinstance(entries, list):
        raise bad("no params list")
    spans, seen = [], set()
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise bad(f"params[{i}] is not an object")
        for key in ("name", "shape", "dtype", "byte_offset", "byte_len"):
            if key not in e:
                raise bad(f"params[{i}] missing {key!r}")
        name = e["name"]
        if not isinstance(name, str):
            raise bad(f"params[{i}] has name {name!r}, not a string")
        if name in seen:
            raise bad(f"parameter name {name!r} appears twice")
        seen.add(name)
        if e["dtype"] != _DTYPE:
            raise bad(f"unsupported dtype {e['dtype']!r} for {name!r}")
        shape = e["shape"]
        if not (isinstance(shape, list) and all(_is_count(n) for n in shape)):
            raise bad(f"{name!r} has shape {shape!r}, not a list of non-negative ints")
        for key in ("byte_offset", "byte_len"):
            if not _is_count(e[key]):
                raise bad(f"{name!r} has {key} {e[key]!r}, not a non-negative int")
        if e["byte_len"] != 4 * math.prod(shape):
            raise bad(f"byte_len {e['byte_len']} does not match shape "
                      f"{shape} for {name!r}")
        start, end = e["byte_offset"], e["byte_offset"] + e["byte_len"]
        if end > blob_len:
            raise bad(f"{name!r} spans [{start}, {end}) outside "
                      f"weights.bin of {blob_len} bytes")
        spans.append((start, end, name))
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise bad(f"overlapping manifest spans: {n0!r} and {n1!r}")


def load_checkpoint(path):
    """-> (state dict, config dict). Validates before reading any array."""
    path = Path(path)
    mpath = path / "manifest.json"
    wpath = path / "weights.bin"
    if not mpath.exists() or not wpath.exists():
        raise DataError(f"{path} is not a checkpoint directory")
    try:
        manifest = json.loads(mpath.read_text())
    except ValueError as e:  # bad JSON or bad UTF-8
        raise DataError(f"corrupt manifest.json at {mpath}: {e}") from None
    blob = wpath.read_bytes()
    _validate_manifest(manifest, len(blob), mpath)
    state = {}
    for e in manifest["params"]:
        start = e["byte_offset"]
        arr = np.frombuffer(blob, dtype=_DTYPE, count=e["byte_len"] // 4,
                            offset=start)
        state[e["name"]] = arr.reshape(e["shape"]).astype(np.float32)
    return state, manifest["config"]


# ---------------------------------------------------------------------------
# typed wrappers: each stores the config dataclass next to the weights

# checkpoint kind -> the config section that holds its dataclass
_SECTION = {"seq2seq": "model", "tokenizer": "tokenizer",
            "dual_encoder": "encoder"}
# config field annotation -> the exact JSON value types it takes: a bool is
# never a number
_VALUE_TYPES = {"int": (int,), "float": (int, float)}


def field_types(cls) -> dict:
    """Field name -> annotation string of a config dataclass."""
    return {f.name: f.type for f in fields(cls)}


def check_section(section: dict, types: dict, key: str, where: str):
    """Raise DataError, naming where and key, unless every name in section
    is in types and every value has the JSON type its annotation takes."""
    unknown = set(section) - set(types)
    if unknown:
        raise DataError(f"{where} has unknown config field(s) "
                        f"{', '.join(f'{key}.{name}' for name in sorted(unknown))}")
    for name, value in section.items():
        if type(value) not in _VALUE_TYPES[types[name]]:
            raise DataError(f"{where} has config field {key}.{name} = "
                            f"{value!r}, which is not {types[name]}")


def _save_typed(w, kind, path):
    save_checkpoint(w.params.state_dict(),
                    {"kind": kind, _SECTION[kind]: asdict(w.cfg)}, path)


def _load_typed(path, kind, cfg_cls, build):
    """Validate kind, config section (field names and value types) and that
    every weight is finite, then build(cfg, 0, skeleton=True), zeros with no
    random draws, and load."""
    state, config = load_checkpoint(path)
    if config.get("kind") != kind:
        raise DataError(f"expected a {kind!r} checkpoint, found "
                        f"{config.get('kind')!r} at {path}")
    key = _SECTION[kind]
    section = config.get(key)
    if not isinstance(section, dict):
        raise DataError(f"{kind!r} checkpoint at {path} has no {key!r} config")
    check_section(section, field_types(cfg_cls), key,
                  f"{kind!r} checkpoint at {path}")
    for name, arr in state.items():
        if not np.isfinite(arr).all():
            raise DataError(f"{Path(path) / 'weights.bin'}: parameter {name!r} "
                            f"holds a NaN or infinite value")
    w = build(cfg_cls(**section), 0, skeleton=True)
    w.params.load_state(state)
    return w


def save_model(w, path):
    _save_typed(w, "seq2seq", path)


def load_model(path):
    return _load_typed(path, "seq2seq", seq2seq.ModelConfig, seq2seq.build_model)


def save_tokenizer(w, path):
    _save_typed(w, "tokenizer", path)


def load_tokenizer(path):
    return _load_typed(path, "tokenizer", vq.TokenizerConfig, vq.build_tokenizer)


def save_encoder(enc, path):
    _save_typed(enc, "dual_encoder", path)


def load_encoder(path):
    return _load_typed(path, "dual_encoder", contrastive.EncoderConfig,
                       contrastive.build_encoder)

