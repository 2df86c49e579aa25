"""Bit-exact checkpoint container: manifest.json plus packed float32 bytes.

The manifest holds the format_version, the embedded config and, per
parameter in order, its name and shape. weights.bin is the parameters'
little-endian float32 bytes joined in manifest order, so each parameter
starts where the one before it ends. Loading validates the manifest and
requires weights.bin to be exactly as long as the shapes add up to before
touching any bytes, and a save/load round trip reproduces every parameter
bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import contrastive, seq2seq, vq
from .errors import DataError

FORMAT_VERSION = 2
_DTYPE = "<f4"


def save_checkpoint(state: dict, config: dict, path):
    """state maps parameter names to float32 arrays; config is JSON-serializable."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays = {name: np.ascontiguousarray(a, dtype=_DTYPE) for name, a in state.items()}
    entries = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
    manifest = {"format_version": FORMAT_VERSION, "config": config, "params": entries}
    (path / "weights.bin").write_bytes(b"".join(a.tobytes() for a in arrays.values()))
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _validate_manifest(manifest, where):
    """Raise DataError, naming where (the manifest.json), unless manifest is
    an object with the format version, a config object and a params list of
    entries holding exactly a new name and a shape, a list of non-negative
    ints."""
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
    seen = set()
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise bad(f"params[{i}] is not an object")
        if set(e) != {"name", "shape"}:
            raise bad(f"params[{i}] has the keys {sorted(e)}, not ['name', 'shape']")
        name = e["name"]
        if not isinstance(name, str):
            raise bad(f"params[{i}] has name {name!r}, not a string")
        if name in seen:
            raise bad(f"parameter name {name!r} appears twice")
        seen.add(name)
        shape = e["shape"]
        # a bool is not a count
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise bad(f"{name!r} has shape {shape!r}, not a list of non-negative ints")


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
    _validate_manifest(manifest, mpath)
    blob = wpath.read_bytes()
    sizes = [math.prod(e["shape"]) for e in manifest["params"]]
    if 4 * sum(sizes) != len(blob):
        raise DataError(f"{wpath} is {len(blob)} bytes, but the shapes in its "
                        f"manifest.json need {4 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype=_DTYPE)
    state, offset = {}, 0
    for e, n in zip(manifest["params"], sizes):
        try:
            arr = flat[offset:offset + n].reshape(e["shape"])
        except ValueError:  # no floats, but a dimension numpy cannot hold
            raise DataError(f"{mpath}: {e['name']!r} has shape {e['shape']}, "
                            f"too large for an array") from None
        state[e["name"]] = arr.astype(np.float32)
        offset += n
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
    where = f"{kind!r} checkpoint at {path}"
    check_section(section, field_types(cfg_cls), key, where)
    try:
        cfg = cfg_cls(**section)
    except DataError as e:  # a value out of its range
        raise DataError(f"{where}: {e}") from None
    for name, arr in state.items():
        if not np.isfinite(arr).all():
            raise DataError(f"{Path(path) / 'weights.bin'}: parameter {name!r} "
                            f"holds a NaN or infinite value")
    w = build(cfg, 0, skeleton=True)
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

