"""Named-tensor checkpoint container ("TDCK") with canonical serialization.

Layout:

    bytes 0..3    magic b"TDCK"
    u32           version (currently 1)
    u32 + bytes   metadata block: utf-8 "key=value" lines, keys sorted
    u32           tensor count
    per tensor:   u16 + bytes  name (utf-8)
                  u8           dtype code (0 = f32, 1 = f16)
                  u8           ndim
                  u32[ndim]    shape
                  payload      little-endian values (f16 stored as raw bits)

Serialization is canonical -- metadata keys and tensors are sorted by name,
so the content hash (sha256 over the serialized bytes) is well defined and
identical for semantically equal checkpoints.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import numpy as np

MAGIC = b"TDCK"
VERSION = 1

_DTYPE_CODES = {"f32": 0, "f16": 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}
_DTYPE_SIZES = {"f32": 4, "f16": 2}


class CheckpointFormatError(ValueError):
    """Malformed checkpoint: bad magic, version mismatch, or truncation."""


@dataclass
class TensorEntry:
    name: str
    dtype: str                # "f32" or "f16"
    shape: tuple
    data: np.ndarray          # float32 for f32; uint16 bit patterns for f16

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPE_CODES:
            raise ValueError(f"unsupported dtype {self.dtype!r} for tensor {self.name!r}")
        want = np.float32 if self.dtype == "f32" else np.uint16
        self.data = np.ascontiguousarray(self.data, dtype=want).reshape(self.shape)
        self.shape = tuple(int(d) for d in self.shape)

    def as_f32(self) -> np.ndarray:
        """Widen to float32 for compute (exact for every f16 value)."""
        if self.dtype == "f32":
            return self.data
        return self.data.view(np.float16).astype(np.float32)

    def payload_bytes(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n * _DTYPE_SIZES[self.dtype]


@dataclass
class Checkpoint:
    metadata: Dict[str, str] = field(default_factory=dict)
    tensors: Dict[str, TensorEntry] = field(default_factory=dict)

    def add_tensor(self, name: str, dtype: str, data: np.ndarray) -> None:
        if name in self.tensors:
            raise ValueError(f"duplicate tensor name {name!r}")
        self.tensors[name] = TensorEntry(name, dtype, tuple(data.shape), data)

    def get(self, name: str) -> TensorEntry:
        return self.tensors[name]


def _encode_metadata(metadata: Dict[str, str]) -> bytes:
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"metadata entry {key!r} contains reserved characters")
        lines.append(f"{key}={value}")
    return "\n".join(lines).encode("utf-8")


def _decode_metadata(blob: bytes) -> Dict[str, str]:
    metadata: Dict[str, str] = {}
    if not blob:
        return metadata
    for line in blob.decode("utf-8").split("\n"):
        key, value = line.split("=", 1)
        metadata[key] = value
    return metadata


def _serialized_parts(ckpt: Checkpoint) -> list:
    """The serialized checkpoint as a list of byte buffers, in file order.

    On little-endian hosts tensor payloads are views of the tensors' own
    memory, not copies, so writing or hashing the parts one by one never
    holds the whole file.
    """
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta = _encode_metadata(ckpt.metadata)
    parts.append(struct.pack("<I", len(meta)))
    parts.append(meta)
    names = sorted(ckpt.tensors)
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        entry = ckpt.tensors[name]
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<BB", _DTYPE_CODES[entry.dtype], len(entry.shape)))
        parts.append(struct.pack(f"<{len(entry.shape)}I", *entry.shape))
        wire = "<f4" if entry.dtype == "f32" else "<u2"
        parts.append(memoryview(entry.data.astype(wire, copy=False)).cast("B"))
    return parts


def serialize(ckpt: Checkpoint) -> bytes:
    return b"".join(_serialized_parts(ckpt))


def deserialize(raw: bytes, origin: str = "<bytes>") -> Checkpoint:
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise CheckpointFormatError(f"truncated checkpoint {origin}: missing {what}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise CheckpointFormatError(f"bad magic in checkpoint {origin}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version} in {origin}")
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    metadata = _decode_metadata(take(meta_len, "metadata"))
    (n_tensors,) = struct.unpack("<I", take(4, "tensor count"))
    ckpt = Checkpoint(metadata=metadata)
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        name = take(name_len, "tensor name").decode("utf-8")
        code, ndim = struct.unpack("<BB", take(2, "tensor dtype/ndim"))
        if code not in _DTYPE_NAMES:
            raise CheckpointFormatError(f"unknown dtype code {code} in {origin}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
        dtype = _DTYPE_NAMES[code]
        count = 1
        for d in shape:
            count *= d
        wire = np.dtype("<f4") if dtype == "f32" else np.dtype("<u2")
        payload = take(count * wire.itemsize, f"tensor {name!r} payload")
        data = np.frombuffer(payload, dtype=wire).reshape(shape).copy()
        ckpt.add_tensor(name, dtype, data)
    if off != len(raw):
        raise CheckpointFormatError(f"trailing bytes in checkpoint {origin}")
    return ckpt


def content_hash(ckpt: Checkpoint) -> str:
    digest = hashlib.sha256()
    for part in _serialized_parts(ckpt):
        digest.update(part)
    return digest.hexdigest()


def write_checkpoint(path, ckpt: Checkpoint) -> str:
    """Write and return the content hash of what was written.

    The parts are built before the file is opened, so a checkpoint that
    cannot be serialized leaves no file behind.
    """
    parts = _serialized_parts(ckpt)
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)
            digest.update(part)
    return digest.hexdigest()


def read_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    return deserialize(path.read_bytes(), origin=str(path))


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
