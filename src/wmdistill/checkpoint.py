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

Every run and dataset file is written by `write_atomic`, so it is replaced
whole or left as it was; `BoundedReader` parses the one format of both.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Tuple

import numpy as np

MAGIC = b"TDCK"
VERSION = 1

_DTYPE_CODES = {"f32": 0, "f16": 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}
_WIRE = {"f32": "<f4", "f16": "<u2"}     # on-disk element type per dtype


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
        data = np.ascontiguousarray(self.data, dtype=want)
        self.shape = tuple(int(d) for d in self.shape)
        # no reshape when the shape already fits: a read array stays its own base
        self.data = data if data.shape == self.shape else data.reshape(self.shape)

    def as_f32(self) -> np.ndarray:
        """Widen to float32 for compute (exact for every f16 value)."""
        if self.dtype == "f32":
            return self.data
        return self.data.view(np.float16).astype(np.float32)

    def payload_bytes(self) -> int:
        return math.prod(self.shape) * np.dtype(_WIRE[self.dtype]).itemsize


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


def _decode_metadata(text: str, origin: str) -> Dict[str, str]:
    lines = text.split("\n") if text else []
    for line in lines:
        if "=" not in line:
            raise CheckpointFormatError(f"metadata line {line!r} has no '=' "
                                        f"in checkpoint {origin}")
    return dict(line.split("=", 1) for line in lines)


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
        parts.append(wire_view(entry.data, _WIRE[entry.dtype]))
    return parts


def serialize(ckpt: Checkpoint) -> bytes:
    return b"".join(_serialized_parts(ckpt))


def deserialize(raw: bytes, origin: str = "<bytes>") -> Checkpoint:
    reader = BoundedReader(raw, MAGIC, CheckpointFormatError, f"checkpoint {origin}")
    (version,) = reader.unpack("<I", "version")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version} in {origin}")
    (meta_len,) = reader.unpack("<I", "metadata length")
    metadata = _decode_metadata(reader.text(meta_len, "metadata"), origin)
    (n_tensors,) = reader.unpack("<I", "tensor count")
    ckpt = Checkpoint(metadata=metadata)
    for _ in range(n_tensors):
        (name_len,) = reader.unpack("<H", "tensor name length")
        name = reader.text(name_len, "tensor name")
        code, ndim = reader.unpack("<BB", "tensor dtype/ndim")
        if code not in _DTYPE_NAMES:
            raise CheckpointFormatError(f"unknown dtype code {code} in {origin}")
        shape = reader.unpack(f"<{ndim}I", "tensor shape")
        dtype = _DTYPE_NAMES[code]
        ckpt.add_tensor(name, dtype,
                        reader.array(_WIRE[dtype], shape, f"tensor {name!r} payload"))
    reader.finish()
    return ckpt


def content_hash(ckpt: Checkpoint) -> str:
    digest = hashlib.sha256()
    for part in _serialized_parts(ckpt):
        digest.update(part)
    return digest.hexdigest()


def wire_view(arr: np.ndarray, wire: str) -> memoryview:
    """`arr`'s values as little-endian `wire` bytes, for `write_atomic`: on
    little-endian hosts a view of the array's own memory, not a copy."""
    return memoryview(arr.astype(wire, copy=False).reshape(-1).view(np.uint8))


def text_lines(lines: Iterable[str]) -> bytes:
    """`lines`, each ended by a newline, as utf-8: one part for `write_atomic`."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_atomic(path, parts: Iterable[bytes]) -> None:
    """Write `parts` in order to `path` so that readers see the old file or
    the whole new one: they go to a temporary file in the same directory,
    which then replaces `path`. If writing fails, the temporary file is
    removed and `path` is left as it was. There is no fsync: this guards
    against a killed or failing process, not against a power cut."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class BoundedReader:
    """Parses `raw`, which must start with `magic`, front to back; a wrong
    magic, a shortfall, text that is not utf-8 or leftover bytes raise
    `error` naming `label` (e.g. "checkpoint x.tdck"). Arrays are copied
    once out of a memoryview, so they are writable and share no memory with
    `raw`."""

    def __init__(self, raw: bytes, magic: bytes, error: type, label: str):
        self._view = memoryview(raw)
        self._off = 0
        self._error = error
        self._label = label
        if self.take(len(magic), "magic") != magic:
            raise error(f"bad magic in {label}")

    def take(self, n: int, what: str) -> memoryview:
        if self._off + n > len(self._view):
            raise self._error(f"truncated {self._label}: missing {what}")
        chunk = self._view[self._off:self._off + n]
        self._off += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise self._error(f"{what} is not utf-8 in {self._label}") from None

    def array(self, wire: str, shape: Tuple[int, ...], what: str) -> np.ndarray:
        dtype = np.dtype(wire)
        payload = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()

    def finish(self) -> None:
        if self._off != len(self._view):
            raise self._error(f"trailing bytes in {self._label}")


def write_checkpoint(path, ckpt: Checkpoint) -> str:
    """Write atomically and return the content hash of what was written.

    The parts are built before the file is opened, so a checkpoint that
    cannot be serialized leaves no file behind.
    """
    parts = _serialized_parts(ckpt)
    digest = hashlib.sha256()

    def hashed():
        for part in parts:
            digest.update(part)
            yield part

    write_atomic(path, hashed())
    return digest.hexdigest()


def read_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    return deserialize(path.read_bytes(), origin=str(path))


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
