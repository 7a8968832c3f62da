"""Post-training FP16 storage quantization of checkpoints.

Values are converted float32 -> IEEE-754 binary16 with round-to-nearest-even
(subnormal halves preserved); magnitudes above the largest finite half
(65504) clamp to +-65504 instead of producing infinities, and each clamp is
counted in the report. Compute always happens in float32 after widening --
quantization here is a storage decision, not a kernel one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .checkpoint import Checkpoint, TensorEntry, serialize

F16_MAX = 65504.0
F16_MIN_SUBNORMAL = 2.0 ** -24


class QuantizationError(ValueError):
    pass


@dataclass
class QuantReport:
    bytes_before: int
    bytes_after: int
    overflow_count: int
    per_tensor: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    # per_tensor values: (max abs error, max relative error) of f32->f16->f32

    @property
    def ratio(self) -> float:
        return self.bytes_after / self.bytes_before

    def csv_rows(self) -> List[str]:
        rows = ["tensor,max_abs_err,max_rel_err"]
        for name in sorted(self.per_tensor):
            abs_e, rel_e = self.per_tensor[name]
            rows.append(f"{name},{abs_e:.9g},{rel_e:.9g}")
        return rows

    def summary(self) -> str:
        worst_rel = max((r for _, r in self.per_tensor.values()), default=0.0)
        return (f"quantized {len(self.per_tensor)} tensors: "
                f"{self.bytes_before} -> {self.bytes_after} bytes "
                f"(ratio {self.ratio:.4f}), {self.overflow_count} clamped, "
                f"worst relative error {worst_rel:.3e}")


def _to_half(x: np.ndarray, what: str) -> Tuple[np.ndarray, int]:
    """float32 -> binary16 (RNE, clamped at +-65504); rejects NaN, naming
    `what`. Returns the halves and the number of clamped magnitudes."""
    if np.isnan(x).any():
        raise QuantizationError(f"NaN value in {what}")
    over = np.abs(x) > F16_MAX
    clamped = np.where(over, np.copysign(np.float32(F16_MAX), x), x)
    return clamped.astype(np.float16), int(over.sum())


def fp16_round_trip(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """float32 -> binary16 (RNE, clamped at +-65504) -> float32.

    Returns the widened values and the number of clamped magnitudes.
    """
    half, over = _to_half(np.asarray(values, dtype=np.float32),
                          "input to fp16 conversion")
    return half.astype(np.float32), over


def to_fp16(ckpt: Checkpoint) -> Tuple[Checkpoint, QuantReport]:
    """Quantize every f32 tensor to f16 storage; f16 tensors pass through."""
    bytes_before = len(serialize(ckpt))
    out = Checkpoint(metadata=dict(ckpt.metadata))
    overflow = 0
    per_tensor: Dict[str, Tuple[float, float]] = {}
    for name in sorted(ckpt.tensors):
        entry = ckpt.tensors[name]
        if entry.dtype == "f16":
            out.tensors[name] = TensorEntry(name, "f16", entry.shape, entry.data)
            continue
        x = entry.data
        half, over = _to_half(x, f"tensor {name!r}")
        overflow += over
        back = half.astype(np.float32)
        abs_err = np.abs(back - x)
        denom = np.abs(x)
        rel = np.divide(abs_err, denom, out=np.zeros_like(abs_err),
                        where=denom > 0)
        per_tensor[name] = (float(abs_err.max(initial=0.0)),
                            float(rel.max(initial=0.0)))
        out.add_tensor(name, "f16", half.view(np.uint16))
    report = QuantReport(bytes_before, len(serialize(out)), overflow, per_tensor)
    return out, report


def widen_to_f32(ckpt: Checkpoint) -> Checkpoint:
    """Widen every tensor to f32 storage (used before inference)."""
    out = Checkpoint(metadata=dict(ckpt.metadata))
    for name in sorted(ckpt.tensors):
        out.add_tensor(name, "f32", ckpt.tensors[name].as_f32())
    return out


def model_size_bytes(ckpt: Checkpoint) -> int:
    return len(serialize(ckpt))
