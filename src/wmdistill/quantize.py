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

from .checkpoint import Checkpoint, TensorEntry, _serialized_parts

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


def _to_half(x: np.ndarray, what: str) -> Tuple[np.ndarray, np.ndarray, int]:
    """float32 -> binary16 (RNE, clamped at +-65504); rejects NaN, naming
    `what`. Returns the halves, |x| and the number of clamped magnitudes.

    One max of |x| finds both a NaN (max propagates it) and an overflow, so
    the clamp mask and the clamped copy are made only when a value overflows.
    """
    mag = np.abs(x)
    peak = mag.max(initial=0.0)
    if np.isnan(peak):
        raise QuantizationError(f"NaN value in {what}")
    over = 0
    if peak > F16_MAX:
        clamp = mag > F16_MAX
        over = int(clamp.sum())
        x = np.where(clamp, np.copysign(np.float32(F16_MAX), x), x)
    return x.astype(np.float16), mag, over


def fp16_round_trip(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """float32 -> binary16 (RNE, clamped at +-65504) -> float32.

    Returns the widened values and the number of clamped magnitudes.
    """
    half, _, over = _to_half(np.asarray(values, dtype=np.float32),
                             "input to fp16 conversion")
    return half.astype(np.float32), over


def to_fp16(ckpt: Checkpoint) -> Tuple[Checkpoint, QuantReport]:
    """Quantize every f32 tensor to f16 storage; f16 tensors pass through.
    The f16 file is the f32 one less half of each f32 tensor's payload."""
    bytes_before = bytes_after = model_size_bytes(ckpt)
    out = Checkpoint(metadata=dict(ckpt.metadata))
    overflow = 0
    per_tensor: Dict[str, Tuple[float, float]] = {}
    for name in sorted(ckpt.tensors):
        entry = ckpt.tensors[name]
        if entry.dtype == "f16":
            out.tensors[name] = TensorEntry(name, "f16", entry.shape, entry.data)
            continue
        x = entry.data
        half, mag, over = _to_half(x, f"tensor {name!r}")
        overflow += over
        err = half.astype(np.float32)
        err -= x
        np.abs(err, out=err)
        abs_max = float(err.max(initial=0.0))
        # relative error in place: where x is +-0 its half is exact, so err is 0
        np.divide(err, mag, out=err, where=mag > 0)
        per_tensor[name] = (abs_max, float(err.max(initial=0.0)))
        out.add_tensor(name, "f16", half.view(np.uint16))
        bytes_after -= entry.payload_bytes() // 2
    report = QuantReport(bytes_before, bytes_after, overflow, per_tensor)
    return out, report


def model_size_bytes(ckpt: Checkpoint) -> int:
    """The size of `ckpt`'s file, without building the file in memory."""
    return sum(len(part) for part in _serialized_parts(ckpt))
