"""Checkpoint container round-trips and binary16 conversion fidelity.

The conversion oracle below implements float32 -> binary16 round-to-nearest-
even directly on the bit patterns (sign/exponent/mantissa arithmetic, no
numpy float16 anywhere), so the package's conversion path is checked against
an independent reference.
"""

import hashlib
import re
import struct

import numpy as np
import pytest

from wmdistill.checkpoint import (Checkpoint, CheckpointFormatError,
                                  content_hash, deserialize, read_checkpoint,
                                  serialize, write_checkpoint)
from wmdistill.quantize import (F16_MAX, F16_MIN_SUBNORMAL, QuantizationError,
                                fp16_round_trip, model_size_bytes, to_fp16)
from wmdistill.world_model import WorldModel, model_from_checkpoint

from oracle_refs import to_fp16_ref


# --- independent bit-level binary16 reference -------------------------------

def f32_bits_to_f16_bits(fbits: int) -> int:
    """Reference float32->binary16 conversion with round-to-nearest-even."""
    sign = (fbits >> 16) & 0x8000
    exp = (fbits >> 23) & 0xFF
    mant = fbits & 0x7FFFFF
    if exp == 0xFF:  # inf / nan
        return sign | 0x7C00 | (0x200 if mant else 0)
    unbiased = exp - 127
    if unbiased >= 16:  # overflow -> inf under pure RNE
        return sign | 0x7C00
    if unbiased >= -14:
        # normal half: 10 mantissa bits, round the 13 dropped bits to even
        half = sign | ((unbiased + 15) << 10) | (mant >> 13)
        rest = mant & 0x1FFF
        if rest > 0x1000 or (rest == 0x1000 and (half & 1)):
            half += 1
        return half
    if unbiased >= -25:
        # subnormal half
        full = mant | 0x800000
        shift = -unbiased - 14 + 13
        half_mant = full >> shift
        rest = full & ((1 << shift) - 1)
        tie = 1 << (shift - 1)
        if rest > tie or (rest == tie and (half_mant & 1)):
            half_mant += 1
        return sign | half_mant
    return sign  # underflow to signed zero


def ref_round_trip(x: float) -> float:
    (fbits,) = struct.unpack("<I", struct.pack("<f", np.float32(x)))
    hbits = f32_bits_to_f16_bits(fbits)
    # widen: binary16 bits -> float
    sign = -1.0 if hbits & 0x8000 else 1.0
    exp = (hbits >> 10) & 0x1F
    mant = hbits & 0x3FF
    if exp == 0x1F:
        return sign * (float("nan") if mant else float("inf"))
    if exp == 0:
        return sign * mant * 2.0 ** -24
    return sign * (1 + mant / 1024.0) * 2.0 ** (exp - 15)


# --- checkpoint container ----------------------------------------------------

def _checkpoint(rng):
    ckpt = Checkpoint(metadata={"preset": "student", "seed": "3"})
    ckpt.add_tensor("layer.w", "f32", rng.standard_normal((4, 3)).astype(np.float32))
    ckpt.add_tensor("layer.b", "f32", rng.standard_normal(3).astype(np.float32))
    return ckpt


def test_checkpoint_round_trip_bitwise(tmp_path):
    ckpt = _checkpoint(np.random.default_rng(0))
    path = tmp_path / "m.tdck"
    write_checkpoint(path, ckpt)
    back = read_checkpoint(path)
    assert back.metadata == ckpt.metadata
    for name, entry in ckpt.tensors.items():
        assert np.array_equal(back.tensors[name].data, entry.data)
    assert content_hash(back) == content_hash(ckpt)


def test_written_bytes_follow_the_documented_layout(tmp_path):
    w = np.arange(6, dtype=np.float32).reshape(2, 3) - 2.5
    h = np.array([0x3C00, 0x7BFF], dtype=np.uint16)
    ckpt = Checkpoint(metadata={"seed": "3", "preset": "student"})
    ckpt.add_tensor("w", "f32", w)
    ckpt.add_tensor("h", "f16", h)
    ckpt.add_tensor("s", "f32", np.float32(0.5).reshape(()))
    meta = b"preset=student\nseed=3"
    want = (b"TDCK" + struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", 3)
            + struct.pack("<H", 1) + b"h" + struct.pack("<BBI", 1, 1, 2)
            + h.astype("<u2").tobytes()
            + struct.pack("<H", 1) + b"s" + struct.pack("<BB", 0, 0)
            + np.float32(0.5).astype("<f4").tobytes()
            + struct.pack("<H", 1) + b"w" + struct.pack("<BBII", 0, 2, 2, 3)
            + w.astype("<f4").tobytes())
    path = tmp_path / "m.tdck"
    digest = write_checkpoint(path, ckpt)
    assert path.read_bytes() == want
    assert serialize(ckpt) == want
    assert digest == content_hash(ckpt) == hashlib.sha256(want).hexdigest()


def test_failed_write_keeps_the_previous_checkpoint_and_no_temp_file(
        tmp_path, monkeypatch):
    import wmdistill.checkpoint as ck
    old, new = (_checkpoint(np.random.default_rng(seed)) for seed in (3, 4))
    path = tmp_path / "model.tdck"
    assert write_checkpoint(path, old) == content_hash(old)
    before = path.read_bytes()
    serialized = ck._serialized_parts

    def failing_parts(ckpt):
        parts = serialized(ckpt)
        yield from parts[:len(parts) // 2]
        raise OSError("disk full")

    monkeypatch.setattr(ck, "_serialized_parts", failing_parts)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(path, new)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.tdck"]
    monkeypatch.setattr(ck, "_serialized_parts", serialized)
    assert write_checkpoint(path, new) == content_hash(new) == hashlib.sha256(
        path.read_bytes()).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == ["model.tdck"]


def test_bad_metadata_writes_no_file(tmp_path):
    ckpt = Checkpoint(metadata={"note": "two\nlines"})
    with pytest.raises(ValueError, match="reserved"):
        write_checkpoint(tmp_path / "m.tdck", ckpt)
    assert not (tmp_path / "m.tdck").exists()


def test_checkpoint_hash_is_canonical_under_insertion_order():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 2)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)
    a = Checkpoint(metadata={"x": "1", "y": "2"})
    a.add_tensor("w", "f32", w)
    a.add_tensor("b", "f32", b)
    c = Checkpoint(metadata={"y": "2", "x": "1"})
    c.add_tensor("b", "f32", b)
    c.add_tensor("w", "f32", w)
    assert content_hash(a) == content_hash(c)


def test_checkpoint_format_errors_are_distinct(tmp_path):
    ckpt = _checkpoint(np.random.default_rng(2))
    blob = serialize(ckpt)
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        deserialize(b"XXXX" + blob[4:])
    bad_version = blob[:4] + struct.pack("<I", 9) + blob[8:]
    with pytest.raises(CheckpointFormatError, match="version"):
        deserialize(bad_version)
    with pytest.raises(CheckpointFormatError, match="truncated"):
        deserialize(blob[:-3])
    path = tmp_path / "m.tdck"
    path.write_bytes(blob + b"\0")
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"trailing bytes in checkpoint {path}")):
        read_checkpoint(path)
    with pytest.raises(FileNotFoundError):
        read_checkpoint(tmp_path / "missing.tdck")


@pytest.mark.parametrize("old, new, what", [
    (b"key=value", b"key_value", "metadata line 'key_value' has no '='"),
    (b"key=value", b"key=\xffalue", "metadata is not utf-8"),
    (b"weight", b"\xffeight", "tensor name is not utf-8")])
def test_malformed_checkpoint_text_names_the_file(tmp_path, old, new, what):
    ckpt = Checkpoint(metadata={"key": "value"})
    ckpt.add_tensor("weight", "f32", np.zeros(2, np.float32))
    path = tmp_path / "m.tdck"
    path.write_bytes(serialize(ckpt).replace(old, new))
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"{what} in checkpoint {path}")):
        read_checkpoint(path)


def test_duplicate_tensor_names_rejected():
    ckpt = Checkpoint()
    ckpt.add_tensor("w", "f32", np.zeros(2, np.float32))
    with pytest.raises(ValueError):
        ckpt.add_tensor("w", "f32", np.zeros(2, np.float32))


# --- fp16 conversion ---------------------------------------------------------

def test_exact_power_of_two_survives():
    out, over = fp16_round_trip(np.array([1.0], np.float32))
    assert out[0] == 1.0 and over == 0


def test_tenth_rounds_to_reference_value():
    out, _ = fp16_round_trip(np.array([0.1], np.float32))
    assert out[0] == np.float32(0.0999755859375)
    assert out[0] == np.float32(ref_round_trip(0.1))


def test_overflow_clamps_and_counts():
    out, over = fp16_round_trip(np.array([65520.0, -70000.0, 3.0], np.float32))
    assert out[0] == 65504.0 and out[1] == -65504.0
    assert over == 2


def test_nan_rejected_naming_tensor():
    ckpt = Checkpoint()
    ckpt.add_tensor("head.w", "f32", np.array([1.0, 2.0], np.float32))
    ckpt.tensors["head.w"].data[1] = np.nan
    with pytest.raises(QuantizationError, match="head.w"):
        to_fp16(ckpt)


def test_round_trip_matches_bit_level_reference_on_samples():
    rng = np.random.default_rng(9)
    exps = rng.uniform(-24, 15, size=2000)
    vals = (rng.choice([-1.0, 1.0], 2000) * 2.0 ** exps).astype(np.float32)
    ours, _ = fp16_round_trip(vals)
    for v, o in zip(vals.tolist(), ours.tolist()):
        assert o == ref_round_trip(v), f"mismatch at {v}"


def test_round_trip_error_bound_log_uniform_grid():
    # |x - rt(x)| <= max(2^-11 |x|, smallest subnormal) for |x| <= 65504
    rng = np.random.default_rng(10)
    exps = rng.uniform(np.log2(F16_MIN_SUBNORMAL), np.log2(F16_MAX), 100_000)
    signs = rng.choice([-1.0, 1.0], 100_000)
    x = (signs * 2.0 ** exps).astype(np.float32)
    x = x[np.abs(x) <= F16_MAX]
    back, over = fp16_round_trip(x)
    assert over == 0
    err = np.abs(back.astype(np.float64) - x.astype(np.float64))
    bound = np.maximum(2.0 ** -11 * np.abs(x.astype(np.float64)), F16_MIN_SUBNORMAL)
    assert np.all(err <= bound)


def test_quantize_idempotent_bitwise():
    ckpt = _checkpoint(np.random.default_rng(3))
    once, _ = to_fp16(ckpt)
    widened = Checkpoint(metadata=dict(once.metadata))
    for name in sorted(once.tensors):
        widened.add_tensor(name, "f32", once.tensors[name].as_f32())
    again, report = to_fp16(widened)
    for name in once.tensors:
        assert np.array_equal(once.tensors[name].data, again.tensors[name].data)
    assert all(abs_e == 0.0 for abs_e, _ in report.per_tensor.values())
    assert serialize(once) == serialize(again)


def test_quantized_size_strictly_smaller():
    ckpt = _checkpoint(np.random.default_rng(4))
    ckpt16, report = to_fp16(ckpt)
    assert report.bytes_after < report.bytes_before
    assert report.bytes_after == model_size_bytes(ckpt16)


def test_f16_payload_is_half_of_f32_payload():
    ckpt = _checkpoint(np.random.default_rng(5))
    ckpt16, _ = to_fp16(ckpt)
    f32_payload = sum(t.payload_bytes() for t in ckpt.tensors.values())
    f16_payload = sum(t.payload_bytes() for t in ckpt16.tensors.values())
    assert f16_payload * 2 == f32_payload


def test_student_checkpoint_ratio_in_documented_band():
    model = WorldModel(8, 1, "student", seed=0)
    ckpt = model.to_checkpoint({"seed": "0"})
    _, report = to_fp16(ckpt)
    assert 0.5 < report.ratio < 0.55, report.ratio


def test_empty_checkpoint_is_header_only():
    ckpt = Checkpoint(metadata={})
    # 4 magic + 4 version + 4 meta_len + 0 meta + 4 tensor count
    assert model_size_bytes(ckpt) == 16


def test_dequantized_model_predictions_close_and_metadata_preserved():
    model = WorldModel(8, 1, "student", seed=1)
    ckpt = model.to_checkpoint({"seed": "1", "tasks": "pendulum-swingup"})
    ckpt16, _ = to_fp16(ckpt)
    assert ckpt16.metadata == ckpt.metadata
    assert content_hash(ckpt16) != content_hash(ckpt)
    loaded = model_from_checkpoint(ckpt16)
    rng = np.random.default_rng(2)
    obs = rng.uniform(-1, 1, (32, 8)).astype(np.float32)
    act = rng.uniform(-1, 1, (32, 1)).astype(np.float32)
    r32 = model.reward_np(model.encode_np(obs), act)
    r16 = loaded.reward_np(loaded.encode_np(obs), act)
    # measured bound: error stays within 2^-10 of the prediction scale
    assert np.max(np.abs(r32 - r16)) <= 2.0 ** -10 * max(1e-3, np.max(np.abs(r32)))


# --- the fewer-pass quantizer against its frozen predecessor -----------------

def _adversarial_checkpoint():
    above = np.nextafter(np.float32(F16_MAX), np.float32(np.inf))
    tiny = np.float32(F16_MIN_SUBNORMAL)
    ckpt = Checkpoint(metadata={"note": "adversarial"})
    ckpt.add_tensor("edges", "f32", np.array(
        [F16_MAX, -F16_MAX, above, -above, 65519.0, 65520.0, -1e9, 3.4e38,
         0.0, -0.0, 1.0, -2.5], np.float32))
    ckpt.add_tensor("subnormal", "f32", np.array(
        [tiny, -tiny, tiny / 2, tiny * 0.75, 1e-40, -1e-45, 6.1e-5, 6.0e-5,
         0.0], np.float32).reshape(3, 3))
    ckpt.add_tensor("zeros", "f32", np.array([0.0, -0.0, 0.0], np.float32))
    ckpt.add_tensor("empty", "f32", np.zeros((0, 4), np.float32))
    ckpt.add_tensor("scalar", "f32", np.float32(-70000.0).reshape(()))
    ckpt.add_tensor("halves", "f16", np.array([0x3C00, 0x7BFF, 0x8001], np.uint16))
    return ckpt


def _checkpoints():
    yield "student", WorldModel(8, 1, "student", seed=0).to_checkpoint({"seed": "0"})
    yield "teacher-L", WorldModel(8, 1, "teacher-L", seed=1).to_checkpoint({"seed": "1"})
    yield "f16", to_fp16(WorldModel(8, 1, "student", seed=2).to_checkpoint({"seed": "2"}))[0]
    yield "adversarial", _adversarial_checkpoint()
    yield "empty", Checkpoint(metadata={})


@pytest.mark.parametrize("name, ckpt", list(_checkpoints()),
                         ids=[name for name, _ in _checkpoints()])
def test_to_fp16_bitwise_equals_its_frozen_predecessor(name, ckpt):
    ours, report = to_fp16(ckpt)
    ref, want = to_fp16_ref(ckpt)
    assert serialize(ours) == serialize(ref)
    assert report.csv_rows() == want.csv_rows()
    assert report.summary() == want.summary()
    assert report.overflow_count == want.overflow_count
    assert (report.bytes_before, report.bytes_after) == (want.bytes_before, want.bytes_after)
    # bytes_after is counted from the payloads, not from a serialized copy
    assert report.bytes_after == model_size_bytes(ours)
    if name == "adversarial":
        assert report.overflow_count == 7


def test_nan_rejected_naming_tensor_like_its_predecessor():
    ckpt = _adversarial_checkpoint()
    ckpt.tensors["subnormal"].data[1, 1] = np.nan
    for convert in (to_fp16, to_fp16_ref):
        with pytest.raises(QuantizationError, match="NaN value in tensor 'subnormal'"):
            convert(ckpt)
