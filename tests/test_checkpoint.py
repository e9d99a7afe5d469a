import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import audio, checkpoint as ck

META = {"config": ["train.seed=2147483647"], "vocab": ["a", "ह"], "melstats": "stats.bin",
        "step": 2**53 + 1, "epoch": 3}


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w1": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float32),
        "scalar": np.array([3.0], dtype=np.float32),
        "rank0": np.array(-2.5, dtype=np.float32),
        "rank3": rng.standard_normal((2, 3, 4)).astype(np.float32),
        "empty_rows": np.zeros((0, 3), dtype=np.float32),
        "empty_cols": np.zeros((3, 0), dtype=np.float32),
        "empty_mid": np.zeros((2, 0, 4), dtype=np.float32),
        "last": np.ones(2, dtype=np.float32),
    }
    p = tmp_path / "model.ckpt"
    ck.save_checkpoint(p, META, tensors)
    meta, back = ck.load_checkpoint(p)
    assert meta == META
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].dtype == np.float32
        assert back[name].shape == tensors[name].shape, name
        assert np.array_equal(back[name], tensors[name])
        assert back[name].tobytes() == tensors[name].tobytes()


def test_save_is_deterministic(tmp_path):
    tensors = {"a": np.ones((2, 2), dtype=np.float32)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save_checkpoint(p1, META, tensors)
    ck.save_checkpoint(p2, dict(reversed(META.items())), tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(p)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(ck.CheckpointError, match="absent.ckpt"):
        ck.load_checkpoint(tmp_path / "absent.ckpt")


def test_rejects_truncated(tmp_path):
    p = tmp_path / "t.ckpt"
    ck.save_checkpoint(p, META, {"w": np.ones(10, dtype=np.float32)})
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(p)


def test_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.ckpt"
    ck.save_checkpoint(p, META, {"w": np.ones(10, dtype=np.float32)})
    p.write_bytes(p.read_bytes() + bytes(9))
    with pytest.raises(ck.CheckpointError, match="checksum"):
        ck.load_checkpoint(p)


def test_rejects_version_1_file(tmp_path):
    # the v1 layout: magic, version 1, 32-byte config hash, one tensor
    p = tmp_path / "v1.ckpt"
    p.write_bytes(ck.MAGIC + struct.pack("<I", 1) + bytes(32) + struct.pack("<I", 1)
                  + struct.pack("<I", 1) + b"w" + struct.pack("<IQ", 1, 1)
                  + np.float32(1).tobytes())
    with pytest.raises(ck.CheckpointError, match="version 1"):
        ck.load_checkpoint(p)


def test_rejects_non_object_metadata(tmp_path):
    p = tmp_path / "list.ckpt"
    ck.save_checkpoint(p, ["config"], {})
    with pytest.raises(ck.CheckpointError, match="JSON object"):
        ck.load_checkpoint(p)


@pytest.fixture(scope="module")
def small_blob(tmp_path_factory):
    p = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    ck.save_checkpoint(p, META, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                 "b": np.array([-1.5], dtype=np.float32)})
    return p.read_bytes()


def _load_bytes(path, blob):
    path.write_bytes(blob)
    return ck.load_checkpoint(path)


def test_every_truncation_is_rejected(small_blob, tmp_path):
    p = tmp_path / "cut.ckpt"
    for n in range(len(small_blob)):
        with pytest.raises(ck.CheckpointError):
            _load_bytes(p, small_blob[:n])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_single_byte_change_is_rejected(small_blob, tmp_path_factory, data):
    pos = data.draw(st.integers(0, len(small_blob) - 1), label="pos")
    flip = data.draw(st.integers(1, 255), label="xor")
    blob = bytearray(small_blob)
    blob[pos] ^= flip
    p = tmp_path_factory.getbasetemp() / "flipped.ckpt"
    with pytest.raises(ck.CheckpointError):
        _load_bytes(p, bytes(blob))


def test_unwritable_checkpoint_names_the_requested_path(tmp_path):
    p = tmp_path / "missing" / "m.ckpt"
    with pytest.raises(ck.CheckpointError) as info:
        ck.save_checkpoint(p, META, {"w": np.ones(10, dtype=np.float32)})
    assert str(info.value) == f"cannot write {p}: No such file or directory"


def test_failed_write_keeps_previous_checkpoint(tmp_path):
    p = tmp_path / "m.ckpt"
    tmp = tmp_path / "m.ckpt.tmp"
    ck.save_checkpoint(p, META, {"w": np.ones(10, dtype=np.float32)})
    before = p.read_bytes()
    written_at_failure = []

    class Unwritable:
        def __array__(self, dtype=None, copy=None):
            written_at_failure.append(tmp.stat().st_size)
            raise OSError("disk full")

    # the first tensor is larger than any write buffer, so the temporary file
    # already holds bytes when the second one fails
    big = np.zeros(1 << 16, dtype=np.float32)
    with pytest.raises(OSError, match="disk full"):
        ck.save_checkpoint(p, META, {"w": big, "x": Unwritable()})
    assert written_at_failure and written_at_failure[0] > 0
    assert p.read_bytes() == before
    _, back = ck.load_checkpoint(p)
    assert np.array_equal(back["w"], np.ones(10, dtype=np.float32))
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_the_tensors_not_a_copy_of_the_file(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {f"w{i}": rng.standard_normal((512, 1024)).astype(np.float32) for i in range(4)}
    tensors["b"] = rng.standard_normal(1000).astype(np.float32)
    tensor_bytes = sum(v.nbytes for v in tensors.values())
    assert tensor_bytes >= 8 * 2**20
    p = tmp_path / "big.ckpt"
    ck.save_checkpoint(p, META, tensors)
    (meta, back), peak = traced_peak(lambda: ck.load_checkpoint(p))
    assert peak < 1.25 * tensor_bytes, (peak, tensor_bytes)
    assert meta == META
    for name, value in tensors.items():
        assert back[name].tobytes() == value.tobytes(), name


def test_huge_tensor_header_is_refused_before_allocating(tmp_path):
    # a valid CRC, so only the bytes-remaining check stands between the
    # claimed 2^40 elements (4 TiB) and an allocation
    body = (ck.MAGIC + struct.pack("<II", ck.VERSION, 2) + b"{}" + struct.pack("<I", 1)
            + struct.pack("<I", 4) + b"huge" + struct.pack("<IQ", 1, 2**40) + bytes(8))
    p = tmp_path / "huge.ckpt"
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def load():
        with pytest.raises(ck.CheckpointError, match=r"huge\.ckpt: truncated tensor 'huge'"):
            ck.load_checkpoint(p)

    _, peak = traced_peak(load)
    assert peak < 2**20, peak


@pytest.mark.parametrize("dims", [(2**64 - 1, 0), (2**63, 0), (0,) * 65])
def test_zero_size_tensor_numpy_cannot_shape_is_named(tmp_path, dims):
    # the dims multiply to 0, so the bytes-remaining check passes them
    body = (ck.MAGIC + struct.pack("<II", ck.VERSION, 2) + b"{}" + struct.pack("<I", 1)
            + struct.pack("<I", 4) + b"mean" + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
    p = tmp_path / "zero.bin"
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ck.CheckpointError, match=r"zero\.bin: tensor 'mean' has shape"):
        ck.load_checkpoint(p)
    with pytest.raises(audio.AudioFormatError, match=r"zero\.bin: tensor 'mean' has shape"):
        audio.load_mel_stats(p)
