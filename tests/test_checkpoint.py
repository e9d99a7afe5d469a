import numpy as np
import pytest

from difftts import checkpoint as ck


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w1": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float32),
        "scalar": np.array([3.0], dtype=np.float32),
    }
    h = bytes(range(32))
    p = tmp_path / "model.ckpt"
    ck.save_checkpoint(p, h, tensors)
    h2, back = ck.load_checkpoint(p)
    assert h2 == h
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name], tensors[name])
        assert back[name].tobytes() == tensors[name].tobytes()


def test_save_is_deterministic(tmp_path):
    tensors = {"a": np.ones((2, 2), dtype=np.float32)}
    h = bytes(32)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save_checkpoint(p1, h, tensors)
    ck.save_checkpoint(p2, h, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_string_tensor_round_trip():
    text = "vocab with unicode: हिन्दी"
    assert ck.tensor_to_string(ck.string_to_tensor(text)) == text


def test_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(p)


def test_rejects_truncated(tmp_path):
    p = tmp_path / "t.ckpt"
    ck.save_checkpoint(p, bytes(32), {"w": np.ones(10, dtype=np.float32)})
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(p)


def test_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.ckpt"
    ck.save_checkpoint(p, bytes(32), {"w": np.ones(10, dtype=np.float32)})
    p.write_bytes(p.read_bytes() + bytes(9))
    with pytest.raises(ck.CheckpointError, match="trailing"):
        ck.load_checkpoint(p)


def test_failed_write_keeps_previous_checkpoint(tmp_path):
    p = tmp_path / "m.ckpt"
    ck.save_checkpoint(p, bytes(32), {"w": np.ones(10, dtype=np.float32)})
    before = p.read_bytes()

    class Unwritable:
        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    # the first tensor is written before the second one fails
    with pytest.raises(OSError, match="disk full"):
        ck.save_checkpoint(p, bytes(32), {"w": np.zeros(10, dtype=np.float32), "x": Unwritable()})
    assert p.read_bytes() == before
    _, back = ck.load_checkpoint(p)
    assert np.array_equal(back["w"], np.ones(10, dtype=np.float32))
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]
