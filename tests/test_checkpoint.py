from pathlib import Path

import numpy as np
import pytest

from canids.nn import (CheckpointError, Parameter, load_checkpoint,
                       restore_parameters, save_checkpoint)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = [Parameter(rng.normal(size=(3, 4)), "w"),
              Parameter(rng.normal(size=7), "b"),
              Parameter(np.array(3.25), "scalar")]
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for p in params:
        assert loaded[p.name].shape == p.data.shape
        assert loaded[p.name].tobytes() == p.data.tobytes()
    # save -> load -> save gives identical files
    save_checkpoint([Parameter(loaded[p.name], p.name) for p in params], tmp_path / "m2.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_restore_into_model(tmp_path):
    src = [Parameter(np.arange(6, dtype=float).reshape(2, 3), "w")]
    save_checkpoint(src, tmp_path / "m.ckpt")
    dst = [Parameter(np.zeros((2, 3)), "w")]
    restore_parameters(dst, tmp_path / "m.ckpt")
    assert np.array_equal(dst[0].data, src[0].data)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPTxxxx")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_missing_and_mismatched_params(tmp_path):
    save_checkpoint([Parameter(np.zeros(2), "a")], tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match=r"missing \['b'\]"):
        restore_parameters([Parameter(np.zeros(2), "b")], tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="shape"):
        restore_parameters([Parameter(np.zeros(3), "a")], tmp_path / "m.ckpt")


def test_extra_param_is_refused(tmp_path):
    save_checkpoint([Parameter(np.zeros(2), "a"), Parameter(np.ones(3), "b")], tmp_path / "m.ckpt")
    dst = [Parameter(np.full(2, 5.0), "a")]
    with pytest.raises(CheckpointError, match=r"missing \[\], extra \['b'\]"):
        restore_parameters(dst, tmp_path / "m.ckpt")
    assert np.array_equal(dst[0].data, np.full(2, 5.0))  # nothing restored


@pytest.mark.parametrize("junk", [b"\x00", b"x" * 22])
def test_bytes_after_the_last_record_are_refused(tmp_path, junk):
    path = tmp_path / "m.ckpt"
    save_checkpoint([Parameter(np.ones((3, 4)), "weight"), Parameter(np.ones(2), "b")], path)
    path.write_bytes(path.read_bytes() + junk)
    with pytest.raises(CheckpointError, match=rf"m.ckpt: .*{len(junk)} bytes after the last record"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [3, 10, 14, 20, 22, 30, 40, 100, -8, -1])
def test_truncated_file_names_the_file(tmp_path, cut):
    path = tmp_path / "m.ckpt"
    save_checkpoint([Parameter(np.ones((3, 4)), "weight"), Parameter(np.ones(2), "b")], path)
    data = path.read_bytes()
    path.write_bytes(data[:cut])
    with pytest.raises(CheckpointError, match="m.ckpt"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset, patch", [
    (16, b"\xff"),              # first byte of the name "weight"
    (12, b"\xff" * 4),          # name length
    (22, b"\xff" * 4),          # rank
    (26, b"\xff" * 8),          # dims (0xFFFFFFFF, 0xFFFFFFFF)
], ids=["name_byte", "name_length", "rank", "dims"])
def test_corrupt_record_names_the_file(tmp_path, offset, patch):
    path = tmp_path / "m.ckpt"
    save_checkpoint([Parameter(np.ones((3, 4)), "weight"), Parameter(np.ones(2), "b")], path)
    data = bytearray(path.read_bytes())
    data[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="m.ckpt"):
        load_checkpoint(path)


def _half_write(path, data):
    """Stands in for Path.write_bytes: writes half of the data, then fails."""
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("disk full")


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint([Parameter(np.ones(3), "a")], path)
    before = path.read_bytes()
    monkeypatch.setattr(Path, "write_bytes", _half_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint([Parameter(np.zeros(3), "a"), Parameter(np.zeros(2), "b")], path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
