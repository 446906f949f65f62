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
    with pytest.raises(CheckpointError, match="missing"):
        restore_parameters([Parameter(np.zeros(2), "b")], tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="shape"):
        restore_parameters([Parameter(np.zeros(3), "a")], tmp_path / "m.ckpt")


@pytest.mark.parametrize("cut", [3, 10, 14, 20, 22, 30, 40, 100, -8, -1])
def test_truncated_file_names_the_file(tmp_path, cut):
    path = tmp_path / "m.ckpt"
    save_checkpoint([Parameter(np.ones((3, 4)), "weight"), Parameter(np.ones(2), "b")], path)
    data = path.read_bytes()
    path.write_bytes(data[:cut])
    with pytest.raises(CheckpointError, match="m.ckpt"):
        load_checkpoint(path)
