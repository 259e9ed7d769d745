import numpy as np
import pytest

from attndistill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from attndistill.errors import FormatError


def test_roundtrip_arrays_and_masks(tmp_path):
    path = tmp_path / "ckpt.atlt"
    rng = np.random.default_rng(0)
    arrays = {
        "w1": rng.standard_normal((3, 4)).astype(np.float32),
        "scalar": np.array([1.5], dtype=np.float32),
    }
    masks = {"m1": (rng.random((5, 7)) > 0.5).astype(np.float32)}
    manifest = {"kind": "test", "config": {"lr": 0.1}, "epoch": 3}
    save_checkpoint(path, manifest, arrays, masks)
    m2, a2, k2 = load_checkpoint(path)
    assert m2 == manifest
    for n in arrays:
        assert np.array_equal(a2[n], arrays[n])
    assert np.array_equal(k2["m1"], masks["m1"])
    assert k2["m1"].dtype == np.float32


def test_bitpacked_masks_are_compact(tmp_path):
    path = tmp_path / "ckpt.atlt"
    mask = np.ones((64, 64), dtype=np.float32)
    save_checkpoint(path, {}, {}, {"m": mask})
    # 4096 bits -> 512 payload bytes, far below float32 storage
    assert path.stat().st_size < 4096


def test_identical_content_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.atlt", tmp_path / "b.atlt"
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_checkpoint(a, {"x": 1}, arrays)
    save_checkpoint(b, {"x": 1}, arrays)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.atlt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, {"k": "v"}, {"w": np.ones((8, 8), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_magic_prefix_on_disk(tmp_path):
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, {}, {})
    assert path.read_bytes()[:4] == MAGIC


def test_no_leftover_temp_files(tmp_path):
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, {}, {"w": np.zeros(4, dtype=np.float32)})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def _corrupt_record(tmp_path, name, patch):
    """A checkpoint with one float record and one mask record, with the
    bytes after `name`'s name field passed through `patch`: offset 0 is its
    kind, 1 its ndim, 2 onwards its u32 dims."""
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, {}, {"param.alpha": np.ones((6, 5), dtype=np.float32)},
                    {"mask.beta": np.ones((16, 12), dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    at = blob.index(name.encode()) + len(name)
    patch(blob, at)
    path.write_bytes(bytes(blob))
    return path


def _raise_first_dim(blob, at):
    blob[at + 2 : at + 6] = (0x7FFF0000).to_bytes(4, "little")


def test_non_utf8_record_name_is_format_error(tmp_path):
    def patch(blob, at):
        blob[at - 1] = 0xFF

    with pytest.raises(FormatError, match="record name"):
        load_checkpoint(_corrupt_record(tmp_path, "param.alpha", patch))


@pytest.mark.parametrize("name", ["param.alpha", "mask.beta"])
def test_raised_dim_is_format_error_before_allocation(tmp_path, name):
    # the declared shape asks for gigabytes; the payload length check
    # rejects it before any array is made
    with pytest.raises(FormatError, match="payload bytes"):
        load_checkpoint(_corrupt_record(tmp_path, name, _raise_first_dim))


def test_cli_eval_on_corrupt_record_prints_one_error_line(tmp_path, capsys):
    from attndistill.cli import main as cli_main

    path = _corrupt_record(tmp_path, "mask.beta", _raise_first_dim)
    assert cli_main(["eval", "--ckpt", str(path), "--dataset", "synthetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1
