import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from attndistill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from attndistill.errors import FormatError
from attndistill.train import RunMetrics


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
    assert k2["m1"].dtype == bool


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


def _write_checkpoint(path, bad=False):
    save_checkpoint(path, {}, {"w": np.ones(3, dtype=np.float32), **({"bad": "x"} if bad else {})})


def _write_metrics(path, bad=False):
    metrics = RunMetrics()
    metrics.add_row(epoch=0, lr="x" if bad else 0.1)
    metrics.write(str(path))


@pytest.mark.parametrize("write", [_write_checkpoint, _write_metrics])
def test_output_files_follow_the_umask_and_a_failed_write_leaves_nothing(tmp_path, write):
    old = os.umask(0o022)
    try:
        write(tmp_path / "out" / "done")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out" / "done").st_mode) == 0o644
    with pytest.raises(ValueError):
        write(tmp_path / "out" / "failed", bad=True)
    assert os.listdir(tmp_path / "out") == ["done"]


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


def _bytearray_writer(manifest, arrays, masks):
    """The container as the original writer built it: one bytearray of
    every record, written at once. The streamed writer must match it."""
    blob = bytearray(MAGIC + struct.pack("<I", 1))
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob += struct.pack("<Q", len(mbytes)) + mbytes
    records = [(n, 0, a) for n, a in arrays.items()] + [(n, 1, m) for n, m in masks.items()]
    blob += struct.pack("<I", len(records))
    for name, kind, arr in records:
        nb = name.encode("utf-8")
        blob += struct.pack("<H", len(nb)) + nb
        arr = np.asarray(arr)
        blob += struct.pack("<BB", kind, arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        if kind == 0:
            payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        else:
            payload = np.packbits(arr.reshape(-1).astype(bool)).tobytes()
        blob += struct.pack("<Q", len(payload)) + payload
    return bytes(blob)


def test_streamed_writer_matches_the_bytearray_writer(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "param.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "param.transposed": rng.standard_normal((5, 7)).astype(np.float32).T,  # not contiguous
        "param.float64": rng.standard_normal(6),
        "buf.scalar": np.float32(2.5),
        "buf.empty": np.zeros((0, 3), dtype=np.float32),
        "opt.größe": rng.standard_normal((2, 2)).astype(np.float32),
    }
    masks = {"param.w": (rng.random((4, 3, 3, 3)) > 0.5).astype(np.float32),
             "param.odd": np.ones((3, 5), dtype=np.float32)}
    manifest = {"kind": "student", "epoch": 2, "sparse": {"density": 0.5}}
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, manifest, arrays, masks)
    assert path.read_bytes() == _bytearray_writer(manifest, arrays, masks)
    m2, a2, k2 = load_checkpoint(path)
    assert m2 == manifest and list(a2) == list(arrays) and list(k2) == list(masks)
    for n, a in arrays.items():
        assert a2[n].dtype == np.float32 and np.array_equal(a2[n], np.asarray(a, dtype=np.float32))
    for n, m in masks.items():
        assert np.array_equal(k2[n], m)


def test_bytes_after_the_last_record_are_format_error(tmp_path):
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, {}, {"w": np.ones(3, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="1 bytes after its last record"):
        load_checkpoint(path)


def test_record_longer_than_the_file_is_format_error_before_allocation(tmp_path):
    # a 47-byte file whose one record declares a 4 GiB payload that agrees
    # with its shape; only the bytes left in the file can refuse it
    n = 1 << 30
    blob = (MAGIC + struct.pack("<IQ", 1, 2) + b"{}" + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"w" + struct.pack("<BBIQ", 0, 1, n, 4 * n) + b"\0" * 8)
    path = tmp_path / "ckpt.atlt"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="bytes needed"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", [0, 1])
@pytest.mark.parametrize("shape", [(0, 2**32 - 1, 2**32 - 1, 2**32 - 1), (1,) * 65])
def test_shape_numpy_cannot_make_is_format_error(tmp_path, kind, shape):
    # zero payload bytes agree with the first shape, and one float or one
    # packed byte with the second, so only making the array can refuse them
    plen = 0 if 0 in shape else (4 if kind == 0 else 1)
    blob = (MAGIC + struct.pack("<IQ", 1, 2) + b"{}" + struct.pack("<I", 1) + struct.pack("<H", 1)
            + b"w" + struct.pack(f"<BB{len(shape)}IQ", kind, len(shape), *shape, plen) + b"\0" * plen)
    path = tmp_path / "ckpt.atlt"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="shape numpy cannot make"):
        load_checkpoint(path)


def test_manifest_that_is_not_an_object_is_format_error(tmp_path):
    path = tmp_path / "ckpt.atlt"
    save_checkpoint(path, [1, 2], {})
    with pytest.raises(FormatError, match="not a JSON object"):
        load_checkpoint(path)


def test_record_name_given_twice_is_format_error(tmp_path):
    # a float record and a mask may share a name (the streamed-writer test
    # has one); two float records may not
    record = struct.pack("<H", 1) + b"w" + struct.pack("<BBIQ", 0, 1, 1, 4) + b"\0" * 4
    path = tmp_path / "ckpt.atlt"
    path.write_bytes(MAGIC + struct.pack("<IQ", 1, 2) + b"{}" + struct.pack("<I", 2) + record + record)
    with pytest.raises(FormatError, match="appears twice"):
        load_checkpoint(path)
