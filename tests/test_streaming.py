"""
Every `pltt` command that reads a container streams it over runs of camera
pixels: its outputs equal the library's in-memory ones at every chunk size,
its memory does not grow with the scan or the projector, no command reads a
whole transport tensor, and a failure leaves no file. Every streamed
operation reads an open container as it reads the object it holds.
"""

import contextlib
import os
import re
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pltt.cli
import pltt.fileio
import pltt.tensor
from pltt.analysis import build_observation, pca, summed_polarimetric_image
from pltt.cli import _write_diagnostics, main, slice_images
from pltt.decomposition import decompose_tensor, lit_blocks
from pltt.ellipsometry import CaptureKernel, Decoder, capture, drr_schedule, reconstruct
from pltt.fileio import MAGIC, PlttReader, PlttWriter, read_pltt, write_pltt
from pltt.tensor import HeaderArray, SparseTransport, TransportTensor, epipolar_masks, fold

BIN = 1e-10
# (camera grid, coaxial, K, sensor mode, extra capture flags)
CONFIGS = {
    "projector-camera": ((3, 3), False, 20, "intensity", []),
    "coaxial": ((3, 3), True, 20, "intensity", []),
    "polarizer-array": ((3, 3), False, 5, "polarizer_array", ["--mode", "polarizer_array"]),
    "epipolar": ((3, 3), False, 20, "intensity", ["--mask", "epipolar"]),
    "split": ((3, 3), True, 20, "intensity", ["--split", "0.3"]),
}
N_BINS = 4


def truth_tensor(cam, coaxial, seed=0):
    s_cam = cam[0] * cam[1]
    data = np.random.default_rng(seed).uniform(0.0, 1.0, (s_cam, 1 if coaxial else s_cam, 4, 4,
                                                          N_BINS))
    return TransportTensor(data, cam, cam, BIN, coaxial=coaxial)


def chunk_bytes(setting, cam, coaxial, k_rows):
    """CHUNK_BYTES giving one camera pixel per chunk, 2 of 9 (uneven), or all of them."""
    if setting == "whole":
        return 1 << 40
    s_proj = 1 if coaxial else cam[0] * cam[1]
    largest = 8 * s_proj * max(16, k_rows) * N_BINS
    return {"one": 8, "uneven": 2 * largest + 8}[setting]


@pytest.mark.parametrize("setting", ["one", "uneven", "whole"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cli_files_equal_the_library_at_every_chunk_size(tmp_path, monkeypatch, config,
                                                         setting):
    cam, coaxial, k, mode, flags = CONFIGS[config]
    schedule = drr_schedule(k, mode)
    tensor = truth_tensor(cam, coaxial)
    write_pltt(tmp_path / "truth.pltt", tensor)
    masks = epipolar_masks(cam, cam)[0] if "--mask" in flags else None
    split = 0.3 if "--split" in flags else 0.5
    # the library at its own chunk size is the reference
    meas = capture(tensor, schedule, noise_sigma=1e-3, seed=5, masks=masks, split=split)
    write_pltt(tmp_path / "lib_meas.pltt", replace(meas, provenance="capture(truth.pltt)"))
    result = reconstruct(meas)
    write_pltt(tmp_path / "lib_recon.pltt",
               replace(result.tensor, provenance="reconstruct(meas.pltt)"))
    _write_diagnostics(str(tmp_path / "lib"), result.residual_norms)

    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES",
                        chunk_bytes(setting, cam, coaxial, schedule.n_rows))
    monkeypatch.chdir(tmp_path)
    assert main(["capture", "--tensor", "truth.pltt", "--k", str(k), "--noise", "1e-3",
                 "--seed", "5", "--out", "meas.pltt"] + flags) == 0
    assert main(["reconstruct", "--measurements", "meas.pltt", "--out", "recon.pltt"]) == 0
    for ours, lib in (("meas.pltt", "lib_meas.pltt"), ("recon.pltt", "lib_recon.pltt"),
                      ("recon_residual_norms.npy", "lib_residual_norms.npy"),
                      ("recon_diagnostics.csv", "lib_diagnostics.csv")):
        assert (tmp_path / ours).read_bytes() == (tmp_path / lib).read_bytes(), ours
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_capture_noise_is_the_same_at_every_chunk_size(monkeypatch):
    cam, coaxial, k, mode, _ = CONFIGS["polarizer-array"]
    schedule = drr_schedule(k, mode)
    tensor = truth_tensor(cam, coaxial, seed=1)
    clean = capture(tensor, schedule).intensities
    noises = []
    for setting in ("one", "uneven", "whole"):
        monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES",
                            chunk_bytes(setting, cam, coaxial, schedule.n_rows))
        noisy = capture(tensor, schedule, noise_sigma=1e-3, seed=12).intensities
        noises.append(noisy - clean)
    assert noises[0].tobytes() == noises[1].tobytes() == noises[2].tobytes()
    assert 0.8e-3 < noises[0].std() < 1.2e-3


def _peaks(tmp_path, proj):
    """tracemalloc peaks of `pltt capture` and `pltt reconstruct` on a 4x4 camera, and the
    measurement's size and its squared-residual array's."""
    data = np.random.default_rng(2).uniform(0.0, 1.0, (16, proj[0] * proj[1], 4, 4, 16))
    write_pltt(tmp_path / "truth.pltt", TransportTensor(data, (4, 4), proj, BIN))
    peaks = []
    for argv in (["capture", "--tensor", "truth.pltt", "--noise", "5e-4", "--seed", "3",
                  "--out", "meas.pltt"],
                 ["reconstruct", "--measurements", "meas.pltt", "--out", "recon.pltt"]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    squares = 16 * proj[0] * proj[1] * 16 * 8
    return peaks, os.path.getsize(tmp_path / "meas.pltt"), squares


def test_command_memory_does_not_grow_with_the_projector(tmp_path, monkeypatch):
    chunk, slack = 1 << 19, 1 << 18
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", chunk)
    monkeypatch.chdir(tmp_path)
    (cap_small, rec_small), _, squares_small = _peaks(tmp_path, (4, 4))
    (cap_large, rec_large), meas_bytes, squares_large = _peaks(tmp_path, (8, 8))
    # three chunk buffers; reconstruct also keeps its squared residuals whole
    bound = 3 * chunk + slack
    assert meas_bytes > 2 * bound
    assert cap_small < bound and cap_large < bound
    assert rec_small < bound + squares_small and rec_large < bound + squares_large
    assert cap_large < cap_small + slack
    assert rec_large - squares_large < rec_small - squares_small + slack


def _poison_last_value(path):
    """Overwrite the last payload value of a PLTT file with NaN."""
    blob = bytearray(path.read_bytes())
    dims = struct.unpack_from("<7I", blob, len(MAGIC))
    coaxial = blob[len(MAGIC) + 28]
    cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins = dims
    count = cam_w * cam_h * (1 if coaxial else proj_w * proj_h) * dim_p * dim_q * n_bins
    struct.pack_into("<d", blob, len(MAGIC) + 29 + 8 * (count - 1), np.nan)
    path.write_bytes(bytes(blob))


def test_reconstruct_of_a_nan_in_the_last_camera_pixel_exits_two_writing_nothing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", 8)
    meas = capture(truth_tensor((3, 3), False), drr_schedule(20), noise_sigma=1e-3, seed=4)
    path = tmp_path / "meas.pltt"
    write_pltt(path, meas)
    _poison_last_value(path)
    assert np.isnan(read_pltt(path).intensities[-1, -1, -1, -1])
    assert main(["reconstruct", "--measurements", str(path),
                 "--out", str(tmp_path / "recon.pltt")]) == 2
    assert capsys.readouterr().err == (
        "error: the measurements are not finite or overflow the reconstruction's solution, "
        "residuals or noise estimate\n")
    assert os.listdir(tmp_path) == ["meas.pltt"]


def test_capture_of_a_nan_in_the_last_camera_pixel_exits_two_writing_nothing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", 8)
    path = tmp_path / "truth.pltt"
    write_pltt(path, truth_tensor((3, 3), False))
    _poison_last_value(path)
    with pytest.raises(ValueError) as whole:
        read_pltt(path)
    assert main(["capture", "--tensor", str(path), "--noise", "1e-3",
                 "--out", str(tmp_path / "meas.pltt")]) == 2
    # the message names the whole payload, as reading it whole does
    assert capsys.readouterr().err == "error: %s\n" % whole.value
    assert "(9, 9, 4, 4, 4)" in str(whole.value)
    assert os.listdir(tmp_path) == ["truth.pltt"]


# the commands that read a transport tensor, each less ``--tensor``: every
# projector reduction of a slice, a fixed camera pixel, and each descatter mask
READERS = {
    "decompose": ["decompose", "--out", "dec"],
    "decompose-bin": ["decompose", "--bin", "2", "--out", "dec"],
    "descatter": ["descatter", "--target", "target.csv", "--out", "desc"],
    "descatter-epipolar": ["descatter", "--target", "target.csv", "--mask", "epipolar",
                           "--out", "desc"],
    "descatter-non-epipolar": ["descatter", "--target", "target.csv", "--mask",
                               "non_epipolar", "--out", "desc"],
    "slice-s_e": ["slice", "--expr", "T(s, s_e, :, :, t)", "--out", "sl"],
    "slice-s_n": ["slice", "--expr", "-sum_t T(s, s_n, 0, :, t)", "--out", "sl"],
    "slice-diagonal": ["slice", "--expr", "sum_p T(s, s, :, 1, t)", "--out", "sl"],
    "slice-projector": ["slice", "--expr", "T(s, 7, :, :, t=3)", "--out", "sl"],
    "slice-camera": ["slice", "--expr", "sum_pp T(8, s, :, :, t)", "--out", "sl"],
    "pca": ["pca", "--out", "pca"],
    # a relative floor that drops blocks only once a later chunk's m00 is seen
    "pca-floor": ["pca", "--floor", "0.5", "--out", "pca"],
}


def noisy_reconstruction(path, coaxial):
    """A 3x3 reconstruction with its noise model, whose noise floor drops some blocks."""
    meas = capture(truth_tensor((3, 3), coaxial, seed=7), drr_schedule(36), noise_sigma=0.02,
                   seed=9)
    write_pltt(path, reconstruct(meas).tensor)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@contextlib.contextmanager
def whole_tensor(path, kind):
    """``cli._open`` as the in-memory library: the tensor read whole is the source."""
    yield read_pltt(path)


def outputs(directory):
    """The bytes of every file a command wrote in ``directory``, less its manifest."""
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))
            if not name.endswith(".manifest.json")}


@pytest.mark.parametrize("setting", ["one", "uneven", "whole"])
@pytest.mark.parametrize("coaxial", [False, True], ids=["projector-camera", "coaxial"])
@pytest.mark.parametrize("command", sorted(READERS))
def test_reading_commands_equal_the_library_at_every_chunk_size(tmp_path, monkeypatch, capsys,
                                                                 command, coaxial, setting):
    tensor = tmp_path / "recon.pltt"
    noisy_reconstruction(tensor, coaxial)
    argv = READERS[command] + ["--tensor", str(tensor)]
    results = {}
    for side in ("lib", "cli"):
        work = tmp_path / side
        work.mkdir()
        np.savetxt(work / "target.csv", np.arange(9.0).reshape(3, 3) % 4, delimiter=",")
        monkeypatch.chdir(work)
        with monkeypatch.context() as patch:
            if side == "lib":
                # every command runs on the in-memory tensor at the default chunk size
                patch.setattr(pltt.cli, "_open", whole_tensor)
            else:
                s_proj = 1 if coaxial else 9
                record = 8 * s_proj * 16 * N_BINS
                patch.setattr(pltt.tensor, "CHUNK_BYTES",
                              {"one": 8, "uneven": 2 * record + 8, "whole": 1 << 40}[setting])
            results[side] = run(argv, capsys), outputs(work)
    assert results["cli"] == results["lib"]
    # the coaxial tensor has no projector axis to mask or index, and fails alike
    fails = coaxial and command in ("descatter-epipolar", "descatter-non-epipolar",
                                    "slice-s_e", "slice-s_n", "slice-projector")
    assert results["cli"][0][0] == (2 if fails else 0)


def _reader_peaks(tmp_path, proj):
    """
    tracemalloc peaks of the four reading commands on a 4x4 camera and 32 bins;
    one lit block per camera pixel and bin stands above the noise floor.
    """
    rng = np.random.default_rng(4)
    data = rng.normal(0.0, 1e-3, (16, proj[0] * proj[1], 4, 4, 32))
    data[np.arange(16), np.arange(16)] = rng.uniform(0.0, 1.0, (16, 4, 4, 32))
    data[np.arange(16), np.arange(16), 0, 0] = 2.0
    write_pltt(tmp_path / "recon.pltt", TransportTensor(data, (4, 4), proj, BIN,
                                                        noise_std=np.full((4, 4), 1e-3)))
    np.savetxt(tmp_path / "target.csv", rng.uniform(size=(4, 4)), delimiter=",")
    peaks = {}
    for command in ("decompose", "descatter", "slice-projector", "pca"):
        argv = READERS[command] + ["--tensor", "recon.pltt"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks, os.path.getsize(tmp_path / "recon.pltt")


def test_reading_command_memory_does_not_grow_with_the_projector(tmp_path, monkeypatch):
    chunk, slack = 1 << 19, 1 << 18
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", chunk)
    monkeypatch.chdir(tmp_path)
    small, _ = _reader_peaks(tmp_path, (4, 4))
    large, tensor_bytes = _reader_peaks(tmp_path, (8, 8))
    # the folded (S_cam, 4, 4, T) output, and pca's lit rows: 16 * 32 blocks
    folded = 16 * 16 * 32 * 8
    bound = 3 * chunk + slack + folded
    assert tensor_bytes > 2 * bound
    for command in small:
        assert small[command] < bound and large[command] < bound, command
        assert large[command] < small[command] + slack, command


def test_no_reading_command_reads_a_whole_tensor(tmp_path, monkeypatch, capsys):
    tensor = tmp_path / "recon.pltt"
    noisy_reconstruction(tensor, False)
    np.savetxt(tmp_path / "target.csv", np.arange(9.0).reshape(3, 3), delimiter=",")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", 8)   # one camera pixel at a time
    plain_preadv = os.preadv
    pixel = 8 * 9 * 16 * N_BINS     # one camera pixel's records of the 3x3 reconstruction

    def read_one_pixel(fd, buffers, offset):
        size = sum(memoryview(b).nbytes for b in buffers)
        if size > pixel:
            raise AssertionError("read %d bytes of a transport tensor at once, one camera "
                                 "pixel holds %d" % (size, pixel))
        return plain_preadv(fd, buffers, offset)

    def no_whole_tensor(path):
        raise AssertionError("read_pltt(%s)" % path)

    monkeypatch.setattr(os, "preadv", read_one_pixel)
    monkeypatch.setattr(pltt.fileio, "read_pltt", no_whole_tensor)
    for command in sorted(READERS):
        assert run(READERS[command] + ["--tensor", "recon.pltt"], capsys)[0] == 0, command


# (argv, stderr) of failures whose text the streaming commands keep: a NaN
# payload, a measurement passed as a tensor, and indices out of range
FAILURES = [
    (["decompose", "--tensor", "nan.pltt", "--out", "d"],
     "transport data must be finite numbers of shape (None, None, 4, 4, None), "
     "got an array of shape (9, 9, 4, 4, 4)"),
    (["pca", "--tensor", "nan.pltt", "--out", "p"],
     "transport data must be finite numbers of shape (None, None, 4, 4, None), "
     "got an array of shape (9, 9, 4, 4, 4)"),
    (["descatter", "--tensor", "nan.pltt", "--target", "target.csv", "--out", "d"],
     "transport data must be finite numbers of shape (None, None, 4, 4, None), "
     "got an array of shape (9, 9, 4, 4, 4)"),
    (["slice", "--tensor", "nan.pltt", "--expr", "T(s, s, 0, 0, t)", "--out", "s"],
     "transport data must be finite numbers of shape (None, None, 4, 4, None), "
     "got an array of shape (9, 9, 4, 4, 4)"),
    (["decompose", "--tensor", "meas.pltt", "--out", "d"],
     "meas.pltt does not hold a transport tensor"),
    (["pca", "--tensor", "meas.pltt", "--out", "p"],
     "meas.pltt does not hold a transport tensor"),
    (["descatter", "--tensor", "meas.pltt", "--target", "target.csv", "--out", "d"],
     "meas.pltt does not hold a transport tensor"),
    (["slice", "--tensor", "meas.pltt", "--expr", "T(s, s, 0, 0, t)", "--out", "s"],
     "meas.pltt does not hold a transport tensor"),
    (["decompose", "--tensor", "recon.pltt", "--bin", "4", "--out", "d"], "bin 4 outside 0..3"),
    (["slice", "--tensor", "recon.pltt", "--expr", "T(9, s, 0, 0, t)", "--out", "s"],
     "camera index 9 outside 0..8"),
    (["slice", "--tensor", "recon.pltt", "--expr", "T(s, 9, 0, 0, t)", "--out", "s"],
     "projector index 9 outside 0..8"),
    (["slice", "--tensor", "recon.pltt", "--expr", "T(s, s, 0, 0, t=4)", "--out", "s"],
     "time bin 4 outside 0..3"),
]


@pytest.mark.parametrize("argv, message", FAILURES, ids=lambda v: None)
def test_reading_commands_fail_as_reading_the_tensor_whole_did(tmp_path, monkeypatch, capsys,
                                                               argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", 8)
    noisy_reconstruction(tmp_path / "recon.pltt", False)
    write_pltt(tmp_path / "nan.pltt", truth_tensor((3, 3), False))
    _poison_last_value(tmp_path / "nan.pltt")
    write_pltt(tmp_path / "meas.pltt", capture(truth_tensor((3, 3), False), drr_schedule(20)))
    np.savetxt(tmp_path / "target.csv", np.arange(9.0), delimiter=",")
    before = sorted(os.listdir(tmp_path))
    assert run(argv, capsys) == (2, "", "error: %s\n" % message)
    assert sorted(os.listdir(tmp_path)) == before


def test_a_coaxial_fold_reads_its_payload_once(tmp_path):
    # a coaxial tensor is its own fold: the payload read once, as pltt decompose holds it
    data = np.random.default_rng(5).uniform(size=(32 * 32, 1, 4, 4, 16))
    write_pltt(tmp_path / "coax.pltt", TransportTensor(data, (32, 32), (32, 32), BIN,
                                                       coaxial=True,
                                                       noise_std=np.full((4, 4), 1e-3)))
    tracemalloc.start()
    try:
        with PlttReader(tmp_path / "coax.pltt") as src:
            folded = fold(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert folded.data.tobytes() == data.tobytes()
    assert folded.noise_std.tobytes() == np.full((4, 4), 1e-3).tobytes()
    # 2.10 MB of payload; reading it into a chunk buffer and copying that peaked at 4.46 MB
    assert peak < data.nbytes + (1 << 17)


@pytest.fixture(scope="module")
def wide_tensor(tmp_path_factory):
    """A 24x24 projector-camera tensor of one bin, and the container holding it."""
    data = np.random.default_rng(6).uniform(size=(576, 576, 4, 4, 1))
    tensor = TransportTensor(data, (24, 24), (24, 24), BIN)
    path = tmp_path_factory.mktemp("wide") / "t.pltt"
    write_pltt(path, tensor)
    return tensor, path


def _traced_peak(path, operation):
    """``operation`` of a PlttReader open on ``path``, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        with PlttReader(path) as src:
            result = operation(src)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("expr, mask", [
    ("T(s, s, 0, 0, t)", lambda n: np.eye(n)),
    ("T(s, 7, 0, 0, t)", lambda n: np.eye(n)[[7] * n]),
    ("T(s, s_e, 0, 0, t)", lambda n: epipolar_masks((24, 24), (24, 24))[0]),
    ("T(s, s_n, 0, 0, t)", lambda n: epipolar_masks((24, 24), (24, 24))[1]),
], ids=["diagonal", "projector-index", "epipolar", "non-epipolar"])
def test_a_slice_builds_its_mask_a_chunk_at_a_time(wide_tensor, expr, mask):
    tensor, path = wide_tensor
    ((_, image),), peak = _traced_peak(path, lambda src: slice_images(src, expr))
    # one 2 MiB chunk of blocks; a dense (576, 576) mask alone is 2.65 MB, and
    # building one peaked at 4.8 MB (5.3 MB for the epipolar pair)
    assert peak <= 2.5e6
    assert image.tobytes() == fold(tensor, mask(576)).data[:, 0, 0, 0, 0].tobytes()


def test_a_masked_summed_image_builds_its_mask_a_chunk_at_a_time(wide_tensor):
    tensor, path = wide_tensor
    image, peak = _traced_peak(path, lambda src: summed_polarimetric_image(
        src, pltt.cli._pick_mask(src.header, "non_epipolar")))
    # the dense epipolar pair and its chunk of rows peaked at 6.9 MB
    assert peak <= 2.5e6
    non_epi = epipolar_masks((24, 24), (24, 24))[1]
    assert image.tobytes() == summed_polarimetric_image(tensor, non_epi).tobytes()


@pytest.mark.parametrize("noise", [0.0, 5e-4], ids=["noiseless", "noisy"])
def test_a_masked_capture_builds_its_mask_a_chunk_at_a_time(wide_tensor, tmp_path, noise):
    tensor, path = wide_tensor
    peaks, files = [], []
    for which in (None, "non_epipolar"):
        def scan(src):
            kernel = CaptureKernel(src.header, drr_schedule(16), noise, 3,
                                   pltt.cli._pick_mask(src.header, which))
            with PlttWriter(tmp_path / "meas.pltt") as out:
                kernel.run(src, out)
                out.finish(kernel.header)
        peaks.append(_traced_peak(path, scan)[1])
        files.append((tmp_path / "meas.pltt").read_bytes())
    # one chunk of weighted blocks; the dense epipolar pair added 2.65 MB, and
    # the previous chunk's weighted blocks, kept while the next formed, 2 MB
    assert peaks[1] < peaks[0] + pltt.tensor.CHUNK_BYTES + (1 << 18)
    non_epi = epipolar_masks((24, 24), (24, 24))[1]
    write_pltt(tmp_path / "lib.pltt", capture(tensor, drr_schedule(16), noise, 3, non_epi))
    assert files[1] == (tmp_path / "lib.pltt").read_bytes()


def _unreadable(*records):
    raise AssertionError("the payload was read")


# (expression, error) on a 3x3 tensor of 4 bins: the projector slot is
# checked first, then the camera index, then the time bin
UNREAD_FAILURES = [
    ("T(99, s, :, :, t)", "camera index 99 outside 0..8"),
    ("T(s, s, 0, 0, t=4)", "time bin 4 outside 0..3"),
    ("T(s, 9, 0, 0, t)", "projector index 9 outside 0..8"),
    ("T(9, 9, 0, 0, t=4)", "projector index 9 outside 0..8"),
    ("T(9, s, 0, 0, t=4)", "camera index 9 outside 0..8"),
]


@pytest.mark.parametrize("expr, message", UNREAD_FAILURES)
def test_slice_checks_every_index_before_reading(expr, message):
    source = mock.Mock(header=truth_tensor((3, 3), False).header, chunks=_unreadable)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        slice_images(source, expr)


def test_slice_out_of_range_exits_two_without_reading(tmp_path, monkeypatch, capsys):
    write_pltt(tmp_path / "truth.pltt", truth_tensor((3, 3), False))
    monkeypatch.setattr(PlttReader, "chunks", lambda self, *records: _unreadable())
    assert run(["slice", "--tensor", str(tmp_path / "truth.pltt"), "--expr",
                "T(99, s, :, :, t)", "--out", str(tmp_path / "s")], capsys) == (
        2, "", "error: camera index 99 outside 0..8\n")
    assert os.listdir(tmp_path) == ["truth.pltt"]


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--bin", "4", "--out", "dec"], "bin 4 outside 0..3"),
    (["descatter", "--target", "target.csv", "--out", "desc"],
     "target has 4 values but the tensor has 9 camera pixels"),
    (["descatter", "--target", "target.csv", "--mask", "non_epipolar", "--out", "desc"],
     "target has 4 values but the tensor has 9 camera pixels"),
], ids=["decompose-bin", "descatter-target", "descatter-masked-target"])
def test_decompose_and_descatter_check_their_arguments_before_reading(
        tmp_path, monkeypatch, capsys, argv, message):
    write_pltt(tmp_path / "truth.pltt", truth_tensor((3, 3), False))
    np.savetxt(tmp_path / "target.csv", np.zeros((2, 2)), delimiter=",")
    monkeypatch.setattr(PlttReader, "chunks", lambda self, *records: _unreadable())
    monkeypatch.setattr(PlttReader, "load", lambda self: _unreadable())
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--tensor", "truth.pltt"], capsys) == (2, "", "error: %s\n" % message)
    assert sorted(os.listdir(tmp_path)) == ["target.csv", "truth.pltt"]


def _items(value, work):
    """A result as a list of comparable items; a tensor or a set is its container's bytes."""
    if isinstance(value, HeaderArray):
        write_pltt(os.path.join(work, "result.pltt"), value)
        with open(os.path.join(work, "result.pltt"), "rb") as fh:
            return [fh.read()]
    if isinstance(value, np.ndarray):
        return [value.shape, value.tobytes()]
    if is_dataclass(value):
        value = [getattr(value, f.name) for f in fields(value)]
    if isinstance(value, (list, tuple)):
        return [item for v in value for item in _items(v, work)]
    return [value]


# slices that every tensor of each geometry takes: the masked folds, the
# diagonal and a projector index, and a fixed camera pixel and time bin
SOURCE_SLICES = {
    False: ["T(s, s, :, :, t)", "sum_t T(s, s_e, 0, :, t)", "-T(s, s_n, :, 1, t)",
            "sum_pp T(0, 0, :, :, t=0)", "T(s, 0, :, :, t)"],
    True: ["T(s, s, :, :, t)", "sum_p T(0, s, :, 0, t)"],
}


@settings(max_examples=60, deadline=None)
@given(coaxial=st.booleans(), modelled=st.booleans(), masked=st.booleans(),
       cam=st.tuples(st.integers(1, 3), st.integers(1, 3)), n_bins=st.integers(1, 3),
       chunk=st.integers(8, 1 << 14), seed=st.integers(0, 2**32 - 1),
       schedule=st.sampled_from([drr_schedule(20), drr_schedule(5, "polarizer_array")]),
       noise=st.sampled_from([0.0, 1e-3]), split=st.sampled_from([0.5, 0.3]),
       floor=st.sampled_from([0.0, 0.4]))
def test_every_operation_reads_a_file_as_the_object_it_holds(
        coaxial, modelled, masked, cam, n_bins, chunk, seed, schedule, noise, split, floor):
    rng = np.random.default_rng(seed)
    s_cam = cam[0] * cam[1]
    # some m00 at or below 0, so the floors drop blocks
    tensor = TransportTensor(rng.uniform(-0.2, 1.0, (s_cam, 1 if coaxial else s_cam, 4, 4,
                                                     n_bins)),
                             cam, cam, BIN, coaxial=coaxial,
                             noise_std=np.full((4, 4), 0.05) if modelled else None)
    mask = rng.uniform(size=(s_cam, s_cam)) if masked and not coaxial else None
    operations = {
        "capture": lambda src: capture(src, schedule, noise, 7, mask, split),
        "fold": lambda src: fold(src, mask),
        "lit_blocks": lambda src: lit_blocks(src, floor),
        "summed_polarimetric_image": lambda src: summed_polarimetric_image(src, mask),
        **{expr: lambda src, expr=expr: slice_images(src, expr)
           for expr in SOURCE_SLICES[coaxial]},
    }
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(pltt.tensor, "CHUNK_BYTES", chunk):
        truth, meas = os.path.join(work, "truth.pltt"), os.path.join(work, "meas.pltt")
        write_pltt(truth, tensor)
        # one reader serves every operation: each reads the payload from its start
        with PlttReader(truth) as src:
            for name, operation in operations.items():
                assert _items(operation(src), work) == _items(operation(tensor), work), name
        measured = capture(tensor, schedule, noise, 7, mask, split)
        write_pltt(meas, measured)
        with PlttReader(meas) as src:
            assert _items(reconstruct(src), work) == _items(reconstruct(measured), work)


def _pca_of_lit_blocks(src, floor):
    """The PCA of a source's lit blocks, as ``pltt pca`` forms it, or None below 2 blocks."""
    blocks, _ = lit_blocks(src, floor)
    return pca(build_observation(blocks).rows) if len(blocks) >= 2 else None


@settings(max_examples=40, deadline=None)
@given(coaxial=st.booleans(), masked=st.booleans(), lit=st.floats(0.0, 1.0),
       cam=st.tuples(st.integers(1, 3), st.integers(1, 3)), n_bins=st.integers(1, 3),
       chunk=st.integers(8, 1 << 14), workers=st.integers(1, 3), span=st.integers(1, 1 << 13),
       seed=st.integers(0, 2**32 - 1),
       schedule=st.sampled_from([drr_schedule(20), drr_schedule(5, "polarizer_array")]),
       noise=st.sampled_from([0.0, 1e-3]), floor=st.sampled_from([0.0, 0.4]))
def test_a_sparse_source_gives_the_bytes_of_its_dense_load(
        coaxial, masked, lit, cam, n_bins, chunk, workers, span, seed, schedule, noise, floor):
    rng = np.random.default_rng(seed)
    s_cam = cam[0] * cam[1]
    s_proj = 1 if coaxial else s_cam
    pairs = np.flatnonzero(rng.random(s_cam * s_proj) < lit)
    # negative entries, and indexed blocks that are all zero, so a zero weight makes -0.0
    blocks = rng.uniform(-0.5, 1.0, (len(pairs), 4, 4, n_bins))
    blocks[rng.random(len(pairs)) < 0.2] = 0.0
    sparse = SparseTransport(blocks, np.stack(np.divmod(pairs, s_proj), axis=1), cam, cam, BIN,
                             coaxial=coaxial)
    dense = sparse.load()
    mask = None
    if masked and not coaxial:
        mask = rng.uniform(size=(s_cam, s_cam)) * (rng.random((s_cam, s_cam)) < 0.6)
    operations = {
        "capture": lambda src: capture(src, schedule, noise, 7, mask),
        "fold": lambda src: fold(src, mask),
        "lit_blocks": lambda src: lit_blocks(src, floor),
        "decompose_tensor": lambda src: decompose_tensor(src, floor),
        "pca": lambda src: _pca_of_lit_blocks(src, floor),
        **{expr: lambda src, expr=expr: slice_images(src, expr)
           for expr in SOURCE_SLICES[coaxial]},
    }
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(pltt.tensor, "CHUNK_BYTES", chunk), \
            mock.patch.object(pltt.tensor, "WORKERS", workers), \
            mock.patch.object(pltt.tensor, "SPAN_VALUES", span):
        truth = os.path.join(work, "truth.pltt")
        write_pltt(truth, sparse)
        with PlttReader(truth) as src:
            for name, operation in operations.items():
                want = _items(operation(dense), work)
                assert _items(operation(sparse), work) == want, name
                assert _items(operation(src), work) == want, name


def test_a_sparse_file_captures_as_its_dense_v1_file(tmp_path):
    truth = SparseTransport(np.random.default_rng(2).uniform(-1.0, 1.0, (5, 4, 4, 3)),
                            [[0, 1], [0, 2], [3, 3], [4, 0], [8, 8]], (3, 3), (3, 3), BIN)
    write_pltt(tmp_path / "sparse.pltt", truth)
    write_pltt(tmp_path / "dense.pltt", truth.load())
    non_epi = epipolar_masks((3, 3), (3, 3))[1]
    for noise, mask in ((0.0, None), (1e-3, None), (0.0, non_epi), (1e-3, non_epi)):
        files = []
        for name in ("sparse", "dense"):
            with PlttReader(tmp_path / ("%s.pltt" % name)) as src, \
                    PlttWriter(tmp_path / "meas.pltt") as out:
                kernel = CaptureKernel(src.header, drr_schedule(20), noise, 5, mask)
                kernel.run(src, out)
                out.finish(kernel.header)
            files.append((tmp_path / "meas.pltt").read_bytes())
        assert files[0] == files[1]
    assert read_pltt(tmp_path / "dense.pltt").data.tobytes() == truth.data.tobytes()


def _busy_span_workers():
    """Names of the pool threads that are inside a span's work."""
    frames = sys._current_frames()
    busy = []
    for thread in threading.enumerate():
        frame = frames.get(thread.ident)
        while frame is not None:
            code = frame.f_code
            if code.co_name == "worker" and code.co_filename == pltt.tensor.__file__:
                busy.append(thread.name)
            frame = frame.f_back
    return busy


def test_capture_of_a_nan_in_the_last_span_exits_two_leaving_nothing_running(
        tmp_path, capsys, monkeypatch):
    # nine spans of one camera pixel on three workers, whatever the host's CPUs
    monkeypatch.setattr(pltt.tensor, "WORKERS", 3)
    monkeypatch.setattr(pltt.tensor, "SPAN_VALUES", 1)
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", 8)
    path = tmp_path / "truth.pltt"
    write_pltt(path, truth_tensor((3, 3), False))
    _poison_last_value(path)
    with pytest.raises(ValueError) as whole:
        read_pltt(path)
    exited, late = [], []
    pwrite, leave = os.pwrite, PlttWriter.__exit__

    def slow_pwrite(fd, data, offset):
        late.extend([offset] if exited else [])
        time.sleep(0.002)     # the other spans still write when the last one fails
        return pwrite(fd, data, offset)

    def spied_exit(self, *exc):
        exited.append(True)
        return leave(self, *exc)

    monkeypatch.setattr(os, "pwrite", slow_pwrite)
    monkeypatch.setattr(PlttWriter, "__exit__", spied_exit)
    assert main(["capture", "--tensor", str(path), "--noise", "1e-3",
                 "--out", str(tmp_path / "meas.pltt")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % whole.value
    assert os.listdir(tmp_path) == ["truth.pltt"]
    assert exited and not late
    assert not _busy_span_workers()


def _span_streams(seed, shape, per_span):
    """Unit normals of ``shape``: SFC64(seed) over span 0, SeedSequence(seed, (j,)) over span j."""
    out = np.empty(shape)
    for j, first in enumerate(range(0, shape[0], per_span)):
        stream = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(j,)) if j else seed)
        span = out[first:first + per_span]
        span[...] = np.random.Generator(stream).standard_normal(span.shape)
    return out


@settings(max_examples=40, deadline=None)
@given(coaxial=st.booleans(), masked=st.booleans(),
       cam=st.tuples(st.integers(1, 4), st.integers(1, 4)), n_bins=st.integers(1, 3),
       schedule=st.sampled_from([drr_schedule(20), drr_schedule(5, "polarizer_array")]),
       noise=st.sampled_from([0.0, 1e-3]), workers=st.sampled_from([2, 3]),
       chunk=st.integers(8, 1 << 14), span=st.integers(1, 1 << 13),
       seed=st.integers(0, 2**32 - 1))
def test_capture_and_reconstruct_bytes_depend_on_neither_workers_nor_chunks(
        coaxial, masked, cam, n_bins, schedule, noise, workers, chunk, span, seed):
    rng = np.random.default_rng(seed)
    s_cam = cam[0] * cam[1]
    data = rng.uniform(-1.0, 1.0, (s_cam, 1 if coaxial else s_cam, 4, 4, n_bins))
    tensor = TransportTensor(data, cam, cam, BIN, coaxial=coaxial)
    mask = rng.uniform(size=(s_cam, s_cam)) if masked and not coaxial else None

    def outputs(work):
        """Capture and reconstruct in memory and from file to file, as their bytes."""
        meas = capture(tensor, schedule, noise, 7, mask)
        result = reconstruct(meas)
        truth, meas_path, recon = (os.path.join(work, name) for name in
                                   ("truth.pltt", "meas.pltt", "recon.pltt"))
        write_pltt(truth, tensor)
        with PlttReader(truth) as src, PlttWriter(meas_path) as out:
            kernel = CaptureKernel(src.header, schedule, noise, 7, mask)
            kernel.run(src, out)
            out.finish(kernel.header)
        with PlttReader(meas_path) as src, PlttWriter(recon) as out:
            header, sigma_hat, norms = Decoder.of_measurements(src.header).run(src, out)
            out.finish(header)
        files = []
        for path in (meas_path, recon):
            with open(path, "rb") as fh:
                files.append(fh.read())
        return [meas.intensities.tobytes(), result.tensor.data.tobytes(),
                result.tensor.noise_std.tobytes(), result.residual_norms.tobytes(),
                result.sigma_hat, norms.tobytes(), sigma_hat] + files, meas

    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(pltt.tensor, "SPAN_VALUES", span):
        with mock.patch.object(pltt.tensor, "WORKERS", 1):
            one, meas = outputs(work)
        with mock.patch.object(pltt.tensor, "WORKERS", workers), \
                mock.patch.object(pltt.tensor, "CHUNK_BYTES", chunk):
            many, _ = outputs(work)
    assert one == many
    if noise:
        clean = capture(tensor, schedule, 0.0, 7, mask).intensities
        per_span = max(1, span // clean[0].size)
        want = clean + noise * _span_streams(7, clean.shape, per_span)
        assert meas.intensities.tobytes() == want.tobytes()


def test_more_workers_than_cores_write_every_chunk_once(tmp_path, monkeypatch):
    # a switch every microsecond on eight workers: a lost update of the spans
    # handed out or of the writer's value count would change or fail the file
    tensor = truth_tensor((4, 4), False, seed=3)
    write_pltt(tmp_path / "truth.pltt", tensor)
    monkeypatch.setattr(pltt.tensor, "SPAN_VALUES", 1)     # a span per camera pixel
    monkeypatch.setattr(pltt.tensor, "WORKERS", 1)
    write_pltt(tmp_path / "lib.pltt", capture(tensor, drr_schedule(20), 1e-3, 5))
    monkeypatch.setattr(pltt.tensor, "WORKERS", 8)
    monkeypatch.setattr(pltt.tensor, "CHUNK_BYTES", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with PlttReader(tmp_path / "truth.pltt") as src, \
                    PlttWriter(tmp_path / "meas.pltt") as out:
                kernel = CaptureKernel(src.header, drr_schedule(20), 1e-3, 5)
                kernel.run(src, out)
                out.finish(kernel.header)
            assert (tmp_path / "meas.pltt").read_bytes() == (tmp_path / "lib.pltt").read_bytes()
    finally:
        sys.setswitchinterval(interval)
