"""
Every `pltt` command that reads a container streams it over runs of camera
pixels: its outputs equal the library's in-memory ones at every chunk size,
its memory does not grow with the scan or the projector, no command reads a
whole transport tensor, and a failure leaves no file.
"""

import contextlib
import os
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import pltt.cli
import pltt.ellipsometry
import pltt.fileio
from pltt.cli import _write_diagnostics, main
from pltt.ellipsometry import capture, drr_schedule, reconstruct
from pltt.fileio import MAGIC, PlttReader, read_pltt, write_pltt
from pltt.tensor import TransportTensor, epipolar_masks

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
    _write_diagnostics(tmp_path / "lib_diagnostics.csv", result.residual_norms)

    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES",
                        chunk_bytes(setting, cam, coaxial, schedule.n_rows))
    monkeypatch.chdir(tmp_path)
    assert main(["capture", "--tensor", "truth.pltt", "--k", str(k), "--noise", "1e-3",
                 "--seed", "5", "--out", "meas.pltt"] + flags) == 0
    assert main(["reconstruct", "--measurements", "meas.pltt", "--out", "recon.pltt"]) == 0
    for ours, lib in (("meas.pltt", "lib_meas.pltt"), ("recon.pltt", "lib_recon.pltt"),
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
        monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES",
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
    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES", chunk)
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
    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES", 8)
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
    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES", 8)
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
    """``cli._open`` as the in-memory library: the tensor read whole is the layout."""
    yield SimpleNamespace(header=read_pltt(path))


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
                # no chunks: every command runs the library's in-memory path
                patch.setattr(pltt.cli, "_open", whole_tensor)
                patch.setattr(pltt.cli, "_chunks", lambda src: None)
            else:
                s_proj = 1 if coaxial else 9
                record = 8 * s_proj * 16 * N_BINS
                patch.setattr(pltt.ellipsometry, "CHUNK_BYTES",
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
    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES", chunk)
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
    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES", 8)   # one camera pixel at a time
    plain_read = PlttReader.read

    def read_one_pixel(self, n, out=None):
        if self.header.kind == "transport" and n > 1:
            raise AssertionError("read %d camera pixels of a transport tensor at once" % n)
        return plain_read(self, n, out)

    def no_whole_tensor(path):
        raise AssertionError("read_pltt(%s)" % path)

    monkeypatch.setattr(PlttReader, "read", read_one_pixel)
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
    monkeypatch.setattr(pltt.ellipsometry, "CHUNK_BYTES", 8)
    noisy_reconstruction(tmp_path / "recon.pltt", False)
    write_pltt(tmp_path / "nan.pltt", truth_tensor((3, 3), False))
    _poison_last_value(tmp_path / "nan.pltt")
    write_pltt(tmp_path / "meas.pltt", capture(truth_tensor((3, 3), False), drr_schedule(20)))
    np.savetxt(tmp_path / "target.csv", np.arange(9.0), delimiter=",")
    before = sorted(os.listdir(tmp_path))
    assert run(argv, capsys) == (2, "", "error: %s\n" % message)
    assert sorted(os.listdir(tmp_path)) == before
