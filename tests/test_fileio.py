import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pltt.fileio
from pltt.cli import main
from pltt.ellipsometry import AngleSchedule, MeasurementSet, drr_schedule, schedule_to_dict
from pltt.fileio import (MAGIC, PlttReader, PlttWriter, read_pltt, write_csv_grid, write_pgm,
                         write_pltt)
from pltt.tensor import SparseTransport, TransportTensor

BIN = 2e-11


def test_transport_round_trip_dense(tmp_path):
    rng = np.random.default_rng(0)
    tensor = TransportTensor(rng.normal(size=(6, 2, 4, 4, 3)), (2, 3), (1, 2), BIN,
                             channel_id="red", provenance="unit test")
    path = tmp_path / "t.pltt"
    write_pltt(path, tensor)
    back = read_pltt(path)
    assert isinstance(back, TransportTensor)
    np.testing.assert_array_equal(back.data, tensor.data)
    assert back.cam_shape == (2, 3)
    assert back.proj_shape == (1, 2)
    assert back.time_bin_width == BIN
    assert back.channel_id == "red"
    assert back.provenance == "unit test"
    assert not back.coaxial


def test_transport_round_trip_coaxial(tmp_path):
    rng = np.random.default_rng(1)
    tensor = TransportTensor(rng.normal(size=(4, 1, 4, 4, 5)), (2, 2), (2, 2), BIN,
                             coaxial=True)
    path = tmp_path / "c.pltt"
    write_pltt(path, tensor)
    back = read_pltt(path)
    assert back.coaxial
    np.testing.assert_array_equal(back.data, tensor.data)


def test_measurement_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    schedule = drr_schedule(5)
    meas = MeasurementSet(
        intensities=rng.normal(size=(4, 1, 5, 2)),
        schedule=schedule,
        coaxial=True,
        cam_shape=(2, 2),
        proj_shape=(2, 2),
        time_bin_width=BIN,
        noise_sigma=1e-4,
        seed=99,
        provenance="capture test",
    )
    path = tmp_path / "m.pltt"
    write_pltt(path, meas)
    back = read_pltt(path)
    assert isinstance(back, MeasurementSet)
    np.testing.assert_array_equal(back.intensities, meas.intensities)
    np.testing.assert_allclose(back.schedule.theta2, schedule.theta2, atol=1e-15)
    assert back.schedule.sensor_mode == "intensity"
    assert back.coaxial is True
    assert back.noise_sigma == 1e-4
    assert back.seed == 99
    assert back.provenance == "capture test"


def test_writes_are_byte_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    tensor = TransportTensor(rng.normal(size=(2, 2, 4, 4, 2)), (1, 2), (1, 2), BIN,
                             provenance="same")
    p1, p2 = tmp_path / "a.pltt", tmp_path / "b.pltt"
    write_pltt(p1, tensor)
    write_pltt(p2, tensor)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "junk.pltt"
    path.write_bytes(b"NOT-A-TENSOR-FILE-AT-ALL")
    with pytest.raises(ValueError, match="magic"):
        read_pltt(path)
    good = tmp_path / "good.pltt"
    tensor = TransportTensor(np.zeros((1, 1, 4, 4, 1)), (1, 1), (1, 1), BIN)
    write_pltt(good, tensor)
    blob = good.read_bytes()
    assert blob[:16] == MAGIC
    truncated = tmp_path / "short.pltt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        read_pltt(truncated)


SLOTS = ("cam_w", "cam_h", "proj_w", "proj_h", "dim_p", "dim_q", "n_bins")


def _crafted_cases():
    rng = np.random.default_rng(8)
    transport = TransportTensor(rng.normal(size=(4, 1, 4, 4, 2)), (2, 2), (1, 1), BIN)
    meas = MeasurementSet(rng.normal(size=(2, 1, 8, 4)), drr_schedule(8), False,
                          (1, 2), (1, 1), BIN)
    # each rewrite keeps the payload length, so only the slot checks can catch it
    cases = [
        ("transport", transport, {"dim_p": 2, "dim_q": 8}, "dim_p is 2, must be 4"),
        ("measurement", meas, {"dim_q": 2, "n_bins": 2}, "dim_q is 2, must be 1"),
        ("measurement", meas, {"dim_p": 4, "n_bins": 8}, "dim_p is 4, must be 8"),
    ]
    return [pytest.param(*case, id="%s-%s" % (case[0], case[3].split()[0])) for case in cases]


@pytest.mark.parametrize("kind, obj, slots, message", _crafted_cases())
def test_crafted_header_slots_exit_two_naming_the_slot(tmp_path, capsys, kind, obj, slots,
                                                       message):
    path = tmp_path / "crafted.pltt"
    write_pltt(path, obj)
    blob = bytearray(path.read_bytes())
    dims = list(struct.unpack_from("<7I", blob, len(MAGIC)))
    count = np.prod(dims)
    for slot, value in slots.items():
        dims[SLOTS.index(slot)] = value
    assert np.prod(dims) == count
    struct.pack_into("<7I", blob, len(MAGIC), *dims)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="PLTT %s header slot %s" % (kind, message)):
        read_pltt(path)
    assert main(["reconstruct", "--measurements", str(path),
                 "--out", str(tmp_path / "recon.pltt")]) == 2
    err = capsys.readouterr().err
    assert err == "error: PLTT %s header slot %s\n" % (kind, message)


def _values(shape, finite=True):
    return arrays(np.float64, shape,
                  elements=st.floats(allow_nan=not finite, allow_infinity=not finite))


@st.composite
def containers(draw):
    """A random transport or measurement set, coaxial or not."""
    kind = draw(st.sampled_from(("transport", "measurement")))
    cam = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    coaxial = draw(st.booleans())
    proj = cam if coaxial else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    s_cam, s_proj = cam[0] * cam[1], 1 if coaxial else proj[0] * proj[1]
    n_bins = draw(st.integers(1, 3))
    width = draw(st.floats(1e-15, 1.0))
    provenance = draw(st.text(max_size=12))
    if kind == "transport":
        noise_std = draw(st.none() | arrays(np.float64, (4, 4), elements=st.floats(0.0, 1e300)))
        return TransportTensor(draw(_values((s_cam, s_proj, 4, 4, n_bins))), cam, proj, width,
                               channel_id=draw(st.text(max_size=8)), coaxial=coaxial,
                               noise_std=noise_std, provenance=provenance)
    k = draw(st.integers(1, 4))
    # AngleSchedule takes angles up to about 3e306 radians, where degrees overflow
    angles = [draw(arrays(np.float64, k, elements=st.floats(-1e300, 1e300)))
              for _ in range(4)]
    schedule = AngleSchedule(*angles, sensor_mode=draw(
        st.sampled_from(("intensity", "polarizer_array"))),
        fixed=tuple(draw(st.booleans()) for _ in range(4)))
    return MeasurementSet(
        draw(_values((s_cam, s_proj, schedule.n_rows, n_bins), finite=False)), schedule,
        coaxial, cam, proj, width,
        noise_sigma=draw(st.floats(0.0, 1.0)), seed=draw(st.none() | st.integers(0, 2**63)),
        provenance=provenance, split=draw(st.floats(0.0, 1.0)))


_FIELDS = {
    TransportTensor: ("cam_shape", "proj_shape", "time_bin_width", "channel_id", "coaxial",
                      "provenance"),
    MeasurementSet: ("coaxial", "cam_shape", "proj_shape", "time_bin_width",
                     "noise_sigma", "seed", "split", "provenance"),
}


@settings(max_examples=150, deadline=None)
@given(obj=containers())
def test_container_round_trip_property(tmp_path_factory, obj):
    tmp = tmp_path_factory.mktemp("round_trip")
    first, second = tmp / "first.pltt", tmp / "second.pltt"
    write_pltt(first, obj)
    back = read_pltt(first)
    assert type(back) is type(obj)
    data = "intensities" if isinstance(obj, MeasurementSet) else "data"
    assert getattr(back, data).shape == getattr(obj, data).shape
    assert getattr(back, data).tobytes() == getattr(obj, data).tobytes()
    for name in _FIELDS[type(obj)]:
        assert getattr(back, name) == getattr(obj, name), name
    if isinstance(obj, TransportTensor):
        assert (back.noise_std is None) == (obj.noise_std is None)
        if obj.noise_std is not None:
            assert back.noise_std.tobytes() == obj.noise_std.tobytes()
    if isinstance(obj, MeasurementSet):
        # angles are stored in degrees; the stored degrees survive exactly
        assert schedule_to_dict(back.schedule) == schedule_to_dict(obj.schedule)
    # the JSON block follows the 45-byte prefix and the payload
    tail = first.read_bytes()[len(MAGIC) + 7 * 4 + 1 + 8 * getattr(back, data).size:]
    assert json.loads(tail)["provenance"] == obj.provenance
    write_pltt(second, back)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("value", [
    "0.1", [0.1] * 15, [[0.1] * 4] * 4, [0.1] * 15 + [-1e-3], [0.1] * 15 + [float("nan")],
    [0.1] * 15 + [float("inf")], [0.1] * 15 + [True], [0.1] * 15 + [10 ** 400],
    [0.1] * 15 + ["0.1"],
], ids=["string", "15 values", "nested", "negative", "nan", "inf", "bool", "huge int", "text"])
def test_malformed_noise_model_exits_two(tmp_path, capsys, value):
    path = tmp_path / "t.pltt"
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN,
                                     noise_std=np.full((4, 4), 0.1)))
    blob = path.read_bytes()
    end = len(MAGIC) + 7 * 4 + 1 + 8 * 32
    meta = json.loads(blob[end:])
    assert meta["noise_std"] == [0.1] * 16
    meta["noise_std"] = value
    path.write_bytes(blob[:end] + json.dumps(meta).encode("utf-8"))
    with pytest.raises(ValueError,
                       match=r"^noise_std must be finite numbers of shape \(4, 4\) >= 0, got "):
        read_pltt(path)
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "noise_std" in err


@pytest.mark.parametrize("kind", ["illumination", "detected", "bogus", [], {}, 1])
def test_unknown_payload_kind_exits_two(tmp_path, capsys, kind):
    path = tmp_path / "t.pltt"
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN))
    blob = path.read_bytes()
    end = len(MAGIC) + 7 * 4 + 1 + 8 * 32
    meta = json.loads(blob[end:])
    assert meta["kind"] == "transport"
    meta["kind"] = kind
    path.write_bytes(blob[:end] + json.dumps(meta).encode("utf-8"))
    message = "unknown PLTT payload kind %r" % (kind,)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_pltt(path)
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("name", ["channel_id", "provenance"])
@pytest.mark.parametrize("value", [[1], 5, None, {"a": "b"}])
def test_a_channel_or_provenance_that_is_not_a_string_is_rejected(tmp_path, capsys, name,
                                                                   value):
    message = "%s must be a string, got %r" % (name, value)
    tensor = TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        dataclasses.replace(tensor, **{name: value})
    if name == "provenance":
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            MeasurementSet(np.zeros((1, 1, 16, 1)), drr_schedule(16), False, (1, 1), (1, 1),
                           BIN, provenance=value)
    path = tmp_path / "t.pltt"
    write_pltt(path, tensor)
    head, block = _split_trailer(path)
    path.write_bytes(head + json.dumps(dict(json.loads(block), **{name: value})).encode("utf-8"))
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        read_pltt(path)
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


# magic, the seven u32 header slots, the coaxial flag
PREFIX = len(MAGIC) + 7 * 4 + 1


def _split_trailer(path):
    """(the bytes before a PLTT file's JSON block, the block)."""
    blob = path.read_bytes()
    obj = read_pltt(path)
    payload = obj.intensities if isinstance(obj, MeasurementSet) else obj.data
    end = PREFIX + 8 * payload.size
    return blob[:end], blob[end:]


def _drop_keys(path, *keys):
    """Rewrite a PLTT file as a writer that did not store ``keys`` left it."""
    head, block = _split_trailer(path)
    meta = {k: v for k, v in json.loads(block).items() if k not in keys}
    path.write_bytes(head + json.dumps(meta, sort_keys=True).encode("utf-8"))


@pytest.mark.parametrize("flag", [2, 255])
def test_a_coaxial_flag_other_than_zero_or_one_exits_two(tmp_path, capsys, flag):
    path = tmp_path / "t.pltt"
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN,
                                     coaxial=True))
    blob = bytearray(path.read_bytes())
    assert blob[PREFIX - 1] == 1
    blob[PREFIX - 1] = flag
    path.write_bytes(bytes(blob))
    message = "PLTT coaxial flag must be 0 or 1, got %d" % flag
    with pytest.raises(ValueError, match=message):
        read_pltt(path)
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_a_trailer_without_kind_or_channel_id_reads_as_a_mono_transport(tmp_path):
    path = tmp_path / "t.pltt"
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN,
                                     channel_id="red"))
    _drop_keys(path, "kind", "channel_id")
    back = read_pltt(path)
    assert isinstance(back, TransportTensor)
    assert back.channel_id == "mono"


def test_a_measurement_trailer_without_provenance_reads_as_empty(tmp_path):
    path = tmp_path / "m.pltt"
    write_pltt(path, MeasurementSet(np.zeros((1, 1, 16, 1)), drr_schedule(16), False, (1, 1),
                                    (1, 1), BIN, provenance="capture(truth.pltt)"))
    assert read_pltt(path).provenance == "capture(truth.pltt)"
    _drop_keys(path, "provenance")
    assert read_pltt(path).provenance == ""


_SCHEDULE = AngleSchedule(np.deg2rad([0.0, 90.0]), np.deg2rad([45.0, 0.0]),
                          np.deg2rad([0.0, 90.0]), np.zeros(2))


@pytest.mark.parametrize("obj, block", [
    (TransportTensor(np.ones((1, 1, 4, 4, 1)), (1, 1), (1, 1), BIN, channel_id="red"),
     b'{"channel_id": "red", "kind": "transport", "provenance": "pinned", '
     b'"time_bin_width": 2e-11}'),
    (TransportTensor(np.ones((1, 1, 4, 4, 1)), (1, 1), (1, 1), BIN,
                     noise_std=np.arange(16.0).reshape(4, 4) / 4),
     b'{"channel_id": "mono", "kind": "transport", "noise_std": [0.0, 0.25, 0.5, 0.75, 1.0, '
     b'1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75], "provenance": "pinned", '
     b'"time_bin_width": 2e-11}'),
    (MeasurementSet(np.zeros((1, 1, 2, 1)), _SCHEDULE, True, (1, 1), (1, 1), BIN,
                    noise_sigma=0.001, seed=None, split=0.25),
     b'{"channel_id": "mono", "geometry_mode": "coaxial", "kind": "measurement", '
     b'"noise_sigma": 0.001, "provenance": "pinned", "schedule": {"fixed": [true, false, '
     b'false, true], "sensor_mode": "intensity", "theta1_deg": [0.0, 90.0], "theta2_deg": '
     b'[45.0, 0.0], "theta3_deg": [0.0, 90.0], "theta4_deg": [0.0, 0.0]}, "seed": null, '
     b'"split": 0.25, "time_bin_width": 2e-11}'),
], ids=["transport", "transport-noise-model", "measurement-no-seed"])
def test_the_json_block_is_pinned_byte_for_byte(tmp_path, obj, block):
    path = tmp_path / "pinned.pltt"
    write_pltt(path, dataclasses.replace(obj, provenance="pinned"))
    assert _split_trailer(path)[1] == block


def test_short_payload_read_is_a_value_error(tmp_path, monkeypatch):
    plain_preadv = os.preadv

    def short_preadv(fd, buffers, offset):
        """A positional read that stops halfway through the payload, as if the file shrank."""
        view = memoryview(buffers[0]).cast("B")
        return plain_preadv(fd, [view[:len(view) // 2]], offset)

    path = tmp_path / "t.pltt"
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN))
    monkeypatch.setattr(os, "preadv", short_preadv)
    with pytest.raises(ValueError, match="payload is truncated: read 128 of 256 bytes"):
        read_pltt(path)


def test_write_rejects_a_payload_its_header_does_not_describe(tmp_path):
    # a writer handed three of a 2x2 measurement's four camera pixels
    meas = MeasurementSet(np.zeros((4, 1, 16, 2)), drr_schedule(16), True, (2, 2), (2, 2), BIN)
    with pytest.raises(ValueError, match=r"PLTT payload has 96 values, its header dims "
                                         r"\(2, 2, 2, 2, 16, 1, 2\) need 128"):
        with PlttWriter(tmp_path / "m.pltt") as out:
            out.write(meas.intensities[:3])
            out.finish(meas.header)
    assert not list(tmp_path.iterdir())


def test_write_pgm_format_and_sidecar(tmp_path):
    image = np.array([[0.0, 1.0], [2.0, np.nan]])
    path = tmp_path / "img.pgm"
    [info] = write_pgm(path, image[None])
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n65535\n")
    assert info == {"min": 0.0, "max": 2.0, "nan_count": 1}
    # 2x2 16-bit payload = 8 bytes after the header
    header_end = blob.index(b"65535\n") + len(b"65535\n")
    pixels = np.frombuffer(blob[header_end:], dtype=">u2").reshape(2, 2)
    assert pixels[0, 0] == 0
    assert pixels[1, 0] == 65535
    assert pixels[0, 1] == 32767 or pixels[0, 1] == 32768
    assert pixels[1, 1] == 0   # NaN renders as black


def _one_tile_raster(image):
    """One image's 16-bit raster as a single-image PGM export normalises it."""
    finite = np.isfinite(image)
    lo = image[finite].min() if finite.any() else 0.0
    hi = image[finite].max() if finite.any() else 0.0
    span = hi - lo if hi > lo else 1.0
    scaled = np.zeros_like(image)
    scaled[finite] = (image[finite] - lo) / span * 65535
    return np.round(scaled).astype(">u2").tobytes()


def test_write_pgm_stack_is_its_tiles_rasters_top_to_bottom(tmp_path):
    rng = np.random.default_rng(12)
    dense = rng.normal(size=(3, 5)) * 1e-3
    holed = rng.normal(size=(3, 5)) + 40.0
    holed[1, 2] = holed[0, 4] = np.nan
    holed[2, 0] = np.inf
    tiles = [dense, holed, np.full((3, 5), np.nan), np.full((3, 5), -2.5)]
    path = tmp_path / "stack.pgm"
    ranges = write_pgm(path, tiles)
    header = b"P5\n5 12\n65535\n"
    blob = path.read_bytes()
    assert blob == header + b"".join(_one_tile_raster(tile) for tile in tiles)
    finite = np.isfinite(holed)
    assert ranges == [
        {"min": float(dense.min()), "max": float(dense.max()), "nan_count": 0},
        {"min": float(holed[finite].min()), "max": float(holed[finite].max()), "nan_count": 3},
        {"min": 0.0, "max": 0.0, "nan_count": 15},
        {"min": -2.5, "max": -2.5, "nan_count": 0},
    ]
    # the all-NaN and the constant tile both render black
    assert not np.frombuffer(blob[len(header):], dtype=">u2")[-30:].any()


def test_write_pgm_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(2, 3, 5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, stack)
    write_pgm(p2, stack)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_grid_round_trips_exact_values(tmp_path):
    rng = np.random.default_rng(7)
    grid = rng.normal(size=(4, 6)) * 1e-7
    path = tmp_path / "grid.csv"
    write_csv_grid(path, grid)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_array_equal(back, grid)


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-309, 1e308, 0.1, -1.0]


@pytest.mark.parametrize("grid", [
    np.random.default_rng(9).normal(size=(5, 7)) * 1e-7,
    np.array(_SPECIAL[:8]).reshape(2, 4),
    np.array([_SPECIAL]),                 # 1 x N
    np.array([_SPECIAL]).T,               # N x 1
    np.array(_SPECIAL),                   # 1-D: one value per line
    np.where(np.random.default_rng(10).random((32, 32)) < 0.93, np.nan,
             np.random.default_rng(11).normal(size=(32, 32))),
    np.array([[7]]),                      # integers are written as floats
], ids=["dense", "special", "row", "column", "1-d", "mostly-nan", "int"])
def test_csv_grid_is_byte_identical_to_savetxt(tmp_path, grid):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_csv_grid(ours, grid)
    np.savetxt(theirs, np.asarray(grid, dtype=float), fmt="%.17g", delimiter=",")
    assert ours.read_bytes() == theirs.read_bytes()


def _rewrite(path, dims=None, block=None):
    """A written transport rewritten with header ``dims`` and no payload, or another ``block``."""
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN))
    head, old = _split_trailer(path)
    if dims is not None:
        head = MAGIC + struct.pack("<7I", *dims) + head[PREFIX - 1:PREFIX]
    path.write_bytes(head + (old if block is None else block))
    return read_pltt(path)


@pytest.mark.parametrize("build, error, message", [
    (lambda path: write_pltt(path, np.zeros((2, 2))), TypeError, "cannot serialize"),
    (lambda path: _rewrite(path, block=b"[1]"), ValueError,
     "PLTT metadata must be a JSON object"),
    (lambda path: _rewrite(path, dims=(1, 1, 1, 1, 4, 4, 0)), ValueError,
     re.escape("PLTT header dims (1, 1, 1, 1, 4, 4, 0) hold no payload")),
    (lambda path: write_pgm(path, np.zeros((2, 2))), ValueError,
     re.escape("PGM export needs an (n, h, w) stack, got (2, 2)")),
    (lambda path: write_pgm(path, np.zeros((1, 2, 2, 2))), ValueError,
     re.escape("PGM export needs an (n, h, w) stack, got (1, 2, 2, 2)")),
    (lambda path: write_csv_grid(path, np.zeros((2, 2, 2))), ValueError,
     "Expected 1D or 2D array, got 3D array instead"),
], ids=["write another type", "metadata not an object", "no payload", "2-D pgm", "4-D pgm",
        "3-D csv"])
def test_writer_and_reader_errors(tmp_path, build, error, message):
    with pytest.raises(error, match=message):
        build(tmp_path / "out")


def sparse_truth(coaxial, seed=0):
    """A 2x2 sparse transport of 3 bins: three lit pairs, one of them a run of two."""
    rng = np.random.default_rng(seed)
    index = [[0, 0], [2, 0], [3, 0]] if coaxial else [[0, 1], [0, 2], [3, 0]]
    return SparseTransport(rng.normal(size=(3, 4, 4, 3)), index, (2, 2), (2, 2), BIN,
                           channel_id="red", coaxial=coaxial, provenance="sparse test")


@pytest.mark.parametrize("coaxial", [False, True], ids=["projector-camera", "coaxial"])
def test_a_sparse_truth_round_trips_through_its_container(tmp_path, coaxial):
    truth = sparse_truth(coaxial)
    path, again = tmp_path / "t.pltt", tmp_path / "again.pltt"
    write_pltt(path, truth)
    write_pltt(again, truth)
    blob = path.read_bytes()
    assert blob == again.read_bytes()
    # the flag byte's bit 7, then the pair count and the (s, s') pairs as u32
    assert blob[PREFIX - 1] == 0x80 | coaxial
    assert blob[PREFIX:PREFIX + 8 + 24] == struct.pack("<Q", 3) + truth.index.astype(
        "<u4").tobytes()
    assert blob[PREFIX + 32:PREFIX + 32 + truth.blocks.nbytes] == truth.blocks.tobytes()
    back = read_pltt(path)
    assert isinstance(back, TransportTensor)
    assert back.data.tobytes() == truth.data.tobytes()
    assert (back.channel_id, back.provenance, back.coaxial) == ("red", "sparse test", coaxial)
    with PlttReader(path) as src:
        assert src.index.tobytes() == truth.index.tobytes()


def test_a_dense_container_keeps_its_v1_bytes(tmp_path):
    data = np.random.default_rng(3).normal(size=(2, 2, 4, 4, 1))
    write_pltt(tmp_path / "t.pltt", TransportTensor(data, (1, 2), (1, 2), BIN, provenance="v1"))
    meta = b'{"channel_id": "mono", "kind": "transport", "provenance": "v1", ' \
           b'"time_bin_width": 2e-11}'
    assert (tmp_path / "t.pltt").read_bytes() == (
        MAGIC + struct.pack("<7I", 2, 1, 2, 1, 4, 4, 1) + b"\x00" + data.tobytes() + meta)


def _sparse_file(tmp_path, edit):
    """A sparse truth's container, its bytes passed through ``edit``."""
    path = tmp_path / "t.pltt"
    write_pltt(path, sparse_truth(False))
    path.write_bytes(edit(bytearray(path.read_bytes())))
    return path


def _unordered(blob):
    blob[PREFIX + 8:PREFIX + 24] = blob[PREFIX + 16:PREFIX + 24] + blob[PREFIX + 8:PREFIX + 16]
    return blob


def _as_measurement(blob):
    end = blob.rindex(b'{"channel_id"')
    return blob[:end] + json.dumps({"kind": "measurement"}).encode()


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob[:PREFIX + 4], "PLTT sparse index is truncated: the file has 49 bytes"),
    (lambda blob: blob[:PREFIX] + struct.pack("<Q", 1 << 40) + blob[PREFIX + 8:],
     "PLTT sparse index is truncated: the file has"),
    (lambda blob: blob[:PREFIX + 32 + 100], "PLTT payload is truncated"),
    (_unordered, "a sparse transport index must hold distinct (s, s') pairs of its 4 camera "
                 "and 4 projector pixels in increasing order"),
    (_as_measurement, "a sparse PLTT payload must hold a transport, not a measurement"),
], ids=["count-cut", "count-beyond-the-file", "payload-cut", "unordered", "measurement"])
def test_a_malformed_sparse_container_exits_two(tmp_path, capsys, edit, message):
    path = _sparse_file(tmp_path, edit)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        read_pltt(path)
    assert main(["capture", "--tensor", str(path), "--out", str(tmp_path / "m.pltt")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


@pytest.mark.parametrize("blocks, index, message", [
    (np.zeros((2, 4, 4)), [[0, 0], [1, 0]],
     "transport blocks must have shape (n, 4, 4, n_bins), got (2, 4, 4)"),
    (np.zeros((2, 4, 4, 1)), [[0, 0]], "a sparse transport index of 1 pairs cannot place 2 blocks"),
    (np.zeros((1, 4, 4, 1)), [[0.0, 0.0]], "a sparse transport index must hold distinct"),
    (np.zeros((1, 4, 4, 1)), [[0, 4]], "a sparse transport index must hold distinct"),
    (np.zeros((2, 4, 4, 1)), [[1, 1], [1, 1]], "a sparse transport index must hold distinct"),
], ids=["block-shape", "count", "float-index", "out-of-range", "repeated"])
def test_a_sparse_transport_checks_its_blocks_and_index(blocks, index, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SparseTransport(blocks, index, (2, 2), (2, 2), BIN)
