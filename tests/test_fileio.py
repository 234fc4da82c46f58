import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pltt.fileio
from pltt.cli import main
from pltt.ellipsometry import AngleSchedule, MeasurementSet, drr_schedule, schedule_to_dict
from pltt.fileio import (
    MAGIC,
    read_pltt,
    write_csv_grid,
    write_pgm,
    write_pltt,
)
from pltt.tensor import DetectedTensor, IlluminationTensor, TransportTensor

BIN = 2e-11


def test_transport_round_trip_dense(tmp_path):
    rng = np.random.default_rng(0)
    tensor = TransportTensor(rng.normal(size=(6, 2, 4, 4, 3)), (2, 3), (1, 2), BIN,
                             channel_id="red")
    path = tmp_path / "t.pltt"
    write_pltt(path, tensor, provenance="unit test")
    back = read_pltt(path)
    assert isinstance(back, TransportTensor)
    np.testing.assert_array_equal(back.data, tensor.data)
    assert back.cam_shape == (2, 3)
    assert back.proj_shape == (1, 2)
    assert back.time_bin_width == BIN
    assert back.channel_id == "red"
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


def test_illumination_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    steady = IlluminationTensor(rng.normal(size=(6, 4)), (2, 3))
    path = tmp_path / "i.pltt"
    write_pltt(path, steady)
    back = read_pltt(path)
    assert isinstance(back, IlluminationTensor)
    assert not back.has_time
    np.testing.assert_array_equal(back.data, steady.data)

    timed = IlluminationTensor(rng.normal(size=(6, 4, 7)), (2, 3), time_bin_width=BIN)
    write_pltt(path, timed)
    back = read_pltt(path)
    assert back.has_time
    assert back.time_bin_width == BIN
    np.testing.assert_array_equal(back.data, timed.data)


def test_detected_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    det = DetectedTensor(rng.normal(size=(4, 4, 3)), (2, 2), BIN)
    path = tmp_path / "d.pltt"
    write_pltt(path, det)
    back = read_pltt(path)
    assert isinstance(back, DetectedTensor)
    np.testing.assert_array_equal(back.data, det.data)


def test_measurement_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    schedule = drr_schedule(5)
    meas = MeasurementSet(
        intensities=rng.normal(size=(5, 4, 1, 2)),
        schedule=schedule,
        geometry_mode="coaxial",
        cam_shape=(2, 2),
        proj_shape=(2, 2),
        time_bin_width=BIN,
        noise_sigma=1e-4,
        seed=99,
        provenance="capture test",
    )
    path = tmp_path / "m.pltt"
    write_pltt(path, meas, provenance="capture test")
    back = read_pltt(path)
    assert isinstance(back, MeasurementSet)
    np.testing.assert_array_equal(back.intensities, meas.intensities)
    np.testing.assert_allclose(back.schedule.theta2, schedule.theta2, atol=1e-15)
    assert back.schedule.sensor_mode == "intensity"
    assert back.geometry_mode == "coaxial"
    assert back.noise_sigma == 1e-4
    assert back.seed == 99


def test_writes_are_byte_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    tensor = TransportTensor(rng.normal(size=(2, 2, 4, 4, 2)), (1, 2), (1, 2), BIN)
    p1, p2 = tmp_path / "a.pltt", tmp_path / "b.pltt"
    write_pltt(p1, tensor, provenance="same")
    write_pltt(p2, tensor, provenance="same")
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
    steady = IlluminationTensor(rng.normal(size=(4, 4)), (2, 2))
    detected = DetectedTensor(rng.normal(size=(4, 4, 2)), (2, 2), BIN)
    meas = MeasurementSet(rng.normal(size=(8, 2, 1, 4)), drr_schedule(8), "projector_camera",
                          (1, 2), (1, 1), BIN)
    # each rewrite keeps the payload length, so only the slot checks can catch it
    cases = [
        ("transport", transport, {"dim_p": 2, "dim_q": 8}, "dim_p is 2, must be 4"),
        ("illumination", steady, {"cam_w": 2, "proj_w": 2, "proj_h": 1},
         "cam_w is 2, must be 1"),
        ("illumination", steady, {"proj_w": 1, "proj_h": 1, "n_bins": 4},
         "n_bins is 4, must be 1"),
        ("detected", detected, {"cam_h": 1, "proj_w": 2}, "proj_w is 2, must be 1"),
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
    """A random object of one of the four kinds (coaxial where it has a geometry)."""
    kind = draw(st.sampled_from(("transport", "illumination", "detected", "measurement")))
    cam = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    coaxial = kind in ("transport", "measurement") and draw(st.booleans())
    proj = cam if coaxial else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    s_cam, s_proj = cam[0] * cam[1], 1 if coaxial else proj[0] * proj[1]
    n_bins = draw(st.integers(1, 3))
    width = draw(st.floats(1e-15, 1.0))
    if kind == "transport":
        noise_std = draw(st.none() | arrays(np.float64, (4, 4), elements=st.floats(0.0, 1e300)))
        return TransportTensor(draw(_values((s_cam, s_proj, 4, 4, n_bins))), cam, proj, width,
                               channel_id=draw(st.text(max_size=8)), coaxial=coaxial,
                               noise_std=noise_std)
    if kind == "illumination":
        if draw(st.booleans()):
            return IlluminationTensor(draw(_values((s_proj, 4, n_bins))), proj, width)
        return IlluminationTensor(draw(_values((s_proj, 4))), proj)
    if kind == "detected":
        return DetectedTensor(draw(_values((s_cam, 4, n_bins))), cam, width)
    k = draw(st.integers(1, 4))
    # AngleSchedule takes angles up to about 3e306 radians, where degrees overflow
    angles = [draw(arrays(np.float64, k, elements=st.floats(-1e300, 1e300)))
              for _ in range(4)]
    schedule = AngleSchedule(*angles, sensor_mode=draw(
        st.sampled_from(("intensity", "polarizer_array"))),
        fixed=tuple(draw(st.booleans()) for _ in range(4)))
    return MeasurementSet(
        draw(_values((schedule.n_rows, s_cam, s_proj, n_bins), finite=False)), schedule,
        "coaxial" if coaxial else "projector_camera", cam, proj, width,
        noise_sigma=draw(st.floats(0.0, 1.0)), seed=draw(st.none() | st.integers(0, 2**63)),
        split=draw(st.floats(0.0, 1.0)))


_FIELDS = {
    TransportTensor: ("cam_shape", "proj_shape", "time_bin_width", "channel_id", "coaxial"),
    IlluminationTensor: ("proj_shape", "time_bin_width", "has_time"),
    DetectedTensor: ("cam_shape", "time_bin_width"),
    MeasurementSet: ("geometry_mode", "cam_shape", "proj_shape", "time_bin_width",
                     "noise_sigma", "seed", "split", "provenance"),
}


@settings(max_examples=150, deadline=None)
@given(obj=containers(), provenance=st.text(max_size=12))
def test_container_round_trip_property(tmp_path_factory, obj, provenance):
    tmp = tmp_path_factory.mktemp("round_trip")
    first, second = tmp / "first.pltt", tmp / "second.pltt"
    if isinstance(obj, MeasurementSet):
        obj = dataclasses.replace(obj, provenance=provenance)
    write_pltt(first, obj, provenance=provenance)
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
    assert json.loads(tail)["provenance"] == provenance
    write_pltt(second, back, provenance=provenance)
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
    with pytest.raises(ValueError, match="'noise_std' must be a list of 16 finite numbers"):
        read_pltt(path)
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "noise_std" in err


def test_short_payload_read_is_a_value_error(tmp_path, monkeypatch):
    class ShortReads:
        """A file whose reads stop halfway through the payload, as if it shrank."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def readinto(self, buf):
            view = memoryview(buf).cast("B")
            return self.fh.readinto(view[:len(view) // 2])

    path = tmp_path / "t.pltt"
    write_pltt(path, TransportTensor(np.ones((1, 1, 4, 4, 2)), (1, 1), (1, 1), BIN))
    monkeypatch.setattr(pltt.fileio, "open", lambda p, mode: ShortReads(open(p, mode)),
                        raising=False)
    with pytest.raises(ValueError, match="payload is truncated: read 128 of 256 bytes"):
        read_pltt(path)


def test_write_pgm_format_and_sidecar(tmp_path):
    image = np.array([[0.0, 1.0], [2.0, np.nan]])
    path = tmp_path / "img.pgm"
    info = write_pgm(path, image, bit_depth=16)
    blob = path.read_bytes()
    assert blob.startswith(b"P5")
    assert b"65535" in blob.split(b"\n")[0:3][-1] or b"65535" in blob
    assert info["min"] == 0.0
    assert info["max"] == 2.0
    assert info["nan_count"] == 1
    # 2x2 16-bit payload = 8 bytes after the header
    header_end = blob.index(b"65535\n") + len(b"65535\n")
    pixels = np.frombuffer(blob[header_end:], dtype=">u2").reshape(2, 2)
    assert pixels[0, 0] == 0
    assert pixels[1, 0] == 65535
    assert pixels[0, 1] == 32767 or pixels[0, 1] == 32768
    assert pixels[1, 1] == 0   # NaN renders as black


def test_write_pgm_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    image = rng.normal(size=(3, 5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, image)
    write_pgm(p2, image)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_grid_round_trips_exact_values(tmp_path):
    rng = np.random.default_rng(7)
    grid = rng.normal(size=(4, 6)) * 1e-7
    path = tmp_path / "grid.csv"
    write_csv_grid(path, grid)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_array_equal(back, grid)
