import csv
import functools
import json
import os
import re
import struct
import tempfile
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltt.analysis import summed_polarimetric_image
from pltt.cli import main, slice_images
from pltt.ellipsometry import capture, drr_schedule, reconstruct, save_schedule, schedule_to_dict
from pltt.fileio import read_pltt, write_pltt
from pltt.polarization import ideal_mirror, linear_polarizer
from pltt.tensor import TransportTensor, epipolar_masks, fold

def mirror_scene(depth=0.15):
    return {
        "geometry_mode": "coaxial",
        "surfaces": [
            {"patch": [0, 2, 0, 2], "depth_m": depth,
             "material": {"kind": "ideal_mirror"}},
        ],
    }


def dense_scene(depth=0.15):
    return {
        "geometry_mode": "projector_camera",
        "surfaces": [
            {"patch": [0, 2, 0, 2], "depth_m": depth,
             "material": {"kind": "fresnel_dielectric", "eta": 1.5,
                          "incidence_deg": 35.0}},
        ],
    }


MIRROR_SCENE = mirror_scene()
DENSE_SCENE = dense_scene()


def write_scene(tmp_path, scene, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scene))
    return str(path)


def simulate(tmp_path, scene, out_name="tensor.pltt", bins=16):
    out = str(tmp_path / out_name)
    rc = main([
        "simulate", "--scene", write_scene(tmp_path, scene),
        "--resolution", "2x2", "--bins", str(bins), "--bin-width", "1e-10",
        "--out", out,
    ])
    assert rc == 0
    return out


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_code():
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--bogus"])
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pltt" in capsys.readouterr().out


def test_simulate_places_the_mirror_echo(tmp_path):
    out = simulate(tmp_path, MIRROR_SCENE)
    tensor = read_pltt(out)
    assert tensor.coaxial
    # round trip 0.3 m at 1e-10 s/bin -> bin 10
    np.testing.assert_array_equal(tensor.data[0, 0, :, :, 10], ideal_mirror())
    zeroed = tensor.data.copy()
    zeroed[:, :, :, :, 10] = 0.0
    assert np.all(zeroed == 0.0)
    manifest = json.loads((tmp_path / "tensor.pltt.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == [out]
    assert len(manifest["config_hash"]) == 64
    assert manifest["duration_s"] >= 0


def test_simulate_output_is_byte_deterministic(tmp_path):
    first = simulate(tmp_path, MIRROR_SCENE, "a.pltt")
    second = simulate(tmp_path, MIRROR_SCENE, "b.pltt")
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_simulate_reports_the_offending_scene_field(tmp_path, capsys):
    bad = {"surfaces": []}
    rc = main([
        "simulate", "--scene", write_scene(tmp_path, bad),
        "--resolution", "2x2", "--bins", "4", "--bin-width", "1e-10",
        "--out", str(tmp_path / "x.pltt"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "geometry_mode" in err


def fuzz_scene():
    # every scene part once, placed so that 2x2 pixels and 4 bins of 1 ns hold it
    return {
        "geometry_mode": "projector_camera",
        "surfaces": [
            {"patch": [0, 1, 0, 2], "depth_m": 0.15,
             "material": {"kind": "diffuse_depolarizer", "albedo": 0.5, "residual_dop": 0.3}},
            {"patch": [1, 2, 0, 1], "depth_m": 0.3,
             "material": {"kind": "fresnel_dielectric", "eta": 1.5, "incidence_deg": 35.0}},
        ],
        "chains": [
            {"materials": [{"kind": "retarder_plate", "retardance_deg": 90.0, "axis_deg": 30.0},
                           {"kind": "custom", "matrix": (0.5 * np.eye(4)).tolist()}],
             "path_length_m": 0.45, "camera_patch": [0, 2, 1, 2],
             "projector_patch": [0, 1, 0, 1]},
        ],
        "scatter_volume": {"backscatter": {"kind": "ideal_mirror"}, "strength": 0.2,
                           "depth_m": 0.05},
    }


def run_simulate(tmp_dir, scene):
    path = os.path.join(tmp_dir, "scene.json")
    with open(path, "w") as fh:
        json.dump(scene, fh)
    return main(["simulate", "--scene", path, "--resolution", "2x2", "--bins", "4",
                 "--bin-width", "1e-9", "--out", os.path.join(tmp_dir, "t.pltt")])


def test_fuzz_scene_simulates(tmp_path):
    assert run_simulate(str(tmp_path), fuzz_scene()) == 0


@pytest.mark.parametrize("edit, field", [
    (lambda s: s.update(surfaces={"patch": [0, 1, 0, 1]}), "surfaces"),
    (lambda s: s["surfaces"].append("mirror"), "surfaces"),
    (lambda s: s.update(chains={}), "chains"),
    (lambda s: s.update(scatter_volume=[0.2]), "scatter_volume"),
    (lambda s: s["scatter_volume"].update(strength="0.2"), "strength"),
    (lambda s: s["scatter_volume"].update(strength=None), "strength"),
    (lambda s: s["surfaces"][0]["material"].update(albedo="0.5"), "albedo"),
    (lambda s: s["surfaces"][1]["material"].update(eta=None), "eta"),
    (lambda s: s["surfaces"][1]["material"].update(incidence_deg=True), "incidence_deg"),
    (lambda s: s["chains"][0]["materials"][0].update(axis_deg=float("inf")), "axis_deg"),
    (lambda s: s["chains"][0]["materials"][1]["matrix"][2].__setitem__(1, None), "matrix"),
    (lambda s: s["surfaces"][0].update(depth_m=float("nan")), "depth_m"),
    (lambda s: s["surfaces"][0].update(depth_m=1e308), "surface 0"),
    (lambda s: s["chains"][0].update(path_length_m=10 ** 400), "path_length_m"),
    (lambda s: s["surfaces"][0].update(patch=[0, True, 0, 1]), "patch"),
], ids=["surfaces-object", "surfaces-string", "chains-object", "scatter-list",
        "strength-string", "strength-null", "albedo-string", "eta-null", "incidence-bool",
        "axis-inf", "matrix-null", "depth-nan", "depth-beyond-bins", "length-huge-int",
        "patch-bool"])
def test_malformed_scene_exits_two_naming_the_field(tmp_path, capsys, edit, field):
    scene = fuzz_scene()
    edit(scene)
    assert run_simulate(str(tmp_path), scene) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert field in err


def json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_scene_exits_zero_or_two(data):
    scene = fuzz_scene()
    path = data.draw(st.sampled_from(list(json_paths(scene))), label="path")
    value = data.draw(JSON_VALUES, label="value")
    if path:
        parent = scene
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        scene = value
    with tempfile.TemporaryDirectory() as tmp:
        assert run_simulate(tmp, scene) in (0, 2)


def test_simulate_rejects_malformed_resolution(tmp_path, capsys):
    rc = main([
        "simulate", "--scene", write_scene(tmp_path, MIRROR_SCENE),
        "--resolution", "2by2", "--bins", "4", "--bin-width", "1e-10",
        "--out", str(tmp_path / "x.pltt"),
    ])
    assert rc == 2
    assert "HxW" in capsys.readouterr().err


def test_capture_reconstruct_round_trip(tmp_path, capsys):
    tensor_path = simulate(tmp_path, MIRROR_SCENE)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--noise", "0",
                 "--out", meas_path]) == 0
    recon_path = str(tmp_path / "recon.pltt")
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", recon_path]) == 0
    out = capsys.readouterr().out
    assert "rank=16" in out
    assert "UNDERDETERMINED" not in out
    original = read_pltt(tensor_path)
    recovered = read_pltt(recon_path)
    assert np.abs(recovered.data - original.data).max() < 1e-9
    with open(tmp_path / "recon_diagnostics.csv", newline="") as fh:
        diag = list(csv.reader(fh))
    assert diag[0] == ["bin", "records", "p50", "p99", "max"]
    assert [row[:2] for row in diag[1:]] == [[str(t), "4"] for t in range(16)]
    assert np.load(tmp_path / "recon_residual_norms.npy").shape == (4, 1, 16)


def test_diagnostics_csv_matches_the_csv_writer_rows(tmp_path):
    tensor_path = simulate(tmp_path, dense_scene(0.02), bins=3)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "20", "--noise", "1e-3",
                 "--seed", "4", "--out", meas_path]) == 0
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", str(tmp_path / "recon.pltt")]) == 0
    res = reconstruct(read_pltt(meas_path)).residual_norms
    assert res.shape == (4, 4, 3) and np.all(res > 0)
    stored = np.load(tmp_path / "recon_residual_norms.npy")
    assert stored.dtype == np.float64 and stored.shape == res.shape
    assert stored.tobytes() == res.tobytes()
    # each bin's row, as the csv.writer loop writes it from the bin's 16 norms
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "records", "p50", "p99", "max"])
        for t in range(res.shape[2]):
            norms = res[:, :, t].ravel()
            writer.writerow([t, norms.size] + ["%.17g" % v for v in (
                np.percentile(norms, 50), np.percentile(norms, 99), norms.max())])
    assert (tmp_path / "recon_diagnostics.csv").read_bytes() == oracle.read_bytes()


def test_reconstruct_manifest_reports_the_design_and_residual_health(tmp_path, capsys):
    tensor_path = simulate(tmp_path, dense_scene(0.02), bins=3)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "20", "--noise", "1e-3",
                 "--seed", "4", "--out", meas_path]) == 0
    recon_path = str(tmp_path / "recon.pltt")
    assert main(["reconstruct", "--measurements", meas_path, "--out", recon_path]) == 0
    result = reconstruct(read_pltt(meas_path))
    norms = result.residual_norms
    health = json.loads((tmp_path / "recon.pltt.manifest.json").read_text())["health"]
    assert health == {"rank": result.rank, "cond": result.cond, "sigma_hat": result.sigma_hat,
                      "p50": np.percentile(norms, 50), "p99": np.percentile(norms, 99),
                      "max": norms.max()}
    assert health["rank"] == 16 and 0 < health["p50"] <= health["p99"] <= health["max"]
    assert "max_residual=%.3e" % norms.max() in capsys.readouterr().out
    # capture's manifest, like every other command's, has no health record
    assert "health" not in json.loads((tmp_path / "meas.pltt.manifest.json").read_text())


def test_a_channel_survives_capture_and_reconstruct(tmp_path):
    data = np.random.default_rng(3).uniform(0.0, 1.0, (4, 1, 4, 4, 2))
    write_pltt(tmp_path / "truth.pltt",
               TransportTensor(data, (2, 2), (2, 2), 1e-10, channel_id="red", coaxial=True))
    meas_path, recon_path = str(tmp_path / "meas.pltt"), str(tmp_path / "recon.pltt")
    assert main(["capture", "--tensor", str(tmp_path / "truth.pltt"), "--out", meas_path]) == 0
    assert main(["reconstruct", "--measurements", meas_path, "--out", recon_path]) == 0
    assert read_pltt(meas_path).channel_id == "red"
    assert read_pltt(recon_path).channel_id == "red"


def test_reconstruct_uses_the_split_stored_with_the_measurements(tmp_path, capsys):
    tensor_path = simulate(tmp_path, MIRROR_SCENE)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--split", "0.3",
                 "--out", meas_path]) == 0
    recon_path = str(tmp_path / "recon.pltt")
    assert main(["reconstruct", "--measurements", meas_path, "--out", recon_path]) == 0
    # the ideal mirror's echo lands in bin 10 with m00 = 1
    np.testing.assert_allclose(read_pltt(recon_path).data[:, 0, :, :, 10],
                               np.broadcast_to(ideal_mirror(), (4, 4, 4)), atol=1e-9)
    capsys.readouterr()
    assert main(["reconstruct", "--measurements", meas_path, "--split", "0.5",
                 "--out", str(tmp_path / "other.pltt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "conflicts" in err


@pytest.mark.parametrize("split", ["0", "1"])
def test_capture_of_a_split_that_sends_no_light_one_way_exits_two(tmp_path, capsys, split):
    tensor_path = simulate(tmp_path, MIRROR_SCENE)
    capsys.readouterr()
    assert main(["capture", "--tensor", tensor_path, "--split", split, "--noise", "1e-3",
                 "--out", str(tmp_path / "meas.pltt")]) == 2
    assert capsys.readouterr().err == "error: design matrix is identically zero\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("meas")) == []


def rewrite_metadata(path, edit):
    # replace the trailing JSON block of a PLTT file by edit(metadata)
    blob = open(path, "rb").read()
    dims = struct.unpack_from("<7I", blob, 16)
    coaxial = blob[44]
    cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins = dims
    s_proj = 1 if coaxial else proj_w * proj_h
    end = 45 + 8 * cam_w * cam_h * s_proj * dim_p * dim_q * n_bins
    meta = edit(json.loads(blob[end:].decode("utf-8")))
    with open(path, "wb") as fh:
        fh.write(blob[:end] + json.dumps(meta).encode("utf-8"))


def test_reconstruct_names_a_missing_metadata_key(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "16", "--out", meas_path]) == 0
    rewrite_metadata(meas_path, lambda meta: {k: v for k, v in meta.items()
                                              if k != "time_bin_width"})
    capsys.readouterr()
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", str(tmp_path / "recon.pltt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "time_bin_width" in err


@pytest.mark.parametrize("field, value", [("time_bin_width", float("inf")),
                                          ("time_bin_width", -1e-10),
                                          ("noise_sigma", float("nan")),
                                          ("noise_sigma", -0.5)])
def test_bad_stored_bin_width_or_noise_sigma_exits_two_naming_it(tmp_path, capsys, field,
                                                                 value):
    # at K' = 16 = rank reconstruct would fall back to the stored noise_sigma
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "16", "--out", meas_path]) == 0
    rewrite_metadata(meas_path, lambda meta: dict(meta, **{field: value}))
    capsys.readouterr()
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", str(tmp_path / "recon.pltt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert field in err
    assert not (tmp_path / "recon.pltt").exists()


@pytest.mark.parametrize("scene, edited", [(DENSE_SCENE, "coaxial"),
                                           (MIRROR_SCENE, "projector_camera")])
def test_geometry_mode_disagreeing_with_the_header_exits_two(tmp_path, capsys, scene, edited):
    # at 1x1 both geometries store one projector pixel, so only the flag tells them apart
    scene = dict(scene, surfaces=[dict(scene["surfaces"][0], patch=[0, 1, 0, 1])])
    tensor_path = str(tmp_path / "t.pltt")
    assert main(["simulate", "--scene", write_scene(tmp_path, scene), "--resolution", "1x1",
                 "--bins", "16", "--bin-width", "1e-10", "--out", tensor_path]) == 0
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--out", meas_path]) == 0
    rewrite_metadata(meas_path, lambda meta: dict(meta, geometry_mode=edited))
    capsys.readouterr()
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", str(tmp_path / "recon.pltt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "geometry_mode" in err and "coaxial flag" in err
    assert not (tmp_path / "recon.pltt").exists()


def test_measurements_without_a_stored_split_read_as_one_half(tmp_path):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    # reconstruct names its input in the provenance, so both inputs are meas.pltt
    old, new = tmp_path / "old", tmp_path / "new"
    for out in (old, new):
        out.mkdir()
        assert main(["capture", "--tensor", tensor_path, "--k", "16",
                     "--out", str(out / "meas.pltt")]) == 0
    rewrite_metadata(str(old / "meas.pltt"),
                     lambda meta: {k: v for k, v in meta.items() if k != "split"})
    assert read_pltt(old / "meas.pltt").split == 0.5
    for out in (old, new):
        assert main(["reconstruct", "--measurements", str(out / "meas.pltt"),
                     "--out", str(out / "recon.pltt")]) == 0
    assert (old / "recon.pltt").read_bytes() == (new / "recon.pltt").read_bytes()


@functools.lru_cache(maxsize=None)
def small_measurement_blob():
    with tempfile.TemporaryDirectory() as tmp:
        tensor = TransportTensor(np.broadcast_to(ideal_mirror()[None, None, :, :, None],
                                                 (2, 1, 4, 4, 2)).copy(),
                                 (1, 2), (1, 2), 1e-10, coaxial=True)
        meas = capture(tensor, drr_schedule(16), noise_sigma=1e-3, seed=3, split=0.4)
        path = os.path.join(tmp, "meas.pltt")
        write_pltt(path, replace(meas, provenance="fuzz"))
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_measurement_container_exits_zero_or_two(data):
    blob = small_measurement_blob()
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="position")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "meas.pltt")
        with open(path, "wb") as fh:
            fh.write(damaged)
        assert main(["reconstruct", "--measurements", path,
                     "--out", os.path.join(tmp, "recon.pltt")]) in (0, 2)


def test_overflowing_measurements_exit_two_without_numeric_warnings(tmp_path, capsys):
    # a flipped exponent byte leaves one finite intensity near 2e307, and the
    # solve and its residuals overflow
    blob = bytearray(small_measurement_blob())
    blob[268] ^= 64
    path = tmp_path / "meas.pltt"
    path.write_bytes(bytes(blob))
    intensities = read_pltt(path).intensities
    assert np.isfinite(intensities).all() and np.abs(intensities).max() > 1e307
    assert main(["reconstruct", "--measurements", str(path),
                 "--out", str(tmp_path / "recon.pltt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the measurements are not finite or overflow")
    assert err.count("\n") == 1


def test_reconstruct_warns_when_underdetermined(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    meas_path = str(tmp_path / "meas8.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "8",
                 "--out", meas_path]) == 0
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", str(tmp_path / "r8.pltt")]) == 0
    assert "UNDERDETERMINED" in capsys.readouterr().out


def test_reconstruct_rejects_a_transport_tensor(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    rc = main(["reconstruct", "--measurements", tensor_path,
               "--out", str(tmp_path / "r.pltt")])
    assert rc == 2
    assert "measurement set" in capsys.readouterr().err


def test_capture_mask_needs_a_projector(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    rc = main(["capture", "--tensor", tensor_path, "--mask", "epipolar",
               "--out", str(tmp_path / "m.pltt")])
    assert rc == 2
    assert "coaxial" in capsys.readouterr().err


def test_capture_mode_conflicting_with_schedule_file(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    sched_path = str(tmp_path / "sched.json")
    save_schedule(sched_path, drr_schedule(5))
    rc = main(["capture", "--tensor", tensor_path, "--schedule", sched_path,
               "--mode", "polarizer_array", "--out", str(tmp_path / "m.pltt")])
    assert rc == 2
    assert "conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("edit,field", [
    ({"theta1_deg": ["a"]}, "theta1_deg"),
    ({"theta1_deg": None}, "theta1_deg"),
    ({"theta1_deg": 5.0}, "theta1_deg"),
    ({"theta2_deg": []}, "theta2_deg"),
    ({"theta2_deg": [[0.0]] * 16}, "theta2_deg"),
    ({"theta3_deg": [True] * 16}, "theta3_deg"),
    ({"theta3_deg": [float("nan")] * 16}, "theta3_deg"),
    ({"theta4_deg": [10 ** 400] * 16}, "theta4_deg"),
    ({"theta4_deg": [0.0]}, "capture count"),
    ({"fixed": 5}, "fixed"),
    ({"fixed": None}, "fixed"),
    ({"fixed": [1, 0, 0, 1]}, "fixed"),
    ({"fixed": [True, False]}, "fixed"),
])
def test_malformed_schedule_exits_two(tmp_path, capsys, edit, field):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    schedule = dict(schedule_to_dict(drr_schedule(16)), **edit)
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(schedule))
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "16", "--out", meas_path]) == 0
    rewrite_metadata(meas_path, lambda meta: dict(meta, schedule=schedule))
    capsys.readouterr()
    for argv in (["capture", "--tensor", tensor_path, "--schedule", str(sched_path)],
                 ["reconstruct", "--measurements", meas_path]):
        out = tmp_path / "out.pltt"
        assert main(argv + ["--out", str(out)]) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert field in err
        assert not out.exists()


def test_slice_enumerates_free_polarimetric_indices(tmp_path):
    tensor_path = simulate(tmp_path, DENSE_SCENE, bins=16)
    out_prefix = str(tmp_path / "view")
    assert main(["slice", "--tensor", tensor_path,
                 "--expr", "T(s,s,:,:,t=10)", "--out", out_prefix]) == 0
    tensor = read_pltt(tensor_path)
    diag = tensor.data[np.arange(4), np.arange(4)]
    for p in range(4):
        for q in range(4):
            grid = np.loadtxt(tmp_path / ("view_p%d_q%d.csv" % (p, q)),
                              delimiter=",", ndmin=2)
            np.testing.assert_allclose(grid, diag[:, p, q, 10].reshape(2, 2), atol=0)
    manifest = json.loads((tmp_path / "view.manifest.json").read_text())
    assert len(manifest["outputs"]) == 16 + 2


def test_slice_sum_and_negation(tmp_path):
    tensor_path = simulate(tmp_path, DENSE_SCENE, bins=16)
    out_prefix = str(tmp_path / "neg")
    assert main(["slice", "--tensor", tensor_path,
                 "--expr", "-sum_t T(s,s,3,3,t)", "--out", out_prefix]) == 0
    tensor = read_pltt(tensor_path)
    expected = -tensor.data[np.arange(4), np.arange(4), 3, 3, :].sum(axis=1)
    grid = np.loadtxt(tmp_path / "neg.csv", delimiter=",", ndmin=2)
    np.testing.assert_allclose(grid, expected.reshape(2, 2), atol=0)


def test_slice_probe_views_partition_the_projector_sum(tmp_path):
    tensor_path = simulate(tmp_path, DENSE_SCENE, bins=16)
    for expr, name in [("T(s,s_e,0,0,t=10)", "epi"), ("T(s,s_n,0,0,t=10)", "non")]:
        assert main(["slice", "--tensor", tensor_path, "--expr", expr,
                     "--out", str(tmp_path / name)]) == 0
    epi = np.loadtxt(tmp_path / "epi.csv", delimiter=",", ndmin=2)
    non = np.loadtxt(tmp_path / "non.csv", delimiter=",", ndmin=2)
    tensor = read_pltt(tensor_path)
    total = tensor.data[:, :, 0, 0, 10].sum(axis=1)
    np.testing.assert_allclose(epi + non, total.reshape(2, 2), atol=0)


def test_slice_grammar_errors(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    for expr in ("garbage", "T(s,s,9,0,t)", "sum_t T(s,s,0,0,t=2)"):
        rc = main(["slice", "--tensor", tensor_path, "--expr", expr,
                   "--out", str(tmp_path / "g")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
    with pytest.raises(ValueError, match="expected"):
        slice_images(read_pltt(tensor_path), "T(s,s)")


def test_slice_coaxial_tensor_has_no_projector_index(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    rc = main(["slice", "--tensor", tensor_path, "--expr", "T(s,2,0,0,t=1)",
               "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "coaxial" in capsys.readouterr().err


# The slice parser and evaluator as they were before they became one
# function, kept frozen as the reference that slice_images must match.
_REF_GRAMMAR = (
    "expected [-][sum_t ][sum_p ][sum_pp ]"
    "T(s|<int>, s|s_e|s_n|<int>, <0-3>|:, <0-3>|:, t|t=<int>|:)"
)


@dataclass(frozen=True)
class _RefQuery:
    negate: bool
    sums: frozenset
    cam: object       # "s" or int
    proj: object      # "s", "s_e", "s_n", or int
    p: object         # int or None (enumerate)
    q: object
    t: object         # "keep" or int


def _ref_int_slot(token, name):
    try:
        return int(token)
    except ValueError:
        raise ValueError("bad %s slot %r; %s" % (name, token, _REF_GRAMMAR))


def _ref_pol_slot(token, name):
    if token == ":":
        return None
    value = _ref_int_slot(token, name)
    if not 0 <= value <= 3:
        raise ValueError("%s index %d outside 0..3" % (name, value))
    return value


def _ref_parse(expr):
    text = expr.strip()
    negate = text.startswith("-")
    if negate:
        text = text[1:].lstrip()
    sums = set()
    while text.startswith("sum_"):
        m = re.match(r"sum_([a-z']+)\s+", text)
        if not m or m.group(1) not in ("t", "p", "pp"):
            raise ValueError("bad sum prefix in %r; %s" % (expr, _REF_GRAMMAR))
        sums.add(m.group(1))
        text = text[m.end():]
    m = re.fullmatch(
        r"T\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*,"
        r"\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)",
        text,
    )
    if not m:
        raise ValueError("cannot parse %r; %s" % (expr, _REF_GRAMMAR))
    cam_tok, proj_tok, p_tok, q_tok, t_tok = m.groups()

    cam = cam_tok if cam_tok == "s" else _ref_int_slot(cam_tok, "camera")
    proj = proj_tok if proj_tok in ("s", "s_e", "s_n") else _ref_int_slot(proj_tok, "projector")
    p = _ref_pol_slot(p_tok, "p")
    q = _ref_pol_slot(q_tok, "p'")

    if t_tok in ("t", ":"):
        t = "keep"
    else:
        tm = re.fullmatch(r"t=(-?\d+)", t_tok)
        if not tm:
            raise ValueError("bad time slot %r; %s" % (t_tok, _REF_GRAMMAR))
        t = int(tm.group(1))

    if "t" in sums and t != "keep":
        raise ValueError("sum_t conflicts with a fixed time bin")
    if "p" in sums and p is not None:
        raise ValueError("sum_p conflicts with a fixed p index")
    if "pp" in sums and q is not None:
        raise ValueError("sum_pp conflicts with a fixed p' index")
    return _RefQuery(
        negate=negate, sums=frozenset(sums), cam=cam, proj=proj, p=p, q=q, t=t
    )


def _ref_evaluate(tensor, query):
    data = tensor.data
    n_cam = data.shape[0]

    if query.proj == "s":
        if tensor.coaxial:
            block = data[:, 0]
        else:
            if data.shape[1] != n_cam:
                raise ValueError(
                    "diagonal slice needs matching camera and projector sizes"
                )
            block = data[np.arange(n_cam), np.arange(n_cam)]
    elif query.proj in ("s_e", "s_n"):
        epi, non_epi = epipolar_masks(tensor.cam_shape, tensor.proj_shape)
        block = fold(tensor, epi if query.proj == "s_e" else non_epi).data[:, 0]
    else:
        if tensor.coaxial:
            raise ValueError(
                "a coaxial tensor has no projector axis to index; use 's'"
            )
        if not 0 <= query.proj < data.shape[1]:
            raise ValueError(
                "projector index %d outside 0..%d" % (query.proj, data.shape[1] - 1)
            )
        block = data[:, query.proj]

    shape = tensor.cam_shape
    if query.cam != "s":
        if not 0 <= query.cam < n_cam:
            raise ValueError("camera index %d outside 0..%d" % (query.cam, n_cam - 1))
        block = block[query.cam : query.cam + 1]
        shape = (1, 1)

    labels = []
    fixed_t = None if query.t == "keep" else query.t
    for axis, index, name, label in ((1, query.p, "p", "_p%d"), (2, query.q, "pp", "_q%d"),
                                     (3, fixed_t, "t", "_t%d")):
        if index is not None:
            if not 0 <= index < block.shape[axis]:
                raise ValueError("time bin %d outside 0..%d" % (index, block.shape[axis] - 1))
            block = np.take(block, [index], axis=axis)
        elif name in query.sums:
            block = block.sum(axis=axis, keepdims=True)
        labels.append(label if index is None and name not in query.sums else "")

    sign = -1.0 if query.negate else 1.0
    images = []
    for idx in np.ndindex(block.shape[1:]):
        suffix = "".join(label % i for label, i in zip(labels, idx) if label)
        images.append((suffix, sign * block[(slice(None),) + idx].reshape(shape)))
    return images


def _random_tensor(seed, cam_shape, proj_shape, coaxial=False, n_bins=4):
    n_proj = 1 if coaxial else proj_shape[0] * proj_shape[1]
    data = np.random.default_rng(seed).normal(
        size=(cam_shape[0] * cam_shape[1], n_proj, 4, 4, n_bins))
    return TransportTensor(data, cam_shape, proj_shape, 1e-10, coaxial=coaxial)


SLICE_TENSORS = {
    "projector_camera": _random_tensor(1, (2, 2), (2, 2)),
    "coaxial": _random_tensor(2, (2, 2), (2, 2), coaxial=True),
    "non_square": _random_tensor(3, (1, 2), (2, 2)),
}
# tokens for each part of an expression: well-formed ones, repeated so
# that well-formed expressions are common, then a doubled sign,
# unknown or unspaced sums, and bad, negative and out-of-range slots
SLICE_SIGNS = ("", "-", " - ") * 3 + ("--",)
SLICE_SUMS = ("sum_t ", "sum_p ", "sum_pp ", "sum_p\t") * 3 + ("sum_x ", "sum_tT(")
SLICE_SLOTS = (
    ("s", "0", "1", "3") * 4 + ("-1", "4", "x"),
    ("s", "s_e", "s_n", "0", "3") * 4 + ("-1", "4", "5", "s_x"),
    (":", ":", "0", "3") * 4 + ("-1", "4", "t"),
    (":", ":", "1", "2") * 4 + ("-2", "9", "x"),
    ("t", ":", "t=0", "t=3") * 4 + ("t=-1", "t=4", "t=x", "2"),
)


@settings(max_examples=1000, deadline=None)
@given(name=st.sampled_from(sorted(SLICE_TENSORS)), sign=st.sampled_from(SLICE_SIGNS),
       sums=st.lists(st.sampled_from(SLICE_SUMS), max_size=2),
       slots=st.tuples(*(st.sampled_from(pool) for pool in SLICE_SLOTS)),
       n_slots=st.sampled_from((5,) * 9 + (2,)), comma=st.sampled_from((",", ", ", " ,")))
def test_slice_images_matches_the_frozen_reference(name, sign, sums, slots, n_slots, comma):
    # n_slots 2 gives T(s,s)-like expressions
    tensor = SLICE_TENSORS[name]
    expr = sign + "".join(sums) + "T(" + comma.join(slots[:n_slots]) + ")"
    try:
        expected = _ref_evaluate(tensor, _ref_parse(expr))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            slice_images(tensor, expr)
        assert str(info.value) == str(exc), expr
        return
    got = slice_images(tensor, expr)
    assert [suffix for suffix, _ in got] == [suffix for suffix, _ in expected], expr
    for (_, image), (_, ref) in zip(got, expected):
        assert image.shape == ref.shape and image.dtype == ref.dtype, expr
        assert image.tobytes() == ref.tobytes(), expr


@pytest.mark.parametrize("expr, slot", [
    ("T(+1, s, 0, 0, t=1)", "camera"),
    ("T(1_0, s, 0, 0, t=1)", "camera"),
    ("T(\u0661, s, 0, 0, t=1)", "camera"),
    ("T(s, +0, 0, 0, t)", "projector"),
    ("T(s, \uff10, 0, 0, t)", "projector"),
    ("T(s, s, +1, 0, t)", "p"),
    ("T(s, s, 0, 0_1, t)", "p'"),
    ("T(s, s, 0, 0, t=+1)", "time"),
    ("T(s, s, 0, 0, t=\u0661)", "time"),
    ("T(s, s, 0, 0, t=1_0)", "time"),
])
def test_every_slice_slot_takes_only_ascii_integers(expr, slot):
    # int() alone would read a sign, an underscore or a non-ASCII digit
    with pytest.raises(ValueError, match=r"^bad %s slot " % re.escape(slot)):
        slice_images(SLICE_TENSORS["projector_camera"], expr)


def test_simulate_too_large_to_allocate_exits_three(tmp_path, capsys):
    # 16e6 x 16e6 couplings of 16 doubles is 29 PiB, beyond any address space
    out = tmp_path / "big.pltt"
    assert main(["simulate", "--scene", write_scene(tmp_path, DENSE_SCENE),
                 "--resolution", "4000x4000", "--bins", "1", "--bin-width", "1e-10",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "allocate" in err
    assert not out.exists() and not (tmp_path / "big.pltt.manifest.json").exists()


def write_learn_config(tmp_path, **overrides):
    config = {
        "seed": 3, "n_samples": 40, "k": 6, "iterations": 12,
        "batch_size": 16, "eval_every": 6, "noise_sigma": 1e-3, "n_eval": 20,
    }
    config.update(overrides)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_learn_angles_writes_schedule_report_and_comparison(tmp_path):
    out = str(tmp_path / "learned.json")
    assert main(["learn-angles", "--config", write_learn_config(tmp_path),
                 "--out", out]) == 0
    schedule = json.loads((tmp_path / "learned.json").read_text())
    assert len(schedule["theta2_deg"]) == 6
    report = json.loads((tmp_path / "learned_report.json").read_text())
    assert report["best_heldout_loss"] <= report["init_heldout_loss"]
    assert len(report["training_loss_curve"]) == 12
    rows = (tmp_path / "learned_comparison.csv").read_text().strip().splitlines()
    assert rows[0].startswith("schedule,captures,rows,design_rank,")
    names = [line.split(",")[0] for line in rows[1:]]
    assert names == ["learned", "drr_6_intensity", "drr_36_intensity"]
    manifest = json.loads((tmp_path / "learned.json.manifest.json").read_text())
    assert manifest["seed"] == 3


def test_learn_angles_is_reproducible(tmp_path):
    first = str(tmp_path / "one.json")
    second = str(tmp_path / "two.json")
    config = write_learn_config(tmp_path)
    assert main(["learn-angles", "--config", config, "--out", first]) == 0
    assert main(["learn-angles", "--config", config, "--out", second]) == 0
    assert (tmp_path / "one.json").read_text() == (tmp_path / "two.json").read_text()


def test_learn_angles_rejects_unknown_config_keys(tmp_path, capsys):
    config = write_learn_config(tmp_path, typo_key=1)
    rc = main(["learn-angles", "--config", config, "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"k": "12"}, "K"),
    ({"k": 2.5}, "K"),
    ({"k": True}, "K"),
    ({"iterations": "5"}, "iterations"),
    ({"iterations": -1}, "iterations"),
    ({"batch_size": None}, "batch_size"),
    ({"step_size": [1]}, "step_size"),
    ({"step_size": 0}, "step_size"),
    ({"eval_every": 0}, "eval_every"),
    ({"draws": 0}, "draws"),
    ({"eval_draws": 0}, "eval_draws"),
    ({"noise_sigma": -1}, "noise_sigma"),
    ({"noise_sigma": float("nan")}, "noise_sigma"),
    ({"holdout_fraction": 1.0}, "holdout_fraction"),
    ({"seed": "3"}, "seed"),
    ({"seed": 3.5}, "seed"),
    ({"n_samples": 40.5}, "n_samples"),
    ({"eval_seed": "1"}, "eval_seed"),
    ({"n_eval": 0}, "n_eval"),
    ({"family_weights": 3}, "family weights"),
    ({"family_weights": {"a": 1}}, "family weights"),
    ({"family_weights": [1e308, 1e308, 1e308]}, "family weights"),
])
def test_malformed_training_config_exits_two(tmp_path, capsys, overrides, field):
    config = write_learn_config(tmp_path, **overrides)
    out = tmp_path / "o.json"
    assert main(["learn-angles", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert field in err
    assert not out.exists()


def test_family_weights_whose_sum_overflows_exit_two_without_a_warning(tmp_path, capsys):
    config = write_learn_config(tmp_path, family_weights=[1e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["learn-angles", "--config", config,
                     "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == ("error: family weights must have a positive finite sum, "
                                       "got [1e+308, 1e+308, 1e+308]\n")


def test_every_manifest_records_the_peak_rss(tmp_path):
    truth = simulate(tmp_path, MIRROR_SCENE)
    target = str(tmp_path / "target.csv")
    np.savetxt(target, np.arange(1.0, 5.0).reshape(2, 2), delimiter=",")
    runs = {
        "capture": ["--tensor", truth, "--out", str(tmp_path / "m.pltt")],
        "reconstruct": ["--measurements", str(tmp_path / "m.pltt"),
                        "--out", str(tmp_path / "r.pltt")],
        "learn-angles": ["--config", write_learn_config(tmp_path),
                         "--out", str(tmp_path / "s.json")],
        "decompose": ["--tensor", truth, "--out", str(tmp_path / "d")],
        "pca": ["--tensor", truth, "--out", str(tmp_path / "p")],
        "descatter": ["--tensor", truth, "--target", target, "--out", str(tmp_path / "f")],
        "slice": ["--tensor", truth, "--expr", "T(s,s,0,0,t)", "--out", str(tmp_path / "v")],
    }
    for command, argv in runs.items():
        assert main([command] + argv) == 0, command
    manifests = [json.loads(p.read_text()) for p in tmp_path.glob("*.manifest.json")]
    assert sorted(m["command"] for m in manifests) == sorted(["simulate"] + list(runs))
    for manifest in manifests:
        assert manifest["peak_rss_mb"] > 0, manifest["command"]


def test_every_manifest_names_its_file_inputs_outputs_and_seed(tmp_path):
    def path(name):
        return str(tmp_path / name)

    scene = write_scene(tmp_path, MIRROR_SCENE)
    schedule = path("sched.json")
    save_schedule(schedule, drr_schedule(20))
    config = write_learn_config(tmp_path)
    target = path("target.csv")
    np.savetxt(target, np.arange(1.0, 5.0).reshape(2, 2), delimiter=",")
    truth = path("truth.pltt")

    def images(prefix, suffixes=("",)):
        return [prefix + suffix + ".csv" for suffix in suffixes] + [prefix + ".pgm",
                                                                    prefix + ".json"]

    # command, argv, manifest path, inputs, outputs, seed
    runs = [
        ("simulate", ["--scene", scene, "--resolution", "2x2", "--bins", "16",
                      "--bin-width", "1e-10", "--out", truth],
         truth, {"scene": scene}, [truth], None),
        ("capture", ["--tensor", truth, "--seed", "7", "--noise", "1e-3",
                     "--out", path("m.pltt")],
         path("m.pltt"), {"tensor": truth, "schedule": "drr"}, [path("m.pltt")], 7),
        ("capture", ["--tensor", truth, "--schedule", schedule, "--out", path("m2.pltt")],
         path("m2.pltt"), {"tensor": truth, "schedule": schedule}, [path("m2.pltt")], None),
        ("reconstruct", ["--measurements", path("m.pltt"), "--out", path("r.pltt")],
         path("r.pltt"), {"measurements": path("m.pltt")},
         [path("r.pltt"), path("r_residual_norms.npy"), path("r_diagnostics.csv")], 7),
        ("learn-angles", ["--config", config, "--out", path("s.json")],
         path("s.json"), {"config": config},
         [path("s.json"), path("s_report.json"), path("s_comparison.csv")], 3),
        ("decompose", ["--tensor", truth, "--bin", "10", "--out", path("d")],
         path("d"), {"tensor": truth},
         [path("d_summary.json")] + [f for name in ("polarizance", "retardance",
                                                    "diattenuation")
                                     for f in images(path("d_" + name), ["_t10"])], None),
        ("pca", ["--tensor", truth, "--out", path("p")],
         path("p"), {"tensor": truth},
         [path("p_summary.json"), path("p_singular_values.csv"),
          path("p_components.csv"), path("p_mean.csv")], None),
        ("descatter", ["--tensor", truth, "--target", target, "--out", path("f")],
         path("f"), {"tensor": truth, "target": target},
         [path("f_model.json")] + images(path("f_prediction")), None),
        ("slice", ["--tensor", truth, "--expr", "T(s,s,0,:,t=10)", "--out", path("v")],
         path("v"), {"tensor": truth},
         images(path("v"), ["_q%d" % q for q in range(4)]), None),
    ]
    for command, argv, base, inputs, outputs, seed in runs:
        assert main([command] + argv) == 0, command
        manifest = json.loads(open(base + ".manifest.json").read())
        assert manifest["command"] == command
        assert manifest["inputs"] == inputs, command
        assert manifest["outputs"] == outputs, command
        assert manifest["seed"] == seed, command
        assert all(os.path.exists(p) for p in outputs), command


def test_decompose_writes_retardance_map(tmp_path, capsys):
    tensor_path = simulate(tmp_path, MIRROR_SCENE)
    out_prefix = str(tmp_path / "maps")
    assert main(["decompose", "--tensor", tensor_path, "--bin", "10",
                 "--out", out_prefix]) == 0
    grid = np.loadtxt(tmp_path / "maps_retardance_t10.csv", delimiter=",", ndmin=2)
    # the mirror flips both oblique components: a half-wave signature
    np.testing.assert_allclose(grid, np.pi, atol=1e-12)
    summary = json.loads((tmp_path / "maps_summary.json").read_text())
    assert summary["n_blocks"] == 4 * 16
    assert summary["n_null"] == 4 * 15
    # a simulated tensor has no noise model: only the relative floor applies
    assert summary["noise_floor"] is None
    assert summary["n_unrealisable"] == 0
    assert summary["bins"] == [10]
    assert "60/64 blocks below floor" in capsys.readouterr().out
    for name in ("polarizance", "diattenuation"):
        assert (tmp_path / ("maps_%s.pgm" % name)).read_bytes().startswith(b"P5\n2 2\n")


def test_image_exports_write_one_pgm_and_sidecar_per_stack(tmp_path):
    tensor_path = simulate(tmp_path, dense_scene(depth=0.03), bins=5)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["decompose", "--tensor", tensor_path, "--out", str(out / "d")]) == 0
    assert main(["slice", "--tensor", tensor_path, "--expr", "T(s,s,:,:,t=2)",
                 "--out", str(out / "v")]) == 0
    names = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    maps = ("diattenuation", "polarizance", "retardance")
    assert names == sorted(
        ["d_summary.json"] + ["d_%s_t%d.csv" % (m, t) for m in maps for t in range(5)]
        + ["d_%s%s" % (m, ext) for m in maps for ext in (".pgm", ".json")]
        + ["v_p%d_q%d.csv" % (p, q) for p in range(4) for q in range(4)]
        + ["v.pgm", "v.json"])
    for name in maps:
        sidecar = json.loads((out / ("d_%s.json" % name)).read_text())
        assert (out / ("d_%s.pgm" % name)).read_bytes().startswith(b"P5\n2 10\n65535\n")
        assert {k: v for k, v in sidecar.items() if k != "tiles"} == {
            "bit_depth": 16, "tile_shape": [2, 2], "map": name, "bins": list(range(5))}
        for t, tile in enumerate(sidecar["tiles"]):
            grid = np.loadtxt(out / tile["csv"], delimiter=",", ndmin=2)
            finite = np.isfinite(grid)
            assert tile["csv"] == "d_%s_t%d.csv" % (name, t)
            assert tile["nan_count"] == int((~finite).sum())
            if finite.any():
                assert [tile["min"], tile["max"]] == [grid[finite].min(), grid[finite].max()]
    sidecar = json.loads((out / "v.json").read_text())
    assert sidecar["expression"] == "T(s,s,:,:,t=2)"
    assert [tile["csv"] for tile in sidecar["tiles"]] == [
        "v_p%d_q%d.csv" % (p, q) for p in range(4) for q in range(4)]
    assert (out / "v.pgm").read_bytes().startswith(b"P5\n2 32\n65535\n")


def write_branch_tensor(tmp_path):
    data = np.zeros((2, 1, 4, 4, 1))
    data[0, 0, :, :, 0] = linear_polarizer(0.4)              # singular diattenuator
    data[1, 0, :, :, 0] = np.diag([1.0, 0.8125, 0.7, -0.6])  # negative-det branch
    path = tmp_path / "branches.pltt"
    write_pltt(str(path), TransportTensor(data, (1, 2), (1, 2), 1e-10, coaxial=True))
    return path


def test_decompose_summary_counts_the_fallbacks(tmp_path):
    path = write_branch_tensor(tmp_path)
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 0
    summary = json.loads((tmp_path / "d_summary.json").read_text())
    assert summary["n_null"] == 0
    assert summary["n_singular"] == 1
    assert summary["n_negative_det"] == 1
    assert "n_reorthogonalized" not in summary and "n_clamped" not in summary


def test_decompose_rejects_non_finite_blocks(tmp_path, capsys):
    path = write_branch_tensor(tmp_path)
    blob = path.read_bytes()
    marker = np.array([0.8125], dtype="<f8").tobytes()
    assert blob.count(marker) == 1
    path.write_bytes(blob.replace(marker, np.array([np.nan], dtype="<f8").tobytes()))
    assert main(["decompose", "--tensor", str(path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "d_summary.json").exists()


def test_pca_outputs_spectrum_and_basis(tmp_path):
    tensor_path = simulate(tmp_path, dense_scene(0.045), bins=8)
    out_prefix = str(tmp_path / "basis")
    assert main(["pca", "--tensor", tensor_path, "--out", out_prefix]) == 0
    lines = (tmp_path / "basis_singular_values.csv").read_text().strip().splitlines()
    assert len(lines) == 17
    components = np.loadtxt(tmp_path / "basis_components.csv", delimiter=",")
    np.testing.assert_allclose(components @ components.T, np.eye(16), atol=1e-12)
    summary = json.loads((tmp_path / "basis_summary.json").read_text())
    assert summary["components_for_95pct"] >= 1


def test_descatter_cli_fits_the_intensity_channel(tmp_path):
    tensor_path = simulate(tmp_path, dense_scene(0.045), bins=8)
    tensor = read_pltt(tensor_path)
    target = tensor.data.sum(axis=(1, 4))[:, 0, 0].reshape(2, 2)
    target_path = str(tmp_path / "target.csv")
    np.savetxt(target_path, target, delimiter=",")
    out_prefix = str(tmp_path / "fit")
    assert main(["descatter", "--tensor", tensor_path, "--target", target_path,
                 "--out", out_prefix]) == 0
    model = json.loads((tmp_path / "fit_model.json").read_text())
    assert model["objective"] < 1e-18
    predicted = np.loadtxt(tmp_path / "fit_prediction.csv", delimiter=",", ndmin=2)
    np.testing.assert_allclose(predicted, target, atol=1e-9)


def test_descatter_lbfgs_reaches_the_closed_form_objective(tmp_path):
    # a coaxial tensor whose summed image is well-conditioned affine data
    rng = np.random.default_rng(17)
    image = rng.normal(size=(120, 4, 4))
    target = np.einsum("sij,ij->s", image + 0.1 * rng.normal(size=(4, 4)),
                       rng.normal(size=(4, 4))) + 0.05 * rng.normal(size=120)
    tensor_path = str(tmp_path / "image.pltt")
    write_pltt(tensor_path, TransportTensor(image[:, None, :, :, None], (10, 12), (10, 12),
                                            1e-10, coaxial=True))
    target_path = str(tmp_path / "target.csv")
    np.savetxt(target_path, target.reshape(10, 12), delimiter=",")
    models = {}
    for method in ("closed_form", "lbfgs"):
        prefix = str(tmp_path / method)
        assert main(["descatter", "--tensor", tensor_path, "--target", target_path,
                     "--method", method, "--out", prefix]) == 0
        manifest = json.loads((tmp_path / (method + ".manifest.json")).read_text())
        assert manifest["command"] == "descatter"
        models[method] = json.loads((tmp_path / (method + "_model.json")).read_text())
        assert models[method]["method"] == method
    assert len(models["lbfgs"]["history"]) > 1
    assert models["lbfgs"]["converged"] is True
    assert abs(models["lbfgs"]["objective"] - models["closed_form"]["objective"]) < 1e-8


def test_descatter_says_when_lbfgs_stops_short(tmp_path, capsys):
    # an exactly affine target on a noisy coaxial reconstruction: the closed
    # form fits it to rounding, L-BFGS reaches its iteration cap first
    scene = write_scene(tmp_path, {"geometry_mode": "coaxial", "surfaces": [
        {"patch": [0, 2, 0, 4], "depth_m": 0.15,
         "material": {"kind": "diffuse_depolarizer", "albedo": 0.6, "residual_dop": 0.4}},
        {"patch": [2, 4, 0, 4], "depth_m": 0.3,
         "material": {"kind": "fresnel_dielectric", "eta": 1.5, "incidence_deg": 40.0}},
        {"patch": [0, 4, 4, 8], "depth_m": 0.45,
         "material": {"kind": "retarder_plate", "retardance_deg": 60.0, "axis_deg": 20.0}},
    ]})
    truth, meas, recon = (str(tmp_path / n) for n in ("t.pltt", "m.pltt", "r.pltt"))
    assert main(["simulate", "--scene", scene, "--resolution", "4x8", "--bins", "4",
                 "--bin-width", "1e-9", "--out", truth]) == 0
    assert main(["capture", "--tensor", truth, "--schedule", "drr", "--k", "36",
                 "--noise", "1e-3", "--seed", "4", "--out", meas]) == 0
    assert main(["reconstruct", "--measurements", meas, "--out", recon]) == 0
    image = summed_polarimetric_image(read_pltt(recon))
    target = str(tmp_path / "target.csv")
    weights = np.random.default_rng(1).normal(size=16)
    np.savetxt(target, (image.reshape(-1, 16) @ weights + 0.3).reshape(4, 8), delimiter=",")
    capsys.readouterr()
    models = {}
    for method in ("closed_form", "lbfgs"):
        out = str(tmp_path / method)
        assert main(["descatter", "--tensor", recon, "--target", target,
                     "--method", method, "--out", out]) == 0
        models[method] = json.loads((tmp_path / (method + "_model.json")).read_text())
        warned = "warning: L-BFGS stopped before converging (" in capsys.readouterr().out
        assert warned == (method == "lbfgs")
    assert models["closed_form"]["converged"] is True
    assert models["closed_form"]["objective"] < 1e-20
    assert models["lbfgs"]["converged"] is False
    assert models["lbfgs"]["objective"] > 1e6 * models["closed_form"]["objective"]


def test_descatter_target_size_mismatch(tmp_path, capsys):
    tensor_path = simulate(tmp_path, dense_scene(0.045), bins=8)
    target_path = str(tmp_path / "bad.csv")
    np.savetxt(target_path, np.zeros((3, 3)), delimiter=",")
    rc = main(["descatter", "--tensor", tensor_path, "--target", target_path,
               "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "camera pixels" in capsys.readouterr().err


def run_descatter(tmp_path, target_text):
    """pltt descatter of a 2x2 dense scene against a target CSV; returns (exit code, prefix)."""
    tensor_path = simulate(tmp_path, dense_scene(0.045), bins=8)
    target_path = tmp_path / "target.csv"
    target_path.write_text(target_text)
    prefix = tmp_path / "fit"
    return main(["descatter", "--tensor", tensor_path, "--target", str(target_path),
                 "--out", str(prefix)]), prefix


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_descatter_target_exits_two_writing_nothing(tmp_path, capsys, value):
    code, prefix = run_descatter(tmp_path, "1.0,0.5\n%s,0.25\n" % value)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: target") and len(err.strip().splitlines()) == 1
    assert not os.path.exists(str(prefix) + "_model.json")
    assert not os.path.exists(str(prefix) + ".manifest.json")


def test_an_empty_descatter_target_is_one_error_line(tmp_path, capsys):
    # numpy warns about an empty file; the warning must not reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, prefix = run_descatter(tmp_path, "")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: target has 0 values") and len(err.strip().splitlines()) == 1
    assert not os.path.exists(str(prefix) + ".manifest.json")


def noisy_mirror_reconstruction(tmp_path, k):
    truth = simulate(tmp_path, MIRROR_SCENE)
    meas, recon = str(tmp_path / "meas.pltt"), str(tmp_path / "recon.pltt")
    assert main(["capture", "--tensor", truth, "--k", str(k), "--noise", "1e-3",
                 "--seed", "5", "--out", meas]) == 0
    assert main(["reconstruct", "--measurements", meas, "--out", recon]) == 0
    return recon


def test_pca_keeps_the_blocks_decompose_keeps(tmp_path):
    recon = noisy_mirror_reconstruction(tmp_path, 36)
    assert main(["decompose", "--tensor", recon, "--out", str(tmp_path / "d")]) == 0
    assert main(["pca", "--tensor", recon, "--out", str(tmp_path / "p")]) == 0
    decomposed = json.loads((tmp_path / "d_summary.json").read_text())
    principal = json.loads((tmp_path / "p_summary.json").read_text())
    # the stored noise model keeps the mirror's 4 echo blocks and no noise block
    assert decomposed["n_null"] == decomposed["n_blocks"] - 4 == 60
    assert principal["n_samples"] == 4
    floor = read_pltt(recon).noise_std[0, 0] * 5.0
    assert decomposed["noise_floor"] == principal["noise_floor"] == floor


def test_pca_exits_two_when_every_block_is_below_the_noise_floor(tmp_path, capsys):
    # DRR-12 has rank 12, which leaves no residual: the model takes the
    # capture's sigma, and the amplified m00 noise (~0.44) buries the mirror
    recon = noisy_mirror_reconstruction(tmp_path, 12)
    assert read_pltt(recon).noise_std[0, 0] > 0.2
    assert main(["decompose", "--tensor", recon, "--out", str(tmp_path / "d")]) == 0
    assert json.loads((tmp_path / "d_summary.json").read_text())["n_null"] == 64
    capsys.readouterr()
    assert main(["pca", "--tensor", recon, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err == "error: fewer than 2 usable Mueller blocks above the floor\n"


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("scene, size, seed", [
    ("found_projector_camera_8x8_seed61.json", 8, 61),
    ("found_coaxial_16x16_seed17.json", 16, 17),
])
def test_pca_samples_about_the_truth_lit_blocks(tmp_path, scene, size, seed):
    # the benchmark's random scenes (perfbench/workloads.py random_scene with
    # np.random.default_rng(seed)) on which the relative floor let thousands
    # of noise-only blocks into pca: 32,760 for 96 lit, and 2,188 for 302
    truth, meas, recon = (str(tmp_path / n) for n in ("truth.pltt", "m.pltt", "r.pltt"))
    assert main(["simulate", "--scene", os.path.join(DATA, scene), "--resolution",
                 "%dx%d" % (size, size), "--bins", "16", "--bin-width", "1e-10",
                 "--out", truth]) == 0
    assert main(["capture", "--tensor", truth, "--noise", "5e-4", "--seed", str(seed),
                 "--out", meas]) == 0
    assert main(["reconstruct", "--measurements", meas, "--out", recon]) == 0
    assert main(["pca", "--tensor", recon, "--out", str(tmp_path / "p")]) == 0
    assert main(["decompose", "--tensor", recon, "--out", str(tmp_path / "d")]) == 0
    assert main(["decompose", "--tensor", truth, "--out", str(tmp_path / "t")]) == 0
    n_lit = int(np.sum(read_pltt(truth).data[:, :, 0, 0, :] > 0))
    assert n_lit == {8: 96, 16: 302}[size]
    principal = json.loads((tmp_path / "p_summary.json").read_text())
    assert abs(principal["n_samples"] - n_lit) <= 3
    recovered = read_pltt(recon)
    std00 = recovered.noise_std[0, 0]
    assert principal["noise_floor"] == 5.0 * std00
    # decompose folds the projector axis, which sums S_proj noises
    folds = 1 if recovered.coaxial else size * size
    decomposed = json.loads((tmp_path / "d_summary.json").read_text())
    assert decomposed["noise_floor"] == pytest.approx(5.0 * std00 * np.sqrt(folds), rel=1e-12)
    # every material in these scenes is realisable: with the fixed 1e-9 m00
    # tolerance, noise alone counted 65 of 92 (8x8) and 36 of 302 (16x16)
    # kept blocks, since a pure block has three zero coherency eigenvalues
    assert decomposed["n_unrealisable"] == 0
    assert json.loads((tmp_path / "t_summary.json").read_text())["n_unrealisable"] == 0


def test_reconstruct_warns_when_ill_conditioned(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    lines = {}
    for k in (16, 36):
        meas_path = str(tmp_path / ("meas%d.pltt" % k))
        assert main(["capture", "--tensor", tensor_path, "--k", str(k), "--noise", "1e-3",
                     "--seed", "2", "--out", meas_path]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--measurements", meas_path,
                     "--out", str(tmp_path / ("r%d.pltt" % k))]) == 0
        lines[k] = capsys.readouterr().out
    # DRR-16 has full rank but cond 2.3e5; DRR-36 has cond 13
    assert "warning: ILL-CONDITIONED design (cond 2.28e+05 > 1000)" in lines[16]
    assert "UNDERDETERMINED" not in lines[16]
    assert "ILL-CONDITIONED" not in lines[36]
    # 16 rows leave no residual, so the capture's sigma stands in; 36 rows
    # leave 20 per solve, which estimate it to a few percent
    sigma_hat = {k: float(lines[k].rsplit("sigma_hat=", 1)[1]) for k in lines}
    assert sigma_hat[16] == 1e-3
    assert sigma_hat[36] != 1e-3 and abs(sigma_hat[36] - 1e-3) < 2e-4


def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("pltt.cli.decompose_tensor", fail)
    tensor = simulate(tmp_path, MIRROR_SCENE)
    assert main(["decompose", "--tensor", tensor, "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "d.manifest.json").exists()


@pytest.mark.parametrize("command, flags", [
    ("capture", ["--noise", "nan"]),
    ("capture", ["--noise", "inf"]),
    ("capture", ["--noise=-1"]),
    ("decompose", ["--floor", "nan"]),
    ("decompose", ["--floor", "2"]),
    ("decompose", ["--floor=-1e-6"]),
    ("pca", ["--floor", "nan"]),
    ("pca", ["--c", "nan"]),
    ("pca", ["--c", "inf"]),
    ("pca", ["--c", "0"]),
])
def test_non_finite_or_out_of_range_numbers_exit_two(tmp_path, capsys, command, flags):
    scene = write_scene(tmp_path, MIRROR_SCENE)
    tensor = str(tmp_path / "truth.pltt")
    assert main(["simulate", "--scene", scene, "--resolution", "3x3", "--bins", "16",
                 "--bin-width", "1e-10", "--out", tensor]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out")
    assert main([command, "--tensor", tensor, "--out", out] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("out")] == []


def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["capture", "--tensor", str(tmp_path / "nope.pltt"),
               "--out", str(tmp_path / "m.pltt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("zero resolution", "resolution must be a list of 2 integers >= 1, got (0, 8)"),
    ("config not an object", "training config must be a JSON object"),
])
def test_usage_errors_exit_two(tmp_path, capsys, case, message):
    if case == "zero resolution":
        argv = ["simulate", "--scene", write_scene(tmp_path, MIRROR_SCENE), "--resolution", "0x8",
                "--bins", "16", "--bin-width", "1e-10", "--out", str(tmp_path / "t.pltt")]
    else:
        config = tmp_path / "train.json"
        config.write_text("[1]")
        argv = ["learn-angles", "--config", str(config), "--out", str(tmp_path / "s.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
