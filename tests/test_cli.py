import csv
import functools
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltt.cli import main, parse_slice_expression
from pltt.ellipsometry import capture, drr_schedule, reconstruct, save_schedule
from pltt.fileio import read_pltt, write_pltt
from pltt.polarization import ideal_mirror, linear_polarizer
from pltt.tensor import TransportTensor

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
    diag = (tmp_path / "recon_diagnostics.csv").read_text().strip().splitlines()
    assert diag[0] == "cam_index,proj_index,bin,residual_norm"
    assert len(diag) == 1 + 4 * 1 * 16


def test_diagnostics_csv_matches_the_csv_writer_rows(tmp_path):
    tensor_path = simulate(tmp_path, dense_scene(0.02), bins=3)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "20", "--noise", "1e-3",
                 "--seed", "4", "--out", meas_path]) == 0
    assert main(["reconstruct", "--measurements", meas_path,
                 "--out", str(tmp_path / "recon.pltt")]) == 0
    res = reconstruct(read_pltt(meas_path)).residual_norms
    assert res.shape == (4, 4, 3) and np.all(res > 0)
    # the row-at-a-time csv.writer loop the command used to run
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cam_index", "proj_index", "bin", "residual_norm"])
        for s in range(res.shape[0]):
            for x in range(res.shape[1]):
                for t in range(res.shape[2]):
                    writer.writerow([s, x, t, "%.17g" % res[s, x, t]])
    assert (tmp_path / "recon_diagnostics.csv").read_bytes() == oracle.read_bytes()


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


def test_measurements_without_a_stored_split_read_as_one_half(tmp_path):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    meas_path = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor_path, "--k", "16", "--out", meas_path]) == 0
    rewrite_metadata(meas_path, lambda meta: {k: v for k, v in meta.items() if k != "split"})
    assert read_pltt(meas_path).split == 0.5


@functools.lru_cache(maxsize=None)
def small_measurement_blob():
    with tempfile.TemporaryDirectory() as tmp:
        tensor = TransportTensor(np.broadcast_to(ideal_mirror()[None, None, :, :, None],
                                                 (2, 1, 4, 4, 2)).copy(),
                                 (1, 2), (1, 2), 1e-10, coaxial=True)
        meas = capture(tensor, drr_schedule(16), noise_sigma=1e-3, seed=3, split=0.4)
        path = os.path.join(tmp, "meas.pltt")
        write_pltt(path, meas, provenance="fuzz")
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
    assert len(manifest["outputs"]) == 16 * 3


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
        parse_slice_expression("T(s,s)")


def test_slice_coaxial_tensor_has_no_projector_index(tmp_path, capsys):
    tensor_path = simulate(tmp_path, mirror_scene(0.015), bins=4)
    rc = main(["slice", "--tensor", tensor_path, "--expr", "T(s,2,0,0,t=1)",
               "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "coaxial" in capsys.readouterr().err


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
    assert len(report["batch_loss_curve"]) == 12
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
        assert (tmp_path / ("maps_%s_t10.pgm" % name)).exists()


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
    assert summary["n_reorthogonalized"] == 1
    assert summary["n_clamped"] == 0


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


def test_descatter_target_size_mismatch(tmp_path, capsys):
    tensor_path = simulate(tmp_path, dense_scene(0.045), bins=8)
    target_path = str(tmp_path / "bad.csv")
    np.savetxt(target_path, np.zeros((3, 3)), delimiter=",")
    rc = main(["descatter", "--tensor", tensor_path, "--target", target_path,
               "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "camera pixels" in capsys.readouterr().err


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
