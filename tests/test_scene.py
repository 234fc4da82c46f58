import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltt import scene as scene_module
from pltt.polarization import (
    compose,
    ideal_mirror,
    is_passive,
    linear_polarizer,
    retarder,
    rotator,
)
from pltt.scene import (
    SPEED_OF_LIGHT,
    build_transport,
    diffuse_depolarizer,
    fresnel_mueller,
    generate_ensemble,
    load_scene,
    material_mueller,
    parse_scene,
)
from pltt.tensor import epipolar_masks, probe


def fresnel_oracle(eta, theta_i):
    # straight from the amplitude reflection coefficients
    theta_t = np.arcsin(np.sin(theta_i) / eta)
    r_s = (np.cos(theta_i) - eta * np.cos(theta_t)) / (
        np.cos(theta_i) + eta * np.cos(theta_t)
    )
    r_p = (eta * np.cos(theta_i) - np.cos(theta_t)) / (
        eta * np.cos(theta_i) + np.cos(theta_t)
    )
    big_rs, big_rp = r_s**2, r_p**2
    a = 0.5 * (big_rs + big_rp)
    b = 0.5 * (big_rs - big_rp)
    c = np.sqrt(big_rs * big_rp)
    return np.array(
        [[a, b, 0, 0], [b, a, 0, 0], [0, 0, -c, 0], [0, 0, 0, -c]], dtype=float
    )


def test_fresnel_matches_independent_oracle():
    for eta in (1.33, 1.5, 2.4):
        for theta_deg in (10.0, 45.0, 70.0):
            got = fresnel_mueller(eta, np.deg2rad(theta_deg))
            np.testing.assert_allclose(got, fresnel_oracle(eta, np.deg2rad(theta_deg)),
                                       atol=1e-12)


def test_fresnel_normal_incidence_value():
    m = fresnel_mueller(1.5, 0.0)
    np.testing.assert_allclose(m, 0.04 * np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-12)


def test_fresnel_brewster_is_pure_diattenuator():
    theta_b = np.arctan(1.5)
    m = fresnel_mueller(1.5, theta_b)
    assert m[0, 1] / m[0, 0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(m[2:, 2:], 0.0, atol=1e-12)


def test_fresnel_grazing_approaches_ideal_mirror():
    m = fresnel_mueller(1.5, np.deg2rad(89.999))
    np.testing.assert_allclose(m, ideal_mirror(), atol=2e-4)


def test_fresnel_validation():
    with pytest.raises(ValueError):
        fresnel_mueller(1.0, 0.3)
    with pytest.raises(ValueError):
        fresnel_mueller(1.5, np.pi / 2)
    with pytest.raises(ValueError):
        fresnel_mueller(1.5, -0.1)
    with pytest.raises(ValueError, match="incidence angle"):
        fresnel_mueller(np.array([1.5, 2.0]), np.array([0.3, np.pi / 2]))


def test_stacked_elements_are_the_stack_of_single_elements():
    rng = np.random.default_rng(5)
    eta, theta_i = rng.uniform(1.1, 2.5, 6), rng.uniform(0.0, 1.5, 6)
    axis, delta = rng.uniform(-np.pi, np.pi, (2, 6))
    for stacked, single in ((fresnel_mueller(eta, theta_i), map(fresnel_mueller, eta, theta_i)),
                            (retarder(axis, delta), map(retarder, axis, delta)),
                            (rotator(axis), map(rotator, axis))):
        assert stacked.tobytes() == np.array(list(single)).tobytes()


def test_diffuse_depolarizer_block():
    m = diffuse_depolarizer(0.8, 0.25)
    np.testing.assert_allclose(m, 0.8 * np.diag([1.0, 0.25, 0.25, 0.125]), atol=1e-15)
    with pytest.raises(ValueError):
        diffuse_depolarizer(1.2, 0.5)
    with pytest.raises(ValueError):
        diffuse_depolarizer(0.5, -0.1)


def test_material_dispatch_and_errors():
    np.testing.assert_allclose(
        material_mueller({"kind": "ideal_mirror"}), ideal_mirror(), atol=1e-15
    )
    with pytest.raises(ValueError, match="missing field 'eta'"):
        material_mueller({"kind": "fresnel_dielectric", "incidence_deg": 30})
    with pytest.raises(ValueError, match="unknown material kind"):
        material_mueller({"kind": "unobtainium"})
    with pytest.raises(ValueError):
        material_mueller("mirror")


def coaxial_mirror_scene(depth=0.15, patch=(0, 2, 0, 2)):
    return parse_scene(
        {
            "geometry_mode": "coaxial",
            "surfaces": [
                {
                    "patch": list(patch),
                    "depth_m": depth,
                    "material": {"kind": "ideal_mirror"},
                }
            ],
        }
    )


def test_mirror_scene_places_one_bin():
    bin_width = 1e-10
    depth = 0.15
    scene = coaxial_mirror_scene(depth)
    tensor = build_transport(scene, (2, 2), 16, bin_width)
    assert tensor.coaxial
    expected_bin = int(np.floor(2.0 * depth / SPEED_OF_LIGHT / bin_width))
    assert expected_bin == 10
    for t in range(16):
        block = tensor.data[0, 0, :, :, t]
        if t == expected_bin:
            np.testing.assert_array_equal(block, ideal_mirror())
        else:
            np.testing.assert_array_equal(block, np.zeros((4, 4)))


def test_two_depths_land_in_distinct_bins():
    scene = parse_scene(
        {
            "geometry_mode": "coaxial",
            "surfaces": [
                {"patch": [0, 1, 0, 2], "depth_m": 0.15,
                 "material": {"kind": "ideal_mirror"}},
                {"patch": [1, 2, 0, 2], "depth_m": 0.30,
                 "material": {"kind": "retarder_plate",
                              "retardance_deg": 90.0, "axis_deg": 45.0}},
            ],
        }
    )
    tensor = build_transport(scene, (2, 2), 24, 1e-10)
    profile = np.abs(tensor.data).sum(axis=(1, 2, 3))
    assert np.flatnonzero(profile[0]).tolist() == [10]   # top row pixel
    assert np.flatnonzero(profile[2]).tolist() == [20]   # bottom row pixel


def test_surface_beyond_window_names_itself():
    scene = coaxial_mirror_scene(depth=1.0)
    with pytest.raises(ValueError, match="surface 0"):
        build_transport(scene, (2, 2), 4, 1e-10)


def test_patch_outside_grid_rejected():
    scene = coaxial_mirror_scene(patch=(0, 3, 0, 3))
    with pytest.raises(ValueError, match="exceeds"):
        build_transport(scene, (2, 2), 16, 1e-10)


def test_single_bounce_scene_is_diagonal():
    scene = parse_scene(
        {
            "geometry_mode": "projector_camera",
            "surfaces": [
                {"patch": [0, 2, 0, 3], "depth_m": 0.0,
                 "material": {"kind": "diffuse_depolarizer",
                              "albedo": 0.9, "residual_dop": 0.2}},
            ],
        }
    )
    tensor = build_transport(scene, (2, 3), 1, 1e-9)
    assert not tensor.coaxial
    off_diag = tensor.data.copy()
    idx = np.arange(6)
    off_diag[idx, idx] = 0.0
    np.testing.assert_array_equal(off_diag, np.zeros_like(off_diag))
    # every epipolar probe keeps it, the non-epipolar probe empties it
    epi, non_epi = epipolar_masks((2, 3), (2, 3))
    np.testing.assert_array_equal(probe(tensor, epi).data, tensor.data)
    np.testing.assert_array_equal(
        probe(tensor, non_epi).data, np.zeros_like(tensor.data)
    )


def test_chain_materials_compose_in_traversal_order():
    lp = linear_polarizer(0.0)
    rot = rotator(np.pi / 4)
    scene = parse_scene(
        {
            "geometry_mode": "coaxial",
            "chains": [
                {
                    "materials": [
                        {"kind": "custom", "matrix": lp.tolist()},
                        {"kind": "custom", "matrix": rot.tolist()},
                    ],
                    "path_length_m": 0.3,
                    "camera_patch": [0, 1, 0, 1],
                }
            ],
        }
    )
    tensor = build_transport(scene, (1, 1), 16, 1e-10)
    t_bin = int(np.floor(0.3 / SPEED_OF_LIGHT / 1e-10))
    got = tensor.data[0, 0, :, :, t_bin]
    np.testing.assert_allclose(got, rot @ lp, atol=1e-15)
    assert not np.allclose(got, lp @ rot)


def test_chain_with_projector_patch_couples_off_diagonal():
    scene = parse_scene(
        {
            "geometry_mode": "projector_camera",
            "chains": [
                {
                    "materials": [{"kind": "ideal_mirror"}],
                    "path_length_m": 0.0,
                    "camera_patch": [0, 1, 0, 1],
                    "projector_patch": [1, 2, 1, 2],
                }
            ],
        }
    )
    tensor = build_transport(scene, (2, 2), 1, 1e-9)
    np.testing.assert_array_equal(tensor.data[0, 3, :, :, 0], ideal_mirror())
    assert np.abs(tensor.data).sum() == np.abs(tensor.data[0, 3]).sum()


def test_chain_couples_every_patch_pixel_pair_like_a_loop():
    scene = parse_scene({
        "geometry_mode": "projector_camera",
        "surfaces": [{"patch": [0, 2, 1, 3], "depth_m": 0.0,
                      "material": {"kind": "fresnel_dielectric", "eta": 1.5,
                                   "incidence_deg": 30.0}}],
        "chains": [{"materials": [{"kind": "retarder_plate", "retardance_deg": 40.0,
                                   "axis_deg": 10.0}, {"kind": "ideal_mirror"}],
                    "path_length_m": 0.0, "camera_patch": [0, 2, 0, 2],
                    "projector_patch": [1, 2, 1, 3]}],
    })
    tensor = build_transport(scene, (2, 3), 1, 1e-9)
    # reference: one += per (camera, projector) pair, in patch order
    expected = np.zeros((6, 6, 4, 4, 1))
    for s in (1, 2, 4, 5):
        expected[s, s, :, :, 0] += scene.surfaces[0].block
    chain = scene.chains[0].block
    for s in (0, 1, 3, 4):
        for x in (4, 5):
            expected[s, x, :, :, 0] += chain
    np.testing.assert_array_equal(tensor.data, expected)


def test_a_scene_builds_each_material_once_in_list_order(monkeypatch):
    built = []
    build = scene_module.material_mueller
    monkeypatch.setattr(scene_module, "material_mueller",
                        lambda spec: built.append(spec["kind"]) or build(spec))
    kinds = ["ideal_mirror", "retarder_plate", "diffuse_depolarizer", "fresnel_dielectric"]
    scene = parse_scene({
        "geometry_mode": "projector_camera",
        "surfaces": [{"patch": [0, 1, 0, 1], "depth_m": 0.0, "material": {"kind": kinds[0]}}],
        "chains": [{"materials": [{"kind": kinds[1], "retardance_deg": 40.0, "axis_deg": 10.0},
                                  {"kind": kinds[2], "albedo": 0.5, "residual_dop": 0.5}],
                    "path_length_m": 0.0, "camera_patch": [0, 1, 0, 2]}],
        "scatter_volume": {"backscatter": {"kind": kinds[3], "eta": 1.5, "incidence_deg": 30.0},
                           "strength": 0.5, "depth_m": 0.0},
    })
    build_transport(scene, (2, 2), 1, 1e-9)
    assert built == kinds
    # the light meets a chain's materials in list order; an error names its first bad one
    np.testing.assert_array_equal(
        scene.chains[0].block, diffuse_depolarizer(0.5, 0.5) @ retarder(np.deg2rad(10.0),
                                                                          np.deg2rad(40.0)))
    with pytest.raises(ValueError, match="'albedo'"):
        parse_scene({"geometry_mode": "coaxial",
                     "chains": [{"materials": [{"kind": "diffuse_depolarizer"},
                                               {"kind": "unobtainium"}],
                                 "path_length_m": 0.0, "camera_patch": [0, 1, 0, 1]}]})


def test_coaxial_chain_rejects_projector_patch():
    scene = parse_scene(
        {
            "geometry_mode": "coaxial",
            "chains": [
                {
                    "materials": [{"kind": "ideal_mirror"}],
                    "path_length_m": 0.0,
                    "camera_patch": [0, 1, 0, 1],
                    "projector_patch": [0, 1, 0, 1],
                }
            ],
        }
    )
    with pytest.raises(ValueError, match="projector_patch"):
        build_transport(scene, (2, 2), 1, 1e-9)


def test_scatter_volume_scalar_and_map():
    base = {
        "geometry_mode": "coaxial",
        "scatter_volume": {
            "backscatter": {"kind": "diffuse_depolarizer",
                            "albedo": 1.0, "residual_dop": 1.0},
            "strength": 0.5,
            "depth_m": 0.15,
        },
    }
    tensor = build_transport(parse_scene(base), (2, 2), 16, 1e-10)
    block = tensor.data[3, 0, :, :, 10]
    np.testing.assert_allclose(block, 0.5 * np.diag([1.0, 1, 1, 0.5]), atol=1e-15)

    base["scatter_volume"]["strength"] = [[0.1, 0.2], [0.3, 0.4]]
    tensor = build_transport(parse_scene(base), (2, 2), 16, 1e-10)
    np.testing.assert_allclose(tensor.data[2, 0, 0, 0, 10], 0.3, atol=1e-15)
    np.testing.assert_allclose(tensor.data[1, 0, 0, 0, 10], 0.2, atol=1e-15)


def test_scene_validation_messages():
    with pytest.raises(ValueError, match="geometry_mode"):
        parse_scene({})
    with pytest.raises(ValueError, match="surfaces\\[0\\].patch"):
        parse_scene({"geometry_mode": "coaxial",
                     "surfaces": [{"patch": [0, 1], "depth_m": 0.0,
                                   "material": {"kind": "ideal_mirror"}}]})
    with pytest.raises(ValueError, match="surfaces\\[0\\].depth_m"):
        parse_scene({"geometry_mode": "coaxial",
                     "surfaces": [{"patch": [0, 1, 0, 1], "depth_m": -1,
                                   "material": {"kind": "ideal_mirror"}}]})
    with pytest.raises(ValueError, match="chains\\[0\\].materials"):
        parse_scene({"geometry_mode": "coaxial",
                     "chains": [{"materials": [], "path_length_m": 0.0,
                                 "camera_patch": [0, 1, 0, 1]}]})
    with pytest.raises(ValueError, match="scatter_volume.strength"):
        parse_scene({"geometry_mode": "coaxial",
                     "scatter_volume": {"backscatter": {"kind": "ideal_mirror"},
                                        "strength": 1.5, "depth_m": 0.0}})


def test_build_is_deterministic():
    scene = coaxial_mirror_scene()
    a = build_transport(scene, (2, 2), 16, 1e-10)
    b = build_transport(scene, (2, 2), 16, 1e-10)
    np.testing.assert_array_equal(a.data, b.data)


def test_ensemble_is_passive_and_deterministic():
    first = generate_ensemble(42, 60)
    second = generate_ensemble(42, 60)
    np.testing.assert_array_equal(first.samples, second.samples)
    assert first.samples.shape[0] == 60
    for sample in first.samples:
        assert is_passive(sample, tol=1e-9)
    other = generate_ensemble(43, 60)
    assert not np.array_equal(first.samples, other.samples)


@pytest.mark.parametrize("weights", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
                         ids=["reflection", "mixed", "sandwiched"])
def test_every_family_draws_passive_samples(weights):
    # each family is passive by construction: a reflection has reflectances
    # in [0, 1], a mix is a convex sum of two passive blocks of one m00, and
    # the retarder and rotator only turn the Stokes components 1..3
    samples = generate_ensemble(11, 2000, weights=weights).samples
    assert is_passive(samples, tol=1e-12)


def test_ensemble_weights_shift_family_mix():
    only_fresnel = generate_ensemble(7, 40, weights=(1.0, 0.0, 0.0))
    # raw reflections have an empty lower-left 3x1 polarizance column
    assert np.abs(only_fresnel.samples[:, 1:, 0]).max() > 0  # b sits at (1,0)
    np.testing.assert_allclose(only_fresnel.samples[:, 2:, 0], 0.0, atol=1e-15)
    with pytest.raises(ValueError):
        generate_ensemble(7, 40, weights=(1.0, 0.0))
    with pytest.raises(ValueError):
        generate_ensemble(7, 0)


def reference_ensemble(seed, n, weights):
    # the per-sample loop generate_ensemble replaced, frozen as its oracle:
    # one Generator per sample, drawing the family with choice and each
    # parameter with uniform, and building one 4x4 matrix at a time
    weights = np.asarray(weights, dtype=float)
    probs = weights / weights.sum()
    samples = np.empty((n, 4, 4))
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(stream)
        family = rng.choice(3, p=probs)
        m = fresnel_mueller(rng.uniform(1.3, 2.5), np.deg2rad(rng.uniform(5.0, 85.0)))
        if family == 1:
            lam = rng.uniform(0.1, 0.9)
            m = lam * m + (1.0 - lam) * np.diag([m[0, 0], 0.0, 0.0, 0.0])
        elif family == 2:
            before = rotator(rng.uniform(0.0, np.pi))
            after = retarder(rng.uniform(0.0, np.pi), rng.uniform(0.0, np.pi))
            m = compose([after, m, before])
        samples[i] = m
    return samples


@pytest.mark.parametrize("seed, n", [(7, 300), (123, 200)])
def test_batched_ensemble_is_the_per_sample_loop_bit_for_bit(seed, n):
    weights = (0.3, 0.35, 0.35)
    ensemble = generate_ensemble(seed, n, weights)
    assert ensemble.samples.tobytes() == reference_ensemble(seed, n, weights).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
       weights=st.one_of(
           st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
           st.tuples(*[st.floats(0.0, 1e3)] * 3).filter(lambda w: sum(w) > 0)))
def test_batched_ensemble_equals_the_reference_loop(seed, n, weights):
    ensemble = generate_ensemble(seed, n, weights)
    assert ensemble.samples.shape == (n, 4, 4)
    assert ensemble.samples.tobytes() == reference_ensemble(seed, n, weights).tobytes()
    np.testing.assert_allclose(ensemble.weights, np.asarray(weights) / sum(weights), rtol=1e-15)


@pytest.mark.parametrize("weights", [(1e308, 1e308, 1e308), (0.0, 0.0, 0.0)])
def test_family_weights_need_a_positive_finite_sum(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="family weights must have a positive finite sum"):
            generate_ensemble(7, 10, weights)


@pytest.mark.parametrize("resolution", [(2.5, 2), (True, 2)], ids=["float", "bool"])
def test_build_transport_takes_only_an_integer_resolution(resolution):
    # (2.5, 2) once built a 2x2 tensor and (True, 2) a 1x2 one
    with pytest.raises(ValueError, match=r"^resolution must be a list of 2 integers >= 1, got "):
        build_transport(coaxial_mirror_scene(patch=(0, 1, 0, 1)), resolution, 16, 1e-10)


def _scene_errors():
    def not_json(tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{")
        return load_scene(path)

    def patch_out_of_order(tmp_path):
        return coaxial_mirror_scene(patch=(1, 0, 0, 1))

    def strength_map_of_the_wrong_shape(tmp_path):
        scene = parse_scene({"geometry_mode": "coaxial", "scatter_volume": {
            "backscatter": {"kind": "ideal_mirror"}, "strength": [[0.1, 0.2, 0.3]],
            "depth_m": 0.15}})
        return build_transport(scene, (2, 2), 16, 1e-10)

    return [
        pytest.param(not_json, "scene file is not valid JSON", id="not json"),
        pytest.param(patch_out_of_order, re.escape(
            "field 'surfaces[0].patch' must satisfy 0 <= row0 < row1, 0 <= col0 < col1"),
            id="patch out of order"),
        pytest.param(strength_map_of_the_wrong_shape, re.escape(
            "scatter strength must be a scalar or a 2x2 map, got (1, 3)"), id="strength map"),
    ]


@pytest.mark.parametrize("build, message", _scene_errors())
def test_scene_errors_name_their_cause(tmp_path, build, message):
    with pytest.raises(ValueError, match=message):
        build(tmp_path)
