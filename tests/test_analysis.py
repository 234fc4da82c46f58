import tracemalloc

import numpy as np
import pytest

from pltt.analysis import (
    apply_descatter,
    arctan_map,
    arctan_unmap,
    build_observation,
    fit_descatter,
    pca,
    pca_project,
    pca_reconstruct,
    summed_polarimetric_image,
)
from pltt.scene import generate_ensemble
from pltt.tensor import TransportTensor, epipolar_masks, probe


def ensemble_observation(seed=7, n=60):
    return build_observation(generate_ensemble(seed, n).samples)


@pytest.mark.parametrize("c", [2.0, 8.0])
def test_arctan_round_trip_on_normalized_entries(c):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 1000)
    back = arctan_unmap(arctan_map(x, c), c)
    assert np.abs(back - x).max() < 1e-12


def test_arctan_validation():
    with pytest.raises(ValueError, match="positive"):
        arctan_map(0.5, c=0.0)
    with pytest.raises(ValueError, match="positive"):
        arctan_unmap(0.5, c=-1.0)
    with pytest.raises(ValueError, match="pi/2"):
        arctan_unmap(np.pi / 2)


def test_observation_rows_are_attenuation_invariant():
    samples = generate_ensemble(5, 10).samples
    scaled = 0.37 * samples
    np.testing.assert_allclose(build_observation(samples).rows,
                               build_observation(scaled).rows, atol=1e-14)


def test_observation_skips_dark_samples():
    samples = np.concatenate([generate_ensemble(5, 4).samples,
                              np.zeros((2, 4, 4))])
    obs = build_observation(samples)
    assert obs.rows.shape == (4, 16)
    assert obs.n_skipped == 2
    with pytest.raises(ValueError, match="4, 4"):
        build_observation(np.zeros((3, 4)))


def test_pca_counts_an_exactly_rank_3_cloud():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    directions = q[:, :3].T
    coeffs = rng.normal(size=(40, 3)) * np.array([3.0, 1.0, 0.4])
    rows = 0.1 * rng.normal(size=16) + coeffs @ directions
    basis = pca(rows)
    assert (basis.singular_values > 1e-10).sum() == 3
    assert basis.n_components_for(1.0) == 3
    assert basis.n_determined == 3


def test_truncation_error_equals_discarded_spectrum():
    obs = ensemble_observation()
    basis = pca(obs)
    for k in (1, 3, 8):
        recon = pca_reconstruct(basis, pca_project(basis, obs.rows, k))
        err_sq = np.sum((recon - obs.rows) ** 2)
        discarded = np.sum(basis.singular_values[k:] ** 2)
        assert abs(err_sq - discarded) < 1e-10


def test_full_projection_round_trips():
    obs = ensemble_observation()
    basis = pca(obs)
    recon = pca_reconstruct(basis, pca_project(basis, obs.rows, 16))
    assert np.abs(recon - obs.rows).max() < 1e-10
    assert basis.components.shape == (16, 16)
    np.testing.assert_allclose(basis.components @ basis.components.T,
                               np.eye(16), atol=1e-12)


def test_identical_rows_degenerate_cleanly():
    rng = np.random.default_rng(9)
    rows = np.tile(rng.normal(size=16), (5, 1))
    basis = pca(rows)
    assert basis.singular_values.max() < 1e-12
    np.testing.assert_array_equal(basis.energy, np.ones(16))
    assert basis.n_components_for(0.95) == 1
    assert basis.n_determined == 0


def test_pca_validation():
    with pytest.raises(ValueError, match="2 samples"):
        pca(np.zeros((1, 16)))
    with pytest.raises(ValueError, match="16"):
        pca(np.zeros((4, 7)))
    basis = pca(ensemble_observation(n=5))
    with pytest.raises(ValueError, match="fraction"):
        basis.n_components_for(0.0)


def test_pca_on_many_rows_stays_small_and_matches_the_full_svd():
    # a full SVD would allocate a (4000, 4000) U: 128 MB on its own
    rows = np.random.default_rng(4).normal(size=(4000, 16))
    tracemalloc.start()
    try:
        basis = pca(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    _, svals, vt = np.linalg.svd(rows - rows.mean(axis=0), full_matrices=False)
    np.testing.assert_allclose(basis.singular_values, svals, rtol=1e-12)
    # same directions, each up to sign
    np.testing.assert_allclose(np.abs(np.sum(basis.components * vt, axis=1)), 1.0, atol=1e-10)


def test_pca_component_signs_do_not_depend_on_the_row_order():
    rows = np.random.default_rng(12).normal(size=(500, 16))
    basis = pca(rows)
    np.testing.assert_allclose(pca(rows[::-1]).components, basis.components, rtol=0,
                               atol=1e-12)
    comps = basis.components
    assert np.all(comps[np.arange(16), np.abs(comps).argmax(axis=1)] > 0)


def test_pca_counts_the_components_its_rows_determine():
    rng = np.random.default_rng(13)
    # 5 centred rows span 4 directions; the other 12 are any basis of the rest
    rows = rng.normal(size=(5, 16))
    basis = pca(rows)
    assert basis.n_determined == 4
    np.testing.assert_allclose(pca(rows[::-1]).components[:4], basis.components[:4], rtol=0,
                               atol=1e-12)
    # two equal columns leave one direction with no variance
    rows = rng.normal(size=(40, 16))
    rows[:, 7] = rows[:, 3]
    assert pca(rows).n_determined == 15


def test_summed_image_collapses_projector_and_time():
    rng = np.random.default_rng(11)
    data = rng.uniform(0.1, 1.0, size=(2, 2, 4, 4, 3))
    tensor = TransportTensor(data, cam_shape=(1, 2), proj_shape=(1, 2),
                             time_bin_width=1e-10)
    image = summed_polarimetric_image(tensor)
    assert image.shape == (2, 4, 4)
    np.testing.assert_allclose(image, data.sum(axis=(1, 4)), atol=0)
    epi, _ = epipolar_masks((1, 2), (1, 2))
    masked = summed_polarimetric_image(tensor, mask=epi)
    np.testing.assert_allclose(masked, probe(tensor, epi).data.sum(axis=(1, 4)), atol=0)


def affine_image(rng, n=120):
    image = rng.normal(size=(n, 4, 4))
    weights = rng.normal(size=(4, 4))
    offsets = rng.normal(size=(4, 4)) * 0.1
    target = np.einsum("sij,ij->s", image + offsets, weights)
    return image, target


def test_closed_form_fit_is_exact_on_affine_data():
    rng = np.random.default_rng(13)
    image, target = affine_image(rng)
    model = fit_descatter(image, target)
    assert model.objective < 1e-20
    np.testing.assert_allclose(apply_descatter(model, image), target, atol=1e-10)
    assert model.history == (model.objective,)


def test_both_methods_reach_the_same_objective():
    rng = np.random.default_rng(17)
    image, clean = affine_image(rng)
    target = clean + 0.05 * rng.normal(size=clean.shape)
    closed = fit_descatter(image, target, method="closed_form")
    iterative = fit_descatter(image, target, method="lbfgs")
    assert abs(closed.objective - iterative.objective) < 1e-8
    assert len(iterative.history) >= 1
    assert iterative.history[-1] <= iterative.history[0]


def test_polarimetric_channels_beat_intensity_alone():
    # scatter rides on both the intensity and a polarized channel, so the
    # full model can cancel it exactly; an intensity-only model cannot
    rng = np.random.default_rng(19)
    n = 150
    clean = rng.uniform(0.2, 1.0, n)
    scatter = rng.uniform(0.0, 0.8, n)
    image = np.zeros((n, 4, 4))
    image[:, 0, 0] = clean + scatter
    image[:, 1, 1] = scatter
    full = fit_descatter(image, clean, mode="full")
    intensity = fit_descatter(image, clean, mode="intensity_only")
    assert full.objective < 1e-16
    assert intensity.objective > 1.0
    assert full.objective < intensity.objective


def test_intensity_only_support_is_respected():
    rng = np.random.default_rng(23)
    image, target = affine_image(rng)
    for method in ("closed_form", "lbfgs"):
        model = fit_descatter(image, target, mode="intensity_only", method=method)
        off_support_w = model.weights.copy()
        off_support_w[0, 0] = 0.0
        assert np.all(off_support_w == 0.0)
        off_support_b = model.offsets.copy()
        off_support_b[0, 0] = 0.0
        assert np.all(off_support_b == 0.0)


def test_apply_descatter_matches_the_model_formula():
    rng = np.random.default_rng(29)
    image, target = affine_image(rng, n=40)
    model = fit_descatter(image, target)
    manual = np.array([np.sum(model.weights * (image[s] + model.offsets))
                       for s in range(40)])
    np.testing.assert_allclose(apply_descatter(model, image), manual, atol=1e-12)
    with pytest.raises(ValueError, match="4, 4"):
        apply_descatter(model, np.zeros((5, 3, 3)))


def test_fit_descatter_validation():
    rng = np.random.default_rng(31)
    image, target = affine_image(rng, n=10)
    with pytest.raises(ValueError, match="4, 4"):
        fit_descatter(np.zeros((5, 3, 3)), np.zeros(5))
    with pytest.raises(ValueError, match="per camera pixel"):
        fit_descatter(image, target[:-1])
    with pytest.raises(ValueError, match="2 pixels"):
        fit_descatter(image[:1], target[:1])
    with pytest.raises(ValueError, match="nonzero"):
        fit_descatter(np.zeros((5, 4, 4)), np.zeros(5))
    with pytest.raises(ValueError, match="mode"):
        fit_descatter(image, target, mode="both")
    with pytest.raises(ValueError, match="method"):
        fit_descatter(image, target, method="newton")


@pytest.mark.parametrize("mode", ["full", "intensity_only"])
def test_a_descatter_fit_to_a_dark_target_is_the_zero_model(mode):
    # a zero target fits no weight and no offset, which the zero model realizes
    image = np.zeros((3, 4, 4))
    image[:, 1, 1] = [1.0, 2.0, 3.0]
    model = fit_descatter(image, np.zeros(3), mode=mode)
    assert not model.weights.any() and not model.offsets.any()
    assert model.objective == 0.0


@pytest.mark.parametrize("level", [1.0, -0.5])
def test_a_descatter_fit_collapsed_to_a_constant_is_a_value_error(level):
    # intensity_only keeps only the (0, 0) channel, which is dark here, so
    # the fit is a nonzero offset with no weight
    image = np.zeros((3, 4, 4))
    image[:, 1, 1] = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="descatter fit collapsed to a constant"):
        fit_descatter(image, np.full(3, level), mode="intensity_only")
