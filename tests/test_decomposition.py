import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import binom, norm

from pltt.decomposition import (
    NOISE_Z,
    _COHERENCY,
    decompose_tensor,
    diattenuation,
    lit_blocks,
    noise_floor,
    polar_decompose,
    polarizance,
)
from pltt.ellipsometry import capture, design_matrix, drr_schedule, reconstruct
from pltt.polarization import (
    ideal_mirror,
    linear_polarizer,
    quarter_wave_plate,
    retarder,
)
from pltt.scene import fresnel_mueller, generate_ensemble
from pltt.tensor import TransportTensor


def fresnel_degree(eta, theta_i):
    # (R_s - R_p) / (R_s + R_p) straight from the amplitude coefficients
    theta_t = np.arcsin(np.sin(theta_i) / eta)
    r_s = (np.cos(theta_i) - eta * np.cos(theta_t)) / (np.cos(theta_i) + eta * np.cos(theta_t))
    r_p = (eta * np.cos(theta_i) - np.cos(theta_t)) / (eta * np.cos(theta_i) + np.cos(theta_t))
    big_rs, big_rp = r_s ** 2, r_p ** 2
    return (big_rs - big_rp) / (big_rs + big_rp)


def random_diattenuator(rng):
    d_mag = rng.uniform(0.05, 0.9)
    d_hat = rng.normal(size=3)
    d_hat /= np.linalg.norm(d_hat)
    root = np.sqrt(1.0 - d_mag ** 2)
    m = np.empty((4, 4))
    m[0, 0] = 1.0
    m[0, 1:] = d_mag * d_hat
    m[1:, 0] = d_mag * d_hat
    m[1:, 1:] = root * np.eye(3) + (1.0 - root) * np.outer(d_hat, d_hat)
    return m * rng.uniform(0.3, 1.0)


def random_depolarizer(rng, with_polarizance=False):
    m = np.eye(4)
    m[1:, 1:] = np.diag(rng.uniform(0.2, 0.95, 3))
    if with_polarizance:
        m[1:, 0] = rng.uniform(-0.2, 0.2, 3)
    return m


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 1.2])
def test_quarter_wave_plate_retardance_is_quarter_wave(theta):
    result = polar_decompose(quarter_wave_plate(theta))
    assert result.retardance == pytest.approx(np.pi / 2, abs=1e-12)
    assert result.diattenuation == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.recompose(), quarter_wave_plate(theta), atol=1e-12)
    assert not result.singular_diattenuator
    assert not result.negative_det_branch


@pytest.mark.parametrize("delta", [0.7, 2.5])
def test_retarder_magnitude_recovered(delta):
    result = polar_decompose(retarder(0.9, delta))
    assert result.retardance == pytest.approx(delta, abs=1e-12)


def test_linear_polarizer_is_singular_unit_diattenuator():
    m = linear_polarizer(0.4)
    result = polar_decompose(m)
    assert result.diattenuation == pytest.approx(1.0, abs=1e-12)
    assert result.singular_diattenuator
    np.testing.assert_allclose(result.recompose(), m, atol=1e-12)


def test_ideal_depolarizer_has_zero_polarizance():
    m = np.diag([0.7, 0.0, 0.0, 0.0])
    result = polar_decompose(m)
    assert result.polarizance == pytest.approx(0.0, abs=1e-12)
    assert result.retardance == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.recompose(), m, atol=1e-12)
    # the retarder factor is undefined behind total depolarization; the SVD
    # of the zero block gives the identity
    np.testing.assert_array_equal(result.m_ret, np.eye(4))
    assert not result.singular_diattenuator


def test_brewster_reflection_is_a_pure_polarizer():
    eta = 1.5
    m = fresnel_mueller(eta, np.arctan(eta))
    assert diattenuation(m) == pytest.approx(1.0, abs=1e-9)
    assert polarizance(m) == pytest.approx(1.0, abs=1e-9)
    assert polar_decompose(m).singular_diattenuator


@pytest.mark.parametrize("theta_i", [0.2, 0.9, 1.2])
def test_fresnel_scalars_match_amplitude_formula(theta_i):
    m = fresnel_mueller(1.5, theta_i)
    expected = fresnel_degree(1.5, theta_i)
    assert diattenuation(m) == pytest.approx(expected, abs=1e-12)
    assert polarizance(m) == pytest.approx(expected, abs=1e-12)


def test_mirror_retardance_is_half_wave():
    result = polar_decompose(ideal_mirror())
    assert result.retardance == pytest.approx(np.pi, abs=1e-12)
    assert not result.negative_det_branch
    np.testing.assert_allclose(result.recompose(), ideal_mirror(), atol=1e-12)


def test_negative_determinant_block_is_flagged_and_recomposes():
    m = np.diag([1.0, 0.8, 0.7, -0.6])
    result = polar_decompose(m)
    assert result.negative_det_branch
    np.testing.assert_allclose(result.recompose(), m, atol=1e-12)


def test_constructed_products_recover_their_factors():
    rng = np.random.default_rng(0)
    for with_col in (False, True):
        for _ in range(100):
            m_depol = random_depolarizer(rng, with_polarizance=with_col)
            m_ret = retarder(rng.uniform(0, np.pi), rng.uniform(0.2, 2.9))
            m_diat = random_diattenuator(rng)
            m = m_depol @ m_ret @ m_diat
            result = polar_decompose(m)
            np.testing.assert_allclose(result.m_depol, m_depol, atol=1e-12)
            np.testing.assert_allclose(result.m_ret, m_ret, atol=1e-12)
            np.testing.assert_allclose(result.m_diat, m_diat, atol=1e-12)
            np.testing.assert_allclose(result.recompose(), m, atol=1e-12)
            assert not result.singular_diattenuator


def test_ensemble_recomposition_below_tolerance():
    mats = generate_ensemble(41, 300).samples
    checked = 0
    for m in mats:
        result = polar_decompose(m)
        if result.singular_diattenuator or result.diattenuation > 0.99:
            continue
        checked += 1
        assert np.abs(result.recompose() - m).max() < 1e-8
    assert checked > 250


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rank=st.integers(1, 4))
def test_physical_blocks_recompose_property(data, rank):
    # a mixture of `rank` Jones systems: coherency H = G G^H is positive semidefinite,
    # and the inverse of the coherency map takes it to a realisable Mueller block
    part = arrays(np.float64, (4, rank), elements=st.floats(-1.0, 1.0))
    g = data.draw(part, label="real") + 1j * data.draw(part, label="imag")
    coherency = g @ g.conj().T
    m = (coherency.reshape(16) @ np.linalg.inv(_COHERENCY)).real.reshape(4, 4)
    assume(m[0, 0] > 1e-6)
    result = polar_decompose(m)
    # a singular diattenuator is inverted by a pseudoinverse and recomposes only
    # approximately; below the cut 1 - D = 1e-7, inverting M_D amplifies rounding
    # by (1 + D) / (1 - D) < 2e7
    assume(not result.singular_diattenuator)
    assert np.abs(result.recompose() - m).max() <= 1e-8 * m[0, 0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rank=st.integers(1, 4))
def test_physical_blocks_recompose_at_every_scale(data, rank):
    # the blocks of the property above, scaled to m00 from subnormal up to
    # 1e300: polarizance and diattenuation are read from the m00-normalised
    # block, so they do not move with the scale. D < 0.999 keeps the rounding
    # that inverting M_D amplifies by (1 + D) / (1 - D) below 1e-12; the
    # property above covers the blocks nearer the singular cut
    part = arrays(np.float64, (4, rank), elements=st.floats(-1.0, 1.0))
    g = data.draw(part, label="real") + 1j * data.draw(part, label="imag")
    m = ((g @ g.conj().T).reshape(16) @ np.linalg.inv(_COHERENCY)).real.reshape(4, 4)
    assume(m[0, 0] > 1e-6 and diattenuation(m) < 0.999)
    m00 = np.array([1e-310, 1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e150, 1e200, 1e300])
    stack = m * (m00 / m[0, 0])[:, None, None]
    result = polar_decompose(stack)
    error = np.abs(result.recompose() - stack).max(axis=(1, 2))
    assert np.all(error <= 1e-12 * stack[:, 0, 0])
    for name in ("polarizance", "diattenuation"):
        values = getattr(result, name)
        assert np.abs(values - values[m00 == 1.0]).max() <= 1e-12, name


def test_a_block_with_subnormal_entries_decomposes_without_a_warning():
    # found by test_physical_blocks_recompose_property: the depolarizer block's
    # determinant once raised "divide by zero encountered in det". Its m'_3 has
    # rank 1, so its sign branch is not determined and is not checked
    g = np.full((4, 2), 2.22507386e-309) + 1j * np.array([[0.75, 0], [0, 1], [0, 0], [0, 0]])
    m = ((g @ g.conj().T).reshape(16) @ np.linalg.inv(_COHERENCY)).real.reshape(4, 4)
    result = polar_decompose(m)
    assert np.abs(result.recompose() - m).max() <= 1e-8 * m[0, 0]


def test_a_block_with_a_singular_depolarizer_recomposes():
    # H = G G^H has eigenvalues 0.595 and 0.220; m00 0.815, D 0.970, and its
    # depolarizer block is singular (cond 1.4e15), so the retarder is not
    # determined, but the factors still recompose the block
    g = np.array([[0, -0.167 + 0.752j], [0, 0], [0.325 - 0.314j, 0.031 + 0.007j],
                  [-0.121 - 0.045j, 0]])
    m = ((g @ g.conj().T).reshape(16) @ np.linalg.inv(_COHERENCY)).real.reshape(4, 4)
    result = polar_decompose(m)
    assert not result.singular_diattenuator
    assert np.abs(result.recompose() - m).max() <= 1e-12 * m[0, 0]


def test_pure_reflections_have_exact_retardance():
    # a Fresnel reflection off a dielectric is a diattenuator and a half-wave
    # or no retarder: its retardance is 0 or pi to rounding
    result = polar_decompose([fresnel_mueller(1.5, t) for t in np.linspace(0.05, 1.5, 400)])
    ret = result.retardance[~result.singular_diattenuator]
    assert len(ret) > 390
    assert np.minimum(ret, np.pi - ret).max() <= 1e-12


def test_decompose_rejects_nonpositive_throughput():
    with pytest.raises(ValueError, match="m00"):
        polar_decompose(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="4x4"):
        polar_decompose(np.eye(3))
    with pytest.raises(ValueError, match="m00"):
        diattenuation(-np.eye(4))
    with pytest.raises(ValueError, match="m00"):
        polarizance(np.diag([0.0, 1.0, 1.0, 1.0]))


def make_mixed_tensor():
    data = np.zeros((1, 2, 4, 4, 3))
    data[0, 0, :, :, 1] = quarter_wave_plate(0.0)
    data[0, 1, :, :, 0] = 0.5 * fresnel_mueller(1.5, 0.9)
    data[0, 1, :, :, 2] = 1e-12 * np.eye(4)
    return TransportTensor(data, cam_shape=(1, 1), proj_shape=(1, 2),
                           time_bin_width=1e-10)


def test_decompose_tensor_maps_and_null_mask():
    tensor = make_mixed_tensor()
    result = decompose_tensor(tensor)
    assert result.retardance.shape == (1, 2, 3)
    assert result.retardance[0, 0, 1] == pytest.approx(np.pi / 2, abs=1e-12)
    assert result.diattenuation[0, 1, 0] == pytest.approx(fresnel_degree(1.5, 0.9), abs=1e-12)
    np.testing.assert_allclose(result.m_ret[0, 0, 1], quarter_wave_plate(0.0), atol=1e-12)
    # dark blocks (including the one below the floor) carry NaN everywhere
    assert result.n_null == 4
    assert result.null_mask.sum() == 4
    assert np.isnan(result.retardance[0, 0, 0])
    assert np.isnan(result.retardance[0, 1, 2])
    assert np.isnan(result.m_depol[0, 0, 2]).all()


def test_decompose_tensor_floor_is_relative():
    tensor = make_mixed_tensor()
    eager = decompose_tensor(tensor, floor_frac=0.0)
    assert eager.n_null == 3
    assert not np.isnan(eager.retardance[0, 1, 2])
    strict = decompose_tensor(tensor, floor_frac=0.9)
    assert strict.n_null == 5


def make_branch_tensor():
    # one block per fallback, one plain block and one dark block
    blocks = [
        quarter_wave_plate(0.3),                 # no fallback
        linear_polarizer(0.4),                   # singular diattenuator
        np.diag([1.0, 0.8, 0.7, -0.6]),          # negative-determinant branch
        np.diag([0.7, 0.0, 0.0, 0.0]),           # ideal depolarizer: no retarder
        np.zeros((4, 4)),                        # dark: below the floor
    ]
    data = np.zeros((5, 1, 4, 4, 1))
    for s, m in enumerate(blocks):
        data[s, 0, :, :, 0] = m
    return TransportTensor(data, cam_shape=(1, 5), proj_shape=(1, 5),
                           time_bin_width=1e-10, coaxial=True)


def test_decompose_tensor_counts_every_fallback_in_one_log_line(caplog):
    with caplog.at_level(logging.INFO, logger="pltt.decomposition"):
        result = decompose_tensor(make_branch_tensor())
    assert result.n_null == 1
    assert result.n_singular == 1
    assert result.n_negative_det == 1
    # diag(1, 0.8, 0.7, -0.6) has the coherency eigenvalue (1 - 0.8 - 0.7 - 0.6) / 4
    assert result.n_unrealisable == 1
    records = [r for r in caplog.records if r.name == "pltt.decomposition"]
    assert len(records) == 1
    assert records[0].levelno == logging.INFO
    assert records[0].getMessage().endswith(
        ": n_singular=1, n_negative_det=1, n_unrealisable=1")


def test_non_finite_blocks_raise_a_counting_value_error():
    stack = np.stack([quarter_wave_plate(0.1)] * 4)
    stack[1, 2, 3] = np.nan
    stack[3, 0, 0] = np.inf
    with pytest.raises(ValueError, match="2 Mueller block"):
        polar_decompose(stack)
    tensor = make_branch_tensor()
    # a tensor's data is read-only, so a NaN cannot reach decompose_tensor
    # after the tensor checked it; poisoned data fails when the tensor is built
    with pytest.raises(ValueError, match="read-only"):
        tensor.data[4, 0, 0, 0, 0] = np.nan
    data = tensor.data.copy()
    data[4, 0, 0, 0, 0] = np.nan
    data[0, 0, 1, 2, 0] = -np.inf
    with pytest.raises(ValueError, match="^transport data must be finite numbers"):
        TransportTensor(data, tensor.cam_shape, tensor.proj_shape, tensor.time_bin_width,
                        coaxial=True)


def test_single_block_keeps_scalar_types():
    result = polar_decompose(linear_polarizer(0.2))
    for name in ("polarizance", "retardance", "diattenuation"):
        assert type(getattr(result, name)) is float
    for name in ("singular_diattenuator", "negative_det_branch"):
        assert type(getattr(result, name)) is bool
    assert result.m_ret.shape == (4, 4)


def random_products(rng, shape):
    n = int(np.prod(shape))
    out = np.empty((n, 4, 4))
    for i in range(n):
        m_depol = random_depolarizer(rng, with_polarizance=bool(rng.integers(2)))
        if rng.integers(2):
            m_depol[3, 3] *= -1.0                # exercise the negative-det branch
        m_ret = retarder(rng.uniform(0, np.pi), rng.uniform(0.0, 2 * np.pi))
        out[i] = m_depol @ m_ret @ random_diattenuator(rng)
    return out.reshape(shape + (4, 4))


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
def test_stack_call_equals_per_block_calls(shape, seed):
    stack = random_products(np.random.default_rng(seed), shape)
    batched = polar_decompose(stack)
    assert batched.m_ret.shape == shape + (4, 4)
    assert np.shape(batched.retardance) == shape
    assert np.abs(batched.recompose() - stack).max() < 1e-8
    for idx in np.ndindex(*shape):
        single = polar_decompose(stack[idx])
        for name in ("m_depol", "m_ret", "m_diat"):
            np.testing.assert_allclose(getattr(batched, name)[idx], getattr(single, name),
                                       rtol=0, atol=1e-12)
        for name in ("polarizance", "retardance", "diattenuation"):
            assert np.asarray(getattr(batched, name))[idx] == pytest.approx(
                getattr(single, name), abs=1e-12)
        for name in ("singular_diattenuator", "negative_det_branch"):
            assert np.asarray(getattr(batched, name))[idx] == getattr(single, name)


def realisable_depolarizer(rng):
    # diag(1, a, b, c) is realisable exactly when (a, b, c) lies in the
    # tetrahedron spanned by (1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
    return np.diag(np.concatenate(([1.0], rng.dirichlet(np.ones(4)) @ vertices)))


def coaxial_tensor(blocks, noise_std=None):
    blocks = np.asarray(blocks, dtype=float)
    n = blocks.shape[0]
    return TransportTensor(blocks[:, None, :, :, None], (1, n), (1, n), 1e-10, coaxial=True,
                           noise_std=noise_std)


def test_realisable_products_count_zero_and_a_superluminous_block_counts_one():
    # criterion 5's depolarizer * retarder * diattenuator products, with the
    # depolarizer drawn from the realisable set: criterion 5's own draws
    # (diagonal in [0.2, 0.95], polarizance column in [-0.2, 0.2]) are not
    # all realisable
    rng = np.random.default_rng(55)
    products = [realisable_depolarizer(rng) @ retarder(rng.uniform(0, np.pi),
                                                       rng.uniform(0, 2 * np.pi))
                @ random_diattenuator(rng) for _ in range(200)]
    products += [linear_polarizer(0.3), quarter_wave_plate(0.7), ideal_mirror(),
                 fresnel_mueller(1.5, np.arctan(1.5)), np.diag([0.7, 0.0, 0.0, 0.0])]
    assert decompose_tensor(coaxial_tensor(products)).n_unrealisable == 0
    superluminous = np.zeros((4, 4))
    superluminous[0, :2] = [1.0, 1.2]     # |m01| > m00: more light out than in
    result = decompose_tensor(coaxial_tensor(products + [superluminous]))
    assert result.n_unrealisable == 1


def test_noise_model_counts_only_blocks_unrealisable_beyond_the_noise():
    # pure retarder * diattenuator blocks have three zero coherency
    # eigenvalues, so noise alone puts nearly every one below zero (399 of 400)
    rng = np.random.default_rng(23)
    sigma = 5e-4
    pure = np.array([retarder(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
                     @ random_diattenuator(rng) for _ in range(400)])
    noisy = pure + rng.normal(0.0, sigma, pure.shape)
    assert decompose_tensor(coaxial_tensor(noisy)).n_unrealisable > 300
    std = np.full((4, 4), sigma)
    assert decompose_tensor(coaxial_tensor(noisy, std)).n_unrealisable == 0
    # an eigenvalue of -0.275 m00 stays far beyond 5 * ||noise_std||_F / 2 = 5e-3
    unrealisable = np.concatenate([noisy, [np.diag([1.0, 0.8, 0.7, -0.6])]])
    assert decompose_tensor(coaxial_tensor(unrealisable, std)).n_unrealisable == 1


def test_noise_model_raises_the_floor_and_its_absence_keeps_the_relative_one():
    tensor = make_mixed_tensor()
    m00 = tensor.data[:, :, 0, 0, :]
    for floor_frac in (0.0, 1e-6, 0.9):
        # the relative floor as it stood before noise models existed
        reference = (m00 > floor_frac * max(m00.max(), 0.0)) & (m00 > 0)
        np.testing.assert_array_equal(lit_blocks(tensor, floor_frac)[1], reference)
    assert noise_floor(tensor) is None
    std = np.full((4, 4), 0.005)
    modelled = TransportTensor(tensor.data, (1, 1), (1, 2), 1e-10, noise_std=std)
    assert noise_floor(modelled) == NOISE_Z * 0.005
    # the lit m00 values are 1, 0.030 and 1e-12: 5 * 0.01 drops the second
    strong = TransportTensor(tensor.data, (1, 1), (1, 2), 1e-10, noise_std=2 * std)
    assert lit_blocks(modelled, 1e-6)[1].sum() == 2
    assert lit_blocks(strong, 1e-6)[1].sum() == 1
    # the larger of the two floors applies
    assert lit_blocks(modelled, 0.9)[1].sum() == 1


COAX_DRR36_PINV = np.linalg.pinv(design_matrix(drr_schedule(36), coaxial=True).a)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sigma=st.floats(1e-6, 1e-1), seed=st.integers(0, 2**32 - 1),
       n_lit=st.integers(1, 32))
def test_noise_floor_keeps_lit_blocks_and_drops_noise_at_the_gaussian_rate(sigma, seed, n_lit):
    """
    Capture and reconstruct a coaxial tensor of dark blocks and lit ones
    whose m00 is 8 to 1000 standard deviations of the m00 noise, then
    apply the floor the stored noise model sets.

    A dark block passes 5 standard deviations with probability
    P(Z > 5) ~ 2.9e-7, so the count kept must not be improbable under
    that rate. A lit block at 8 standard deviations is dropped with
    probability P(Z < -3) ~ 1.3e-3, and with m00 spread log-uniformly up
    to 1000 about 1e-5 on average, so the draws are fixed.
    """
    rng = np.random.default_rng(seed)
    sigma_m00 = sigma * np.linalg.norm(COAX_DRR36_PINV[0])
    n_blocks = 4096
    lit = np.zeros(n_blocks, dtype=bool)
    lit[rng.choice(n_blocks, n_lit, replace=False)] = True
    blocks = np.zeros((n_blocks, 4, 4))
    m00 = sigma_m00 * np.exp(rng.uniform(np.log(8.0), np.log(1000.0), n_lit))
    blocks[lit] = m00[:, None, None] * np.stack([
        realisable_depolarizer(rng) @ retarder(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        for _ in range(n_lit)])
    recon = reconstruct(capture(coaxial_tensor(blocks), drr_schedule(36), noise_sigma=sigma,
                                seed=seed)).tensor
    kept = lit_blocks(recon, 1e-6)[1][:, 0, 0]
    assert np.all(kept[lit])
    n_dark_kept = int(np.sum(kept & ~lit))
    assert binom.sf(n_dark_kept - 1, n_blocks - n_lit, norm.sf(NOISE_Z)) > 1e-6


@pytest.mark.parametrize("name", ["m_depol", "m_ret", "m_diat"])
def test_full_grid_factors_scatter_the_kept_blocks(name):
    result = decompose_tensor(make_mixed_tensor())
    grid = getattr(result, name)
    assert grid.shape == result.null_mask.shape + (4, 4)
    assert np.isnan(grid[result.null_mask]).all()
    np.testing.assert_array_equal(grid[~result.null_mask], getattr(result.factors, name))
