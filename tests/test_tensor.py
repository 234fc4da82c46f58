import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltt.analysis import summed_polarimetric_image
from pltt import tensor as tensor_module
from pltt.ellipsometry import CaptureKernel, capture, drr_schedule
from pltt.tensor import (
    DetectedTensor,
    IlluminationTensor,
    TransportTensor,
    contract,
    convolve_time,
    epipolar_masks,
    epipolar_rows,
    fold,
    probe,
    slice_polarimetric,
    slice_spatial,
    slice_temporal,
)

BIN = 1e-11


def make_dense(rng, cam=(1, 2), proj=(1, 2), bins=3):
    n_cam = cam[0] * cam[1]
    n_proj = proj[0] * proj[1]
    data = rng.normal(size=(n_cam, n_proj, 4, 4, bins))
    return TransportTensor(data, cam, proj, BIN)


def make_coaxial(rng, cam=(2, 2), bins=3):
    n_cam = cam[0] * cam[1]
    data = rng.normal(size=(n_cam, 1, 4, 4, bins))
    return TransportTensor(data, cam, cam, BIN, coaxial=True)


def naive_contract(tensor, illum):
    data = tensor.data
    n_cam, n_proj, _, _, bins = data.shape
    out = np.zeros((n_cam, 4, bins))
    for s in range(n_cam):
        for p in range(4):
            for t in range(bins):
                acc = 0.0
                if tensor.coaxial:
                    for q in range(4):
                        acc += data[s, 0, p, q, t] * illum[s, q]
                else:
                    for x in range(n_proj):
                        for q in range(4):
                            acc += data[s, x, p, q, t] * illum[x, q]
                out[s, p, t] = acc
    return out


def naive_convolve(tensor, illum):
    data = tensor.data
    n_cam, n_proj, _, _, bins = data.shape
    in_bins = illum.shape[2]
    out = np.zeros((n_cam, 4, bins))
    for s in range(n_cam):
        for p in range(4):
            for t_out in range(bins):
                acc = 0.0
                for t_in in range(min(in_bins, t_out + 1)):
                    t_tensor = t_out - t_in
                    if tensor.coaxial:
                        for q in range(4):
                            acc += data[s, 0, p, q, t_tensor] * illum[s, q, t_in]
                    else:
                        for x in range(n_proj):
                            for q in range(4):
                                acc += data[s, x, p, q, t_tensor] * illum[x, q, t_in]
                out[s, p, t_out] = acc
    return out


def test_contract_matches_naive_dense():
    rng = np.random.default_rng(0)
    tensor = make_dense(rng)
    illum = IlluminationTensor(rng.normal(size=(2, 4)), (1, 2))
    got = contract(tensor, illum)
    np.testing.assert_allclose(got.data, naive_contract(tensor, illum.data), atol=1e-12)
    assert got.cam_shape == tensor.cam_shape


def test_contract_matches_naive_coaxial():
    rng = np.random.default_rng(1)
    tensor = make_coaxial(rng)
    illum = IlluminationTensor(rng.normal(size=(4, 4)), (2, 2))
    got = contract(tensor, illum)
    np.testing.assert_allclose(got.data, naive_contract(tensor, illum.data), atol=1e-12)


def test_convolve_matches_naive():
    rng = np.random.default_rng(2)
    for tensor in (make_dense(rng), make_coaxial(rng)):
        shape = (tensor.data.shape[0] if tensor.coaxial else tensor.n_proj, 4, 5)
        illum = IlluminationTensor(
            rng.normal(size=shape), tensor.proj_shape, time_bin_width=BIN
        )
        got = convolve_time(tensor, illum)
        np.testing.assert_allclose(got.data, naive_convolve(tensor, illum.data), atol=1e-12)


def test_contract_is_linear():
    rng = np.random.default_rng(3)
    tensor = make_dense(rng)
    a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    mixed = IlluminationTensor(2.5 * a - 0.75 * b, (1, 2))
    combined = contract(tensor, mixed).data
    separate = (
        2.5 * contract(tensor, IlluminationTensor(a, (1, 2))).data
        - 0.75 * contract(tensor, IlluminationTensor(b, (1, 2))).data
    )
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_delta_illumination_picks_one_column():
    rng = np.random.default_rng(4)
    tensor = make_dense(rng)
    pattern = np.zeros((2, 4))
    pattern[1, 2] = 1.0
    got = contract(tensor, IlluminationTensor(pattern, (1, 2)))
    np.testing.assert_array_equal(got.data, tensor.data[:, 1, :, 2, :])


def test_unit_impulse_convolution_equals_contract():
    rng = np.random.default_rng(5)
    tensor = make_dense(rng)
    steady = rng.normal(size=(2, 4))
    pulsed = np.zeros((2, 4, 3))
    pulsed[:, :, 0] = steady
    via_contract = contract(tensor, IlluminationTensor(steady, (1, 2)))
    via_convolve = convolve_time(
        tensor, IlluminationTensor(pulsed, (1, 2), time_bin_width=BIN)
    )
    np.testing.assert_array_equal(via_contract.data, via_convolve.data)


def test_convolution_shift_equivariance_is_exact():
    rng = np.random.default_rng(6)
    tensor = make_dense(rng, bins=6)
    base = rng.normal(size=(2, 4, 6))
    base[:, :, -1] = 0.0   # keep the shifted copy inside the window
    shifted = np.zeros_like(base)
    shifted[:, :, 1:] = base[:, :, :-1]
    out_base = convolve_time(
        tensor, IlluminationTensor(base, (1, 2), time_bin_width=BIN)
    ).data
    out_shift = convolve_time(
        tensor, IlluminationTensor(shifted, (1, 2), time_bin_width=BIN)
    ).data
    np.testing.assert_array_equal(out_shift[:, :, 1:], out_base[:, :, :-1])
    np.testing.assert_array_equal(out_shift[:, :, 0], np.zeros((2, 4)))


def test_convolve_rejects_mismatched_bin_width():
    rng = np.random.default_rng(7)
    tensor = make_dense(rng)
    illum = IlluminationTensor(rng.normal(size=(2, 4, 3)), (1, 2), time_bin_width=2 * BIN)
    with pytest.raises(ValueError):
        convolve_time(tensor, illum)
    steady = IlluminationTensor(rng.normal(size=(2, 4)), (1, 2))
    with pytest.raises(ValueError):
        convolve_time(tensor, steady)


def test_contract_rejects_pulsed_illumination():
    rng = np.random.default_rng(8)
    tensor = make_dense(rng)
    pulsed = IlluminationTensor(rng.normal(size=(2, 4, 3)), (1, 2), time_bin_width=BIN)
    with pytest.raises(ValueError):
        contract(tensor, pulsed)


def test_slices_match_naive_loops():
    rng = np.random.default_rng(9)
    tensor = make_dense(rng)
    data = tensor.data

    spatial = np.zeros((2, 2))
    for s in range(2):
        for x in range(2):
            for t in range(3):
                spatial[s, x] += data[s, x, 0, 0, t]
    np.testing.assert_allclose(slice_spatial(tensor), spatial, atol=1e-12)

    temporal = np.zeros(3)
    for t in range(3):
        for s in range(2):
            for x in range(2):
                temporal[t] += data[s, x, 0, 0, t]
    np.testing.assert_allclose(slice_temporal(tensor), temporal, atol=1e-12)

    pol = np.zeros((4, 4))
    for p in range(4):
        for q in range(4):
            for s in range(2):
                for x in range(2):
                    for t in range(3):
                        pol[p, q] += data[s, x, p, q, t]
    np.testing.assert_allclose(slice_polarimetric(tensor), pol, atol=1e-12)


def test_slice_temporal_per_pixel_and_errors():
    rng = np.random.default_rng(10)
    tensor = make_dense(rng)
    np.testing.assert_array_equal(slice_temporal(tensor, 1, 0), tensor.data[1, 0, 0, 0, :])
    np.testing.assert_allclose(
        slice_temporal(tensor, 1), tensor.data[1, :, 0, 0, :].sum(axis=0), atol=1e-12
    )
    with pytest.raises(ValueError):
        slice_temporal(tensor, None, 0)
    with pytest.raises(ValueError):
        slice_temporal(tensor, 5)

    coax = make_coaxial(rng)
    np.testing.assert_array_equal(slice_temporal(coax, 2), coax.data[2, 0, 0, 0, :])
    np.testing.assert_array_equal(slice_temporal(coax, 2, 2), coax.data[2, 0, 0, 0, :])
    with pytest.raises(ValueError):
        slice_temporal(coax, 2, 3)


@pytest.mark.parametrize("s, s_prime, name", [
    (True, None, "s"), (1.5, None, "s"), (np.float64(1.0), None, "s"), (4, None, "s"),
    (1, True, "s_prime"), (1, 4, "s_prime"),
], ids=["bool", "float", "numpy float", "out of range", "bool s_prime", "s_prime out of range"])
def test_slice_temporal_indices_are_integers_in_range(s, s_prime, name):
    # numpy once read True as a mask and raised IndexError for a float
    tensor = make_dense(np.random.default_rng(12), cam=(2, 2), proj=(2, 2), bins=2)
    with pytest.raises(ValueError, match="^%s must be an integer >= 0 and <= 3, got " % name):
        slice_temporal(tensor, s, s_prime)


def test_probe_partition_is_exact():
    rng = np.random.default_rng(11)
    tensor = make_dense(rng, cam=(2, 2), proj=(2, 3))
    epi, non_epi = epipolar_masks((2, 2), (2, 3))
    together = probe(tensor, epi).data + probe(tensor, non_epi).data
    np.testing.assert_array_equal(together, tensor.data)


def test_probed_tensors_carry_no_noise_model():
    rng = np.random.default_rng(12)
    tensor = make_dense(rng, cam=(2, 2), proj=(2, 3))
    modelled = TransportTensor(tensor.data, (2, 2), (2, 3), BIN, noise_std=np.full((4, 4), 0.1))
    epi, _ = epipolar_masks((2, 2), (2, 3))
    assert probe(modelled, epi).noise_std is None


def test_transport_data_is_a_read_only_view_of_the_callers_array():
    own = np.random.default_rng(13).normal(size=(2, 3, 4, 4, 2))
    tensor = TransportTensor(own, (1, 2), (1, 3), BIN)
    assert np.shares_memory(tensor.data, own)
    with pytest.raises(ValueError, match="read-only"):
        tensor.data[0, 0, 0, 0, 0] = np.nan
    own[0, 0, 0, 0, 0] = 2.0
    assert tensor.data[0, 0, 0, 0, 0] == 2.0


def test_epipolar_masks_are_complementary_rows():
    epi, non_epi = epipolar_masks((2, 2), (2, 3))
    assert epi.shape == (4, 6)
    # camera pixel 0 sits in row 0, which holds projector pixels 0..2
    np.testing.assert_array_equal(epi[0], [1, 1, 1, 0, 0, 0])
    np.testing.assert_array_equal(epi[3], [0, 0, 0, 1, 1, 1])
    np.testing.assert_array_equal(epi + non_epi, np.ones((4, 6)))
    with pytest.raises(ValueError):
        epipolar_masks((2, 2), (3, 2))


def test_single_step_mask_is_rank_one():
    # a separable pattern: camera pixel 0 lit, projector pixels at weights 0.5 and 1
    rng = np.random.default_rng(12)
    tensor = make_dense(rng)
    mask = np.outer([1.0, 0.0], [0.5, 1.0])
    expected = tensor.data * mask[:, :, None, None, None]
    np.testing.assert_allclose(probe(tensor, mask).data, expected, atol=1e-15)
    np.testing.assert_array_equal(probe(tensor, mask).data[0, 0], 0.5 * tensor.data[0, 0])
    np.testing.assert_array_equal(probe(tensor, mask).data[1], 0.0)


def test_probe_rejects_coaxial_tensor():
    rng = np.random.default_rng(13)
    coax = make_coaxial(rng)
    epi, _ = epipolar_masks((2, 2), (2, 2))
    with pytest.raises(ValueError, match="coaxial"):
        probe(coax, epi)


def test_probe_mask_validation():
    tensor = make_dense(np.random.default_rng(14))
    captured = lambda tensor, mask: capture(tensor, drr_schedule(16), masks=mask)
    for mask, message in (
        ([[0.5, 1.5], [1.0, 0.0]], r"\[0, 1\]"),
        ([[0.5, -0.1], [1.0, 0.0]], r"\[0, 1\]"),
        ([[0.5, np.nan], [1.0, 0.0]], r"\[0, 1\]"),
        ([[0.5, 0.5]], "shape"),
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "shape"),
    ):
        # a rule's rows are checked at each call as the dense array is once
        rule = lambda start, n, mask=np.array(mask): mask[start:start + n]
        for op in (probe, fold, summed_polarimetric_image, captured):
            for form in (np.array(mask), rule):
                with pytest.raises(ValueError, match=message):
                    op(tensor, form)


def test_a_masked_fold_multiplies_only_the_columns_its_rows_weight(monkeypatch):
    tensor = make_dense(np.random.default_rng(15), cam=(3, 4), proj=(3, 4))
    # two camera pixels per chunk
    monkeypatch.setattr(tensor_module, "CHUNK_BYTES", 2 * 8 * 12 * 16 * 3)
    widths = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        widths.append(tuple(op.shape[1] for op in operands))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    one_hot = np.zeros((12, 12))
    one_hot[:, 5] = 1.0
    for mask, width in ((np.eye(12), 2), (lambda start, n: np.eye(n, 12, start), 2),
                        (one_hot, 1), (np.zeros((12, 12)), 0), (None, 12)):
        widths.clear()
        folded = fold(tensor, mask).data[:, 0]
        assert widths == [(width, width)] * 6
        expected = tensor.data if mask is None else probe(tensor, mask).data
        np.testing.assert_array_equal(folded, expected.sum(axis=1))


@st.composite
def dense_and_mask(draw):
    """A dense tensor with a noise model and a random 0/1 or epipolar mask for it."""
    rows, cam_w, proj_w, bins = (draw(st.integers(1, 3)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows * cam_w, rows * proj_w, 4, 4, bins)
    # entries spread over orders of magnitude make the order of additions show
    data = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    tensor = TransportTensor(data, (rows, cam_w), (rows, proj_w), BIN,
                             noise_std=rng.uniform(0, 1, size=(4, 4)))
    if draw(st.booleans()):
        mask = epipolar_masks(tensor.cam_shape, tensor.proj_shape)[draw(st.integers(0, 1))]
    else:
        mask = (rng.uniform(size=shape[:2]) < 0.5).astype(float)
    return tensor, mask


@settings(max_examples=60, deadline=None)
@given(dense_and_mask())
def test_fold_is_the_projector_sum_of_the_probe(case):
    tensor, mask = case
    probed = probe(tensor, mask)
    np.testing.assert_array_equal(fold(tensor, mask).data[:, 0], probed.data.sum(axis=1))
    # the summed image is the fold summed over its bins: s' first, then t
    np.testing.assert_array_equal(summed_polarimetric_image(tensor, mask),
                                  probed.data.sum(axis=1).sum(axis=-1))
    np.testing.assert_array_equal(summed_polarimetric_image(tensor),
                                  tensor.data.sum(axis=1).sum(axis=-1))


@settings(max_examples=30, deadline=None)
@given(dense_and_mask())
def test_fold_scales_the_noise_model_and_a_masked_fold_drops_it(case):
    tensor, mask = case
    folded = fold(tensor)
    assert folded.data.shape == (tensor.n_cam, 1, 4, 4, tensor.n_bins)
    assert folded.proj_shape == (1, 1) and not folded.coaxial
    np.testing.assert_array_equal(folded.noise_std,
                                  tensor.noise_std * np.sqrt(tensor.n_proj))
    assert fold(tensor, mask).noise_std is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_a_coaxial_tensor_is_its_own_fold_and_takes_no_mask(seed, h, w):
    coax = make_coaxial(np.random.default_rng(seed), cam=(h, w))
    assert fold(coax) is coax
    capture_kernel = lambda coax, mask: CaptureKernel(coax.header, drr_schedule(20), masks=mask)
    # a rule once went past fold's coaxial check, and the length-1 s' axis
    # broadcast against its rows: each block times its row's sum, with no error
    for mask in (np.ones((h * w, h * w)), lambda start, n: np.full((n, h * w), 0.5)):
        for operation in (fold, summed_polarimetric_image, capture_kernel):
            with pytest.raises(ValueError, match="^cannot probe a coaxial tensor"):
                operation(coax, mask)
    assert summed_polarimetric_image(coax).tobytes() == coax.data.sum(axis=(1, 4)).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_epipolar_rows_are_the_rows_of_the_dense_masks(rows, cam_w, proj_w, other_rows):
    cam, proj = (rows, cam_w), (rows, proj_w)
    masks = epipolar_masks(cam, proj)
    # camera pixel s and projector pixel s' are epipolar when they share a row
    epi = np.arange(rows * cam_w)[:, None] // cam_w == np.arange(rows * proj_w) // proj_w
    assert masks[0].tobytes() == epi.astype(float).tobytes()
    assert masks[1].tobytes() == (~epi).astype(float).tobytes()
    for rule, mask in zip(epipolar_rows(cam, proj), masks):
        for start in range(rows * cam_w):
            for n in range(1, rows * cam_w - start + 1):
                assert rule(start, n).tobytes() == mask[start:start + n].tobytes()
    if other_rows != rows:
        # a row-count mismatch fails when the rules are made, before any row is built
        with pytest.raises(ValueError, match="^rectified geometry needs equal row counts, "
                                             "got %d vs %d$" % (rows, other_rows)):
            epipolar_rows(cam, (other_rows, proj_w))


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf, "1e-10", None])
def test_transport_tensor_rejects_a_bad_bin_width(width):
    with pytest.raises(ValueError, match="time_bin_width"):
        TransportTensor(np.zeros((4, 1, 4, 4, 2)), (2, 2), (2, 2), width, coaxial=True)


def test_transport_tensor_validation():
    good = np.zeros((4, 1, 4, 4, 2))
    TransportTensor(good, (2, 2), (2, 2), BIN, coaxial=True)
    with pytest.raises(ValueError):
        TransportTensor(good, (2, 2), (2, 2), BIN)          # dense needs proj axis 4
    with pytest.raises(ValueError):
        TransportTensor(np.zeros((4, 2, 4, 4, 2)), (2, 2), (2, 2), BIN, coaxial=True)
    with pytest.raises(ValueError):
        TransportTensor(np.zeros((4, 4, 3, 4, 2)), (2, 2), (2, 2), BIN)
    with pytest.raises(ValueError):
        TransportTensor(np.zeros((4, 4, 4, 4, 2)), (2, 2), (2, 2), 0.0)
    bad = np.zeros((4, 4, 4, 4, 2))
    bad[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        TransportTensor(bad, (2, 2), (2, 2), BIN)
    TransportTensor(good, (2, 2), (2, 2), BIN, coaxial=True, noise_std=np.zeros((4, 4)))
    for std in (np.zeros(16), -np.eye(4), np.full((4, 4), np.nan), np.full((4, 4), np.inf)):
        with pytest.raises(ValueError, match="noise_std"):
            TransportTensor(good, (2, 2), (2, 2), BIN, coaxial=True, noise_std=std)


@pytest.mark.parametrize("cam, proj", [((2, 2, 1), (2, 2, 1)), ((4,), (4,)), ((2, 2), (4,)),
                                       ((0, 4), (0, 4)), ((2, 2), (2, 2, 1))])
def test_each_grid_is_two_positive_integers(cam, proj):
    # an extra or missing entry, or a zero, is a ValueError naming the grid at construction
    name = "cam_shape" if len(cam) != 2 or min(cam) < 1 else "proj_shape"
    with pytest.raises(ValueError, match="%s must be a list of 2 integers >= 1" % name):
        TransportTensor(np.zeros((4, 1, 4, 4, 1)), cam, proj, BIN, coaxial=True)


@pytest.mark.parametrize("build, name", [
    (lambda: TransportTensor(np.zeros((4, 4, 4, 4, 1)), (2.7, 2), (2, 2), BIN), "cam_shape"),
    (lambda: TransportTensor(np.zeros((4, 4, 4, 4, 1)), (2, 2), (True, 4), BIN), "proj_shape"),
    (lambda: TransportTensor(np.zeros((4, 4, 4, 4, 1)), "22", (2, 2), BIN), "cam_shape"),
    (lambda: TransportTensor(np.zeros((4, 1, 4, 4, 1)), (2, 2), (2, 2), BIN, coaxial="no"),
     "coaxial"),
    (lambda: TransportTensor(np.zeros((4, 1, 4, 4, 1)), (2, 2), (2, 2), BIN, coaxial=1),
     "coaxial"),
    (lambda: IlluminationTensor(np.zeros((4, 4)), (2.5, 2)), "proj_shape"),
    (lambda: DetectedTensor(np.zeros((4, 4, 1)), (2.2, 2), BIN), "cam_shape"),
    (lambda: epipolar_masks((2.5, 2), (2.5, 2)), "cam_shape"),
], ids=["float", "bool", "string", "coaxial string", "coaxial int", "illumination",
        "detected", "epipolar"])
def test_grids_and_the_coaxial_flag_are_never_converted(build, name):
    # a float, bool or string grid was once truncated into a grid, and any
    # truthy coaxial flag taken as True
    with pytest.raises(ValueError, match="^%s must be " % name) as err:
        build()
    assert "\n" not in str(err.value)


def test_a_numpy_bool_coaxial_flag_is_stored_as_a_bool():
    tensor = TransportTensor(np.zeros((4, 1, 4, 4, 1)), (2, 2), (2, 2), BIN, coaxial=np.True_)
    assert type(tensor.coaxial) is bool and tensor.coaxial


@pytest.mark.parametrize("build, message", [
    (lambda: TransportTensor(np.zeros((4, 1, 4, 4, 1)), (2, 2), (1, 4), BIN, coaxial=True),
     "coaxial tensors must have proj_shape equal to cam_shape"),
    (lambda: IlluminationTensor(np.zeros((4, 4, 2)), (2, 2)),
     "time-resolved illumination needs a time_bin_width"),
    (lambda: contract(make_coaxial(np.random.default_rng(0)),
                      IlluminationTensor(np.zeros((2, 4)), (1, 2))),
     r"illumination grid \(1, 2\) does not match tensor projector grid \(2, 2\)"),
    (lambda: convolve_time(make_coaxial(np.random.default_rng(0)),
                           IlluminationTensor(np.zeros((2, 4, 1)), (1, 2), BIN)),
     r"illumination grid \(1, 2\) does not match tensor projector grid \(2, 2\)"),
], ids=["coaxial grids differ", "pulse without bin width", "contract", "convolve_time"])
def test_layout_and_illumination_mismatches_are_value_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_detected_tensor_shape_checks():
    DetectedTensor(np.zeros((4, 4, 3)), (2, 2), BIN)
    with pytest.raises(ValueError):
        DetectedTensor(np.zeros((3, 4, 3)), (2, 2), BIN)
    with pytest.raises(ValueError):
        DetectedTensor(np.zeros((4, 3, 3)), (2, 2), BIN)
