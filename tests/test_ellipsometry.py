import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pltt.tensor
from pltt.ellipsometry import (
    RANK_TOL,
    AngleSchedule,
    Decoder,
    MeasurementSet,
    _ArrayWriter,
    _arm,
    capture,
    design_matrix,
    drr_schedule,
    forward_model,
    load_schedule,
    pinv_truncated,
    reconstruct,
    save_schedule,
    schedule_from_dict,
)
from pltt.fileio import read_pltt, write_pltt
from pltt.learning import evaluate
from pltt.polarization import beamsplitter, galvo_mirror, linear_polarizer, quarter_wave_plate
from pltt.scene import generate_ensemble
from pltt.tensor import CHUNK_BYTES, TransportTensor, epipolar_masks, probe

BIN = 1e-10
UNPOL = np.array([1.0, 0.0, 0.0, 0.0])
ARRAY_ANALYZERS = np.deg2rad([0.0, 45.0, 90.0, 135.0])


def random_schedule(rng, k, sensor_mode="intensity"):
    return AngleSchedule(
        theta1=rng.uniform(0, np.pi, k),
        theta2=rng.uniform(0, np.pi, k),
        theta3=rng.uniform(0, np.pi, k),
        theta4=rng.uniform(0, np.pi, k),
        sensor_mode=sensor_mode,
    )


def chain_intensity(m, th1, th2, th3, th4):
    # the full element chain, written out longhand as the oracle
    source = quarter_wave_plate(th2) @ linear_polarizer(th1) @ UNPOL
    analyzed = linear_polarizer(th4) @ quarter_wave_plate(th3) @ m @ source
    return analyzed[0]


def design_intensities(m, schedule):
    return design_matrix(schedule).a @ np.asarray(m).reshape(16)


def test_design_rows_match_longhand_chain():
    rng = np.random.default_rng(0)
    schedule = random_schedule(rng, 6)
    m = rng.normal(size=(4, 4))
    predicted = design_intensities(m, schedule)
    for k in range(6):
        expected = chain_intensity(
            m, schedule.theta1[k], schedule.theta2[k],
            schedule.theta3[k], schedule.theta4[k],
        )
        assert predicted[k] == pytest.approx(expected, abs=1e-12)


def test_design_row_of_identity_at_zero_angles():
    schedule = drr_schedule(1)
    assert design_intensities(np.eye(4), schedule)[0] == pytest.approx(0.5, abs=1e-12)


def test_polarizer_array_rows_are_capture_major():
    rng = np.random.default_rng(1)
    schedule = random_schedule(rng, 3, "polarizer_array")
    m = rng.normal(size=(4, 4))
    predicted = design_intensities(m, schedule)
    for k in range(3):
        source = quarter_wave_plate(schedule.theta2[k]) \
            @ linear_polarizer(schedule.theta1[k]) @ UNPOL
        for q, ang in enumerate(ARRAY_ANALYZERS):
            expected = (linear_polarizer(ang) @ quarter_wave_plate(schedule.theta3[k])
                        @ m @ source)[0]
            assert predicted[4 * k + q] == pytest.approx(expected, abs=1e-12)


def test_design_matrix_rows_reproduce_forward_model():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4))
    for mode in ("intensity", "polarizer_array"):
        schedule = random_schedule(rng, 5, mode)
        predicted = design_intensities(m, schedule)
        row = 0
        for k in range(5):
            angles = (schedule.theta1[k], schedule.theta2[k], schedule.theta3[k])
            # the array sensor's fixed analyzers stand in for theta4
            detector = [schedule.theta4[k]] if mode == "intensity" else ARRAY_ANALYZERS
            for th4 in detector:
                assert predicted[row] == pytest.approx(
                    chain_intensity(m, *angles, th4), abs=1e-12
                )
                row += 1
        assert row == schedule.n_rows


def longhand_vectors(schedule, coaxial, split):
    # per-capture element chains, with the coaxial folds written out
    into_scene = np.eye(4)
    out_of_scene = np.eye(4)
    if coaxial:
        into_scene = galvo_mirror() @ beamsplitter("transmit", split)
        out_of_scene = beamsplitter("reflect", 1.0 - split) @ galvo_mirror()
    c, r = [], []
    for k in range(schedule.n_captures):
        c.append(into_scene @ quarter_wave_plate(schedule.theta2[k])
                 @ linear_polarizer(schedule.theta1[k]) @ UNPOL)
        detector = quarter_wave_plate(schedule.theta3[k]) @ out_of_scene
        if schedule.sensor_mode == "polarizer_array":
            r.extend((linear_polarizer(ang) @ detector)[0] for ang in ARRAY_ANALYZERS)
        else:
            r.append((linear_polarizer(schedule.theta4[k]) @ detector)[0])
    return np.array(c), np.array(r)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 36),
       mode=st.sampled_from(["intensity", "polarizer_array"]),
       coaxial=st.booleans(),
       # subnormal splits leave too few significant bits for any difference quotient
       split=st.floats(0.0, 1.0, allow_subnormal=False),
       seed=st.integers(0, 2**32 - 1))
def test_forward_model_matches_longhand_chain_and_central_differences(
        k, mode, coaxial, split, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(4, k))
    schedule = AngleSchedule(*angles, sensor_mode=mode)
    fwd = forward_model(schedule, coaxial, split)
    c, r = longhand_vectors(schedule, coaxial, split)
    assert fwd.c.shape == (k, 4) and fwd.r.shape == (schedule.n_rows, 4)
    np.testing.assert_allclose(fwd.c, c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fwd.r, r, rtol=0, atol=1e-12)

    # captures are independent, so moving a whole angle column at once
    # gives every capture's own derivative
    h = 1e-6
    for slot, derivative in enumerate((fwd.dc1, fwd.dc2, fwd.dr3, fwd.dr4)):
        step = np.zeros_like(angles)
        step[slot] = h
        up = forward_model(AngleSchedule(*(angles + step), sensor_mode=mode), coaxial, split)
        down = forward_model(AngleSchedule(*(angles - step), sensor_mode=mode), coaxial, split)
        field = "c" if slot < 2 else "r"
        fd = (getattr(up, field) - getattr(down, field)) / (2.0 * h)
        scale = max(np.abs(derivative).max(), np.abs(fd).max())
        assert np.abs(fd - derivative).max() <= 1e-6 * scale


def closed_form_arm(alpha, beta):
    # v(alpha, beta) = 1/2 [1, c cos 2d, s cos 2d, sin 2d] with c = cos 2beta,
    # s = sin 2beta, d = beta - alpha, and its two derivatives, term by term
    alpha, beta = np.broadcast_arrays(alpha, beta)
    c, s = np.cos(2.0 * beta), np.sin(2.0 * beta)
    cos2d, sin2d = np.cos(2.0 * (beta - alpha)), np.sin(2.0 * (beta - alpha))
    zero = np.zeros_like(c)
    v = np.stack([zero + 0.5, 0.5 * (c * cos2d), 0.5 * (s * cos2d), 0.5 * sin2d], axis=-1)
    dv_dalpha = np.stack([zero, c * sin2d, s * sin2d, -cos2d], axis=-1)
    dv_dbeta = np.stack([zero, -(s * cos2d) - c * sin2d, c * cos2d - s * sin2d, cos2d], axis=-1)
    return v, dv_dalpha, dv_dbeta


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 36), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_arm_is_the_closed_form_bit_for_bit(k, wide, seed):
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(-2 * np.pi, 2 * np.pi, size=(2, k, 5) if wide else (2, k))
    arms = _arm(alpha, beta)
    assert arms.shape == alpha.shape + (3, 4)
    for got, want in zip(np.moveaxis(arms, -2, 0), closed_form_arm(alpha, beta)):
        assert_same_bits(got, want)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 36),
       mode=st.sampled_from(["intensity", "polarizer_array"]),
       coaxial=st.booleans(),
       split=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_forward_model_is_the_closed_form_bit_for_bit(k, mode, coaxial, split, seed):
    # capture and reconstruct read the same vectors, so these bits are the
    # bits of every design matrix
    rng = np.random.default_rng(seed)
    theta1, theta2, theta3, theta4 = rng.uniform(-2 * np.pi, 2 * np.pi, size=(4, k))
    fwd = forward_model(AngleSchedule(theta1, theta2, theta3, theta4, sensor_mode=mode),
                        coaxial, split)
    c, dc1, dc2 = closed_form_arm(theta1, theta2)
    front = ARRAY_ANALYZERS[None, :] if mode == "polarizer_array" else theta4[:, None]
    # an analyzer row is v(theta4, theta3) with its circular component negated
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    r, dr4, dr3 = (x.reshape(-1, 4) * flip for x in closed_form_arm(front, theta3[:, None]))
    if mode == "polarizer_array":
        dr4 = np.zeros_like(r)
    if coaxial:
        into_scene = galvo_mirror() @ beamsplitter("transmit", split)
        out_of_scene = beamsplitter("reflect", 1.0 - split) @ galvo_mirror()
        c, dc1, dc2 = (x @ into_scene.T for x in (c, dc1, dc2))
        r, dr3, dr4 = (x @ out_of_scene for x in (r, dr3, dr4))
    for got, want in zip(fwd, (c, r, dc1, dc2, dr3, dr4)):
        assert_same_bits(got, want)


def test_drr_schedule_structure():
    schedule = drr_schedule(36)
    assert schedule.n_captures == 36
    assert schedule.fixed == (True, False, False, True)
    np.testing.assert_allclose(schedule.theta1, 0.0, atol=1e-15)
    np.testing.assert_allclose(schedule.theta4, 0.0, atol=1e-15)
    np.testing.assert_allclose(schedule.theta2, np.deg2rad(5.0 * np.arange(36)), atol=1e-12)
    np.testing.assert_allclose(schedule.theta3, np.deg2rad(25.0 * np.arange(36)), atol=1e-12)
    # the retarders keep their 1:5 ratio capture by capture
    ratio = schedule.theta3[1:] / schedule.theta2[1:]
    np.testing.assert_allclose(ratio, 5.0, atol=1e-12)


def test_design_rank_by_schedule_size():
    assert design_matrix(drr_schedule(36)).rank == 16
    assert design_matrix(drr_schedule(15)).rank == 15
    assert design_matrix(drr_schedule(8)).rank == 8
    assert design_matrix(drr_schedule(15, sensor_mode="polarizer_array")).rank == 16
    assert design_matrix(drr_schedule(36), coaxial=True).rank == 16


@pytest.mark.parametrize("schedule, coaxial, split", [
    (drr_schedule(8), False, 0.5),
    (drr_schedule(15), False, 0.5),
    (drr_schedule(36), False, 0.5),
    (drr_schedule(15, sensor_mode="polarizer_array"), False, 0.5),
    (drr_schedule(36), True, 0.4),
])
def test_design_matrix_and_pinv_truncated_agree_on_rank_and_cond(schedule, coaxial, split):
    design = design_matrix(schedule, coaxial=coaxial, split=split)
    _, rank, cond = pinv_truncated(design.a)
    assert (design.rank, design.cond) == (rank, cond)
    tensor = random_tensor(np.random.default_rng(5), coaxial, cam=(1, 1), bins=1)
    result = reconstruct(capture(tensor, schedule, split=split))
    assert (result.rank, result.cond) == (rank, cond)
    if not coaxial:    # learning's designs are never coaxial
        assert evaluate(schedule, np.zeros((1, 4, 4)), 1e-3)["design_rank"] == rank


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 36),
       mode=st.sampled_from(["intensity", "polarizer_array"]),
       coaxial=st.booleans(),
       # a split near 1e-308 leaves a design of subnormal entries
       split=st.floats(1e-300, 1.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_decoder_is_numpys_pseudoinverse_at_the_rank_cut(k, mode, coaxial, split, seed):
    rng = np.random.default_rng(seed)
    schedule = AngleSchedule(*rng.uniform(0, np.pi, size=(4, k)), sensor_mode=mode)
    a = forward_model(schedule, coaxial, split).design()
    s = np.linalg.svd(a, compute_uv=False)
    cut = RANK_TOL * s[0]
    # a singular value near the cut may fall on either side of it
    assume(not ((s > cut / 100) & (s < cut * 100)).any())
    decoder = Decoder(a)
    assert decoder.rank == np.count_nonzero(s > cut)
    want = np.linalg.pinv(a, rcond=RANK_TOL)
    np.testing.assert_allclose(decoder.pinv, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


def test_schedule_json_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    schedule = random_schedule(rng, 7, "polarizer_array")
    path = tmp_path / "sched.json"
    save_schedule(path, schedule)
    back = load_schedule(path)
    assert back.sensor_mode == "polarizer_array"
    for name in ("theta1", "theta2", "theta3", "theta4"):
        np.testing.assert_allclose(getattr(back, name), getattr(schedule, name),
                                   atol=1e-12)
    assert back.fixed == schedule.fixed


def test_integer_fixed_flags_save_and_load_as_booleans(tmp_path):
    schedule = dataclasses.replace(drr_schedule(4), fixed=(1, 0, np.int64(0), 1))
    assert schedule.fixed == (True, False, False, True)
    save_schedule(tmp_path / "sched.json", schedule)
    assert load_schedule(tmp_path / "sched.json").fixed == schedule.fixed


def random_tensor(rng, coaxial, cam=(2, 2), bins=2):
    n = cam[0] * cam[1]
    if coaxial:
        data = rng.normal(size=(n, 1, 4, 4, bins))
    else:
        data = rng.normal(size=(n, n, 4, 4, bins))
    return TransportTensor(data, cam, cam, BIN, coaxial=coaxial)


@pytest.mark.parametrize("coaxial", [False, True])
def test_noiseless_round_trip(coaxial):
    rng = np.random.default_rng(4)
    tensor = random_tensor(rng, coaxial)
    meas = capture(tensor, drr_schedule(36))
    result = reconstruct(meas)
    assert not result.underdetermined
    assert result.rank == 16
    np.testing.assert_allclose(result.tensor.data, tensor.data, atol=1e-9)
    assert result.residual_norms.max() < 1e-9


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["intensity", "polarizer_array"]),
       coaxial=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_recovery_property(data, mode, coaxial, seed):
    # ROADMAP correctness aim: reconstruct(capture(T)) = T for every rank-16 design,
    # to rounding that grows with the design's condition number
    k = data.draw(st.integers(16, 36) if mode == "intensity" else st.integers(4, 12), label="k")
    # each angle drawn on its own (no fill value): repeated angles make most
    # schedules rank deficient, and the assume below would reject them
    angles = arrays(np.float64, k, fill=st.nothing(),
                    elements=st.floats(-np.pi, np.pi, exclude_min=True, exclude_max=True))
    schedule = AngleSchedule(*(data.draw(angles, label=name)
                               for name in ("theta1", "theta2", "theta3", "theta4")),
                             sensor_mode=mode)
    split = data.draw(st.floats(0.05, 0.95), label="split") if coaxial else 0.5
    decoder = design_matrix(schedule, coaxial=coaxial, split=split)
    assume(decoder.rank == 16 and decoder.cond <= 1e6)
    tensor = random_tensor(np.random.default_rng(seed), coaxial, cam=(1, 2))
    result = reconstruct(capture(tensor, schedule, split=split))
    error = np.abs(result.tensor.data - tensor.data).max()
    assert error <= 1e-12 * decoder.cond * np.abs(tensor.data).max()


def test_reconstruction_is_linear_in_the_tensor():
    rng = np.random.default_rng(5)
    tensor = random_tensor(rng, False)
    scaled = TransportTensor(3.5 * tensor.data, tensor.cam_shape, tensor.proj_shape,
                             BIN, coaxial=False)
    rec = reconstruct(capture(tensor, drr_schedule(20))).tensor.data
    rec_scaled = reconstruct(capture(scaled, drr_schedule(20))).tensor.data
    np.testing.assert_allclose(rec_scaled, 3.5 * rec, atol=1e-9)


def test_underdetermined_schedule_is_flagged():
    rng = np.random.default_rng(6)
    tensor = random_tensor(rng, True, cam=(1, 1), bins=1)
    meas = capture(tensor, drr_schedule(8))
    result = reconstruct(meas)
    assert result.underdetermined
    assert result.rank == 8
    # the minimum-norm solution still reproduces the measurements
    assert result.residual_norms.max() < 1e-9


def test_reconstruct_estimates_the_noise_and_stores_its_model():
    rng = np.random.default_rng(13)
    tensor = random_tensor(rng, True, cam=(8, 8), bins=16)
    sigma = 5e-4
    result = reconstruct(capture(tensor, drr_schedule(36), noise_sigma=sigma, seed=13))
    # 64 x 16 solves with 36 - 16 residual degrees of freedom each: sigma_hat
    # has a relative spread of about 1 / sqrt(2 * 20480), or 0.5%
    assert abs(result.sigma_hat - sigma) < 0.02 * sigma
    a_pinv = np.linalg.pinv(design_matrix(drr_schedule(36), coaxial=True).a)
    np.testing.assert_allclose(result.tensor.noise_std,
                               result.sigma_hat * np.linalg.norm(a_pinv, axis=1).reshape(4, 4),
                               rtol=1e-9)
    # the stored per-entry stds describe the actual recovery error
    error = (result.tensor.data - tensor.data).transpose(2, 3, 0, 1, 4).reshape(4, 4, -1)
    np.testing.assert_allclose(error.std(axis=-1), result.tensor.noise_std, rtol=0.1)


def test_reconstruct_without_residual_takes_the_captured_sigma():
    rng = np.random.default_rng(14)
    tensor = random_tensor(rng, False)
    # K' = rank = 16 leaves no residual to estimate sigma from
    result = reconstruct(capture(tensor, drr_schedule(16), noise_sigma=2e-3, seed=1))
    assert result.rank == 16
    assert result.sigma_hat == 2e-3
    noiseless = reconstruct(capture(tensor, drr_schedule(16)))
    assert noiseless.sigma_hat == 0.0
    assert np.all(noiseless.tensor.noise_std == 0.0)


def test_capture_noise_is_seeded():
    rng = np.random.default_rng(7)
    tensor = random_tensor(rng, True)
    a = capture(tensor, drr_schedule(12), noise_sigma=1e-3, seed=5)
    b = capture(tensor, drr_schedule(12), noise_sigma=1e-3, seed=5)
    c = capture(tensor, drr_schedule(12), noise_sigma=1e-3, seed=6)
    np.testing.assert_array_equal(a.intensities, b.intensities)
    assert not np.array_equal(a.intensities, c.intensities)
    assert a.noise_sigma == 1e-3
    assert a.seed == 5


@pytest.mark.parametrize("schedule, coaxial, cam, bins", [
    # 16 camera pixels of 16 x 36 x 8 values: one chunk
    (drr_schedule(36), False, (4, 4), 8),
    # 36 camera pixels of 36 x 16 x 100 values: two spans of 18
    (drr_schedule(4, "polarizer_array"), False, (6, 6), 100),
    # the whole measurement is smaller than one chunk
    (drr_schedule(16), True, (4, 4), 7),
], ids=["projector-camera", "polarizer-array", "coaxial"])
def test_capture_noise_is_the_normal_stream_of_the_seed(schedule, coaxial, cam, bins):
    tensor = random_tensor(np.random.default_rng(bins), coaxial, cam=cam, bins=bins)
    clean = capture(tensor, schedule).intensities
    noisy = capture(tensor, schedule, noise_sigma=2e-3, seed=41).intensities
    # sigma * N(0, 1) drawn in the intensities' own order, one SFC64 stream per span of
    # the camera pixels that hold 2^20 intensities: SFC64(41) for span 0 (all of a
    # capture of at most 2^20), SeedSequence(41, spawn_key=(j,)) for span j
    per_span = max(1, 2**20 // clean[0].size)
    streams = [np.random.SFC64(np.random.SeedSequence(41, spawn_key=(j,)) if j else 41)
               for j in range(-(-len(clean) // per_span))]
    noise = 2e-3 * np.concatenate([
        np.random.Generator(stream).standard_normal(clean[j * per_span:(j + 1) * per_span].shape)
        for j, stream in enumerate(streams)])
    assert noisy.tobytes() == (clean + noise).tobytes()


def test_a_channel_survives_capture_and_reconstruct():
    tensor = TransportTensor(np.ones((4, 1, 4, 4, 2)), (2, 2), (2, 2), BIN, channel_id="red",
                             coaxial=True)
    meas = capture(tensor, drr_schedule(36))
    assert meas.channel_id == meas.header.channel_id == "red"
    assert reconstruct(meas).tensor.channel_id == "red"


def test_measurement_layout_does_not_change_reconstruct_or_the_container(tmp_path):
    tensor = random_tensor(np.random.default_rng(15), False, cam=(3, 3), bins=5)
    meas = capture(tensor, drr_schedule(20), noise_sigma=1e-3, seed=2)
    write_pltt(tmp_path / "meas.pltt", meas)
    back = read_pltt(tmp_path / "meas.pltt")
    assert back.intensities.shape == meas.intensities.shape == (9, 9, 20, 5)
    captured, read_back = reconstruct(meas), reconstruct(back)
    assert read_back.tensor.data.tobytes() == captured.tensor.data.tobytes()
    assert read_back.residual_norms.tobytes() == captured.residual_norms.tobytes()
    assert read_back.tensor.noise_std.tobytes() == captured.tensor.noise_std.tobytes()
    assert read_back.sigma_hat == captured.sigma_hat


def test_capture_and_reconstruct_hold_one_chunk_beyond_their_arrays(tmp_path):
    tensor = random_tensor(np.random.default_rng(16), False, cam=(8, 8), bins=16)
    path = tmp_path / "meas.pltt"
    tracemalloc.start()
    try:
        meas = capture(tensor, drr_schedule(36), noise_sigma=5e-4, seed=3)
        write_pltt(path, meas)
        capture_peak = tracemalloc.get_traced_memory()[1]
        measurement = meas.intensities.nbytes
        del meas
        meas = read_pltt(path)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = reconstruct(meas)
        reconstruct_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    slack = 1 << 20
    # the measurement and one chunk of noise
    assert capture_peak < measurement + CHUNK_BYTES + slack
    # the output tensor, the residual sums of its 64 x 64 pixels, and one
    # chunk of their residuals
    assert reconstruct_peak < (result.tensor.data.nbytes + result.residual_norms.nbytes
                               + CHUNK_BYTES + slack)


@settings(max_examples=60, deadline=None)
@given(coaxial=st.booleans(), masked=st.booleans(), lit=st.floats(0.0, 1.0),
       fill=st.floats(0.05, 1.0), cam=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       bins=st.integers(1, 4), noise=st.sampled_from([0.0, 1e-3]),
       chunk=st.integers(8, 1 << 14), seed=st.integers(0, 2**32 - 1))
def test_capture_is_the_design_product_plus_the_seeds_noise(coaxial, masked, lit, fill, cam,
                                                            bins, noise, chunk, seed):
    rng = np.random.default_rng(seed)
    n = cam[0] * cam[1]
    s_proj = 1 if coaxial else n
    # dark (s, s') pairs at random, lit blocks with some zero entries, and blocks of -0.0
    data = rng.normal(size=(n, s_proj, 4, 4, bins)) * (rng.uniform(size=(n, s_proj, 4, 4, bins))
                                                       < fill)
    data *= (rng.uniform(size=(n, s_proj)) < lit)[:, :, None, None, None]
    data[rng.uniform(size=(n, s_proj)) < 0.1] = -0.0
    tensor = TransportTensor(data, cam, cam, BIN, coaxial=coaxial)
    mask = None
    if masked and not coaxial:
        mask = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        data = data * mask[:, :, None, None, None]
    schedule = drr_schedule(20)
    with mock.patch.object(pltt.tensor, "CHUNK_BYTES", chunk):
        got = capture(tensor, schedule, noise, 9, mask).intensities
    a = forward_model(schedule, coaxial=coaxial).design()
    want = np.matmul(a, data.reshape(-1, 16, bins)).reshape(got.shape)
    if noise:
        # sigma * N(0, 1) of one SFC64 stream, drawn in the intensities' own order
        want = want + noise * np.random.Generator(np.random.SFC64(9)).standard_normal(got.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(k=st.integers(4, 48), rank=st.integers(1, 16), bins=st.sampled_from([1, 1, 2, 3, 16, 64]),
       cam=st.tuples(st.integers(1, 6), st.integers(1, 6)), coaxial=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_residual_norms_are_the_square_then_sum_of_the_residuals(k, rank, bins, cam, coaxial,
                                                                seed):
    rng = np.random.default_rng(seed)
    n = cam[0] * cam[1]
    rank = min(rank, k)
    # a design of the drawn rank: rank-deficient whenever it is below 16
    a = rng.normal(size=(k, rank)) @ rng.normal(size=(rank, 16))
    meas = MeasurementSet(rng.normal(size=(n, 1 if coaxial else n, k, bins)),
                          random_schedule(rng, k), coaxial, cam, cam, BIN)
    decoder = Decoder(a)
    norms = decoder.run(meas, _ArrayWriter(n))[2]
    stacked = meas.intensities.reshape(-1, k, bins)
    r = np.matmul(a, np.matmul(decoder.pinv, stacked)) - stacked
    r *= r
    want = np.sqrt(np.add.reduce(r, axis=1)).reshape(norms.shape)
    if bins > 1:
        assert norms.tobytes() == want.tobytes()
    else:
        # a sum over a contiguous axis of K' terms runs in another order: K' ulp
        np.testing.assert_allclose(norms, want, rtol=k * np.finfo(float).eps, atol=0.0)


def test_a_sparse_lit_capture_holds_one_chunk_beyond_its_arrays():
    # as in a projector-camera scan: the diagonal and a few pairs lit, the rest dark
    rng = np.random.default_rng(19)
    lit = rng.uniform(size=(64, 64)) < 0.05
    lit[np.arange(64), np.arange(64)] = True
    data = rng.normal(size=(64, 64, 4, 4, 16)) * lit[:, :, None, None, None]
    tensor = TransportTensor(data, (8, 8), (8, 8), BIN)
    tracemalloc.start()
    try:
        meas = capture(tensor, drr_schedule(36), noise_sigma=5e-4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the measurement and one chunk of scratch for the lit pairs' products
    assert peak < meas.intensities.nbytes + CHUNK_BYTES + (1 << 20)


@pytest.mark.parametrize("value", [np.nan, -np.inf, 1.7e308])
def test_reconstruct_rejects_measurements_it_cannot_solve(value):
    meas = capture(random_tensor(np.random.default_rng(17), True), drr_schedule(16))
    intensities = meas.intensities.copy()
    intensities[1, 0, 3, 1] = value
    with pytest.raises(ValueError, match="measurements are not finite or overflow"):
        reconstruct(dataclasses.replace(meas, intensities=intensities))


@pytest.mark.parametrize("field, value", [
    ("time_bin_width", -1.0), ("time_bin_width", 0.0), ("time_bin_width", np.nan),
    ("time_bin_width", np.inf), ("time_bin_width", "1e-10"),
    ("noise_sigma", -0.5), ("noise_sigma", np.nan), ("noise_sigma", np.inf),
])
def test_measurement_set_rejects_a_bad_bin_width_or_noise_sigma(field, value):
    meas = capture(random_tensor(np.random.default_rng(18), True), drr_schedule(16))
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(meas, **{field: value})


def test_capture_with_mask_equals_probe_then_capture():
    rng = np.random.default_rng(8)
    tensor = random_tensor(rng, False)
    epi, _ = epipolar_masks(tensor.cam_shape, tensor.proj_shape)
    masked = capture(tensor, drr_schedule(10), masks=epi)
    probed = capture(probe(tensor, epi), drr_schedule(10))
    np.testing.assert_array_equal(masked.intensities, probed.intensities)


def test_capture_mask_on_coaxial_tensor_raises():
    rng = np.random.default_rng(9)
    tensor = random_tensor(rng, True)
    epi, _ = epipolar_masks(tensor.cam_shape, tensor.cam_shape)
    with pytest.raises(ValueError, match="projector_camera"):
        capture(tensor, drr_schedule(10), masks=epi)


def test_capture_records_the_split_and_reconstruct_reads_it():
    rng = np.random.default_rng(13)
    tensor = random_tensor(rng, True)
    meas = capture(tensor, drr_schedule(36), split=0.3)
    assert meas.split == 0.3
    np.testing.assert_allclose(reconstruct(meas).tensor.data, tensor.data, atol=1e-9)
    np.testing.assert_allclose(reconstruct(meas, split=0.3).tensor.data, tensor.data,
                               atol=1e-9)
    with pytest.raises(ValueError, match="conflicts"):
        reconstruct(meas, split=0.5)


def test_capture_rejects_a_split_outside_the_unit_interval():
    rng = np.random.default_rng(14)
    # projector-camera capture never builds the beamsplitter arms
    tensor = random_tensor(rng, False)
    with pytest.raises(ValueError, match="split"):
        capture(tensor, drr_schedule(4), split=1.5)


@pytest.mark.parametrize("split", [0.0, 1.0])
def test_capture_refuses_a_split_that_sends_no_light_one_way(split):
    # the design is all zero: the record would be noise alone, and reconstruct refuses it
    tensor = random_tensor(np.random.default_rng(15), True)
    with pytest.raises(ValueError, match="^design matrix is identically zero$"):
        capture(tensor, drr_schedule(36), noise_sigma=1e-3, seed=1, split=split)


def test_coaxial_capture_folds_the_optics():
    # one coaxial pixel: the measured row must equal the coaxial design
    # matrix applied to the block, which bakes in splitter and galvo
    rng = np.random.default_rng(10)
    tensor = random_tensor(rng, True, cam=(1, 1), bins=1)
    schedule = drr_schedule(9)
    meas = capture(tensor, schedule, split=0.4)
    design = design_matrix(schedule, coaxial=True, split=0.4)
    expected = design.a @ tensor.data[0, 0, :, :, 0].reshape(16)
    np.testing.assert_allclose(meas.intensities[0, 0, :, 0], expected, atol=1e-12)


def test_noise_floor_matches_pseudoinverse_norm():
    # mean squared reconstruction error under pure noise is
    # sigma^2 * sum of squared pseudoinverse entries
    rng = np.random.default_rng(11)
    design = design_matrix(drr_schedule(36))
    a_pinv, rank, _ = pinv_truncated(design.a)
    assert rank == 16
    sigma = 5e-4
    floor = sigma**2 * np.sum(a_pinv**2)
    draws = rng.normal(0.0, sigma, size=(3000, 36))
    errors = draws @ a_pinv.T
    empirical = np.mean(np.sum(errors**2, axis=1))
    assert abs(empirical - floor) / floor < 0.1


def test_reconstruction_is_unbiased_under_noise():
    rng = np.random.default_rng(12)
    sample = generate_ensemble(3, 1).samples[0]
    schedule = drr_schedule(36)
    design = design_matrix(schedule)
    a_pinv, _, _ = pinv_truncated(design.a)
    vec = sample.reshape(16)
    clean = design.a @ vec
    draws = 4000
    noisy = clean[None, :] + rng.normal(0.0, 5e-4, size=(draws, 36))
    mean_rec = (noisy @ a_pinv.T).mean(axis=0)
    # the mean over draws approaches the true vector at sigma/sqrt(draws)
    assert np.abs(mean_rec - vec).max() < 6 * 5e-4 / np.sqrt(draws) * np.abs(a_pinv).sum(axis=1).max()


def test_pinv_truncated_rejects_zero_matrix():
    with pytest.raises(ValueError):
        pinv_truncated(np.zeros((4, 16)))
    # with split 0 the beamsplitter sends no light into the scene
    design = design_matrix(drr_schedule(36), coaxial=True, split=0.0)
    assert (design.rank, design.cond) == (0, np.inf)
    with pytest.raises(ValueError, match="identically zero"):
        pinv_truncated(design.a)


def test_measurement_set_checks_its_pixel_axes():
    # sets whose axes their grids do not describe, which a container cannot hold
    with pytest.raises(ValueError, match="camera axis 3 does not match cam_shape"):
        MeasurementSet(np.zeros((3, 1, 16, 2)), drr_schedule(16), True, (2, 2), (2, 2), BIN)
    with pytest.raises(ValueError, match="projector axis 3 does not match proj_shape"):
        MeasurementSet(np.zeros((4, 3, 16, 2)), drr_schedule(16), False, (2, 2), (2, 2), BIN)
    # grids of other than two positive integers
    for cam, proj, name in (((2, 2, 1), (2, 2, 1), "cam_shape"), ((4,), (4,), "cam_shape"),
                            ((2, 2), (2, 0), "proj_shape")):
        with pytest.raises(ValueError, match="%s must be a list of 2 integers >= 1" % name):
            MeasurementSet(np.zeros((4, 1, 16, 2)), drr_schedule(16), True, cam, proj, BIN)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AngleSchedule(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        AngleSchedule(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        AngleSchedule(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2),
                      sensor_mode="telepathy")
    # finite in radians, but inf in the degrees a file would store
    with pytest.raises(ValueError, match="theta3"):
        AngleSchedule(np.zeros(2), np.zeros(2), np.array([0.0, 1e307]), np.zeros(2))


@pytest.mark.parametrize("build, message", [
    (lambda: schedule_from_dict([0.0]), "a schedule must be a JSON object"),
    (lambda: schedule_from_dict({"theta1_deg": [0.0]}), "schedule is missing field 'theta2_deg'"),
    (lambda: MeasurementSet(np.zeros((4, 1, 16)), drr_schedule(16), True, (2, 2), (2, 2), BIN),
     "intensities must be 4D"),
    (lambda: MeasurementSet(np.zeros((4, 1, 15, 2)), drr_schedule(16), True, (2, 2), (2, 2),
                            BIN),
     "row count 15 does not match the schedule's 16"),
    (lambda: MeasurementSet(np.zeros((4, 1, 16, 2)), drr_schedule(16), "yes", (2, 2), (2, 2),
                            BIN),
     "coaxial must be a bool, got 'yes'"),
], ids=["schedule not an object", "schedule field missing", "3-D intensities", "row count",
        "coaxial string"])
def test_schedule_and_measurement_set_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_measurement_grid_is_never_truncated_and_a_numpy_bool_is_stored_as_a_bool():
    schedule = drr_schedule(16)
    with pytest.raises(ValueError,
                       match=r"^cam_shape must be a list of 2 integers >= 1, got \(2.9, 2\)$"):
        MeasurementSet(np.zeros((4, 1, 16, 2)), schedule, True, (2.9, 2), (2, 2), BIN)
    meas = MeasurementSet(np.zeros((4, 1, 16, 2)), schedule, np.True_, (2, 2), (2, 2), BIN)
    assert type(meas.coaxial) is bool and meas.coaxial
