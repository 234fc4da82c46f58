import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pltt.ellipsometry import AngleSchedule, Decoder, design_matrix, drr_schedule, pinv_truncated
from pltt.learning import (
    TrainingConfig,
    cross_validate,
    default_trainable,
    evaluate,
    expected_noise_floor,
    grad_loss,
    lbfgs,
    learn,
    loss,
)
from pltt.scene import generate_ensemble

FD_STEP = 1e-6
FD_RTOL = 1e-5


def random_schedule(rng, k, sensor_mode="intensity"):
    return AngleSchedule(
        theta1=rng.uniform(0, np.pi, k),
        theta2=rng.uniform(0, np.pi, k),
        theta3=rng.uniform(0, np.pi, k),
        theta4=rng.uniform(0, np.pi, k),
        sensor_mode=sensor_mode,
    )


def fd_gradient(schedule, mats, noise, slot, capture_idx, h=FD_STEP):
    # central difference through the full loss, one angle at a time
    name = "theta%d" % (slot + 1)
    base = getattr(schedule, name)
    plus = base.copy()
    plus[capture_idx] += h
    minus = base.copy()
    minus[capture_idx] -= h
    up = loss(schedule.with_angles(**{name: plus}), mats, noise)
    down = loss(schedule.with_angles(**{name: minus}), mats, noise)
    return (up - down) / (2.0 * h)


def antithetic_draws(n_blocks, n_rows, sigma):
    # +-sigma sqrt(K') e_k for every row k: the second moment is exactly sigma^2 I
    unit = sigma * np.sqrt(n_rows) * np.eye(n_rows)
    return np.broadcast_to(np.concatenate([unit, -unit]), (n_blocks, 2 * n_rows, n_rows))


def tiny_config(samples, **overrides):
    kwargs = dict(samples=samples, k=6, sensor_mode="intensity", noise_sigma=1e-3,
                  iterations=40, batch_size=16, step_size=1e-2, seed=5, eval_every=10)
    kwargs.update(overrides)
    return TrainingConfig(**kwargs)


@pytest.mark.parametrize("k,mode", [
    (4, "intensity"),
    (7, "intensity"),
    (4, "polarizer_array"),
])
def test_gradient_matches_central_differences(k, mode):
    rng = np.random.default_rng(7)
    mats = generate_ensemble(3, 5).samples
    schedule = random_schedule(rng, k, mode)
    noise = rng.normal(0, 1e-3, size=(mats.shape[0], schedule.n_rows))
    grads, marginal = grad_loss(schedule, mats, noise)
    assert not marginal
    trainable = default_trainable(mode)
    for slot in range(4):
        for i in range(k):
            fd = fd_gradient(schedule, mats, noise, slot, i)
            if not trainable[slot]:
                # the array sensor has no detector polarizer: the loss
                # genuinely does not depend on theta4 there
                assert grads[slot, i] == 0.0
                assert abs(fd) < 1e-9
                continue
            denom = max(abs(fd), abs(grads[slot, i]))
            assert denom > 0
            assert abs(fd - grads[slot, i]) / denom < FD_RTOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 16),
       mode=st.sampled_from(["intensity", "polarizer_array"]),
       sigma=st.sampled_from([0.0, 1e-3, 1e-1]),
       trainable=st.tuples(*[st.booleans()] * 4),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_sigma_gradient_matches_central_differences(k, mode, sigma, trainable, seed):
    # K from 1 to 16 covers designs below full rank (the bias term) and at it
    rng = np.random.default_rng(seed)
    schedule = random_schedule(rng, k, mode)
    mats = generate_ensemble(seed % 1000, 4).samples
    grads, marginal = grad_loss(schedule, mats, sigma, trainable)
    assume(not marginal)
    fd = np.array([[fd_gradient(schedule, mats, sigma, slot, i) for i in range(k)]
                   for slot in range(4)])
    on = np.asarray(trainable)
    assert np.all(grads[~on] == 0.0)
    scale = max(np.abs(fd).max(), np.abs(grads).max())
    assert np.abs(grads[on] - fd[on]).max(initial=0.0) <= FD_RTOL * scale


def test_gradient_with_averaged_draws_matches_fd():
    rng = np.random.default_rng(21)
    mats = generate_ensemble(8, 4).samples
    schedule = random_schedule(rng, 5)
    noise = rng.normal(0, 5e-4, size=(mats.shape[0], 3, schedule.n_rows))
    grads, _ = grad_loss(schedule, mats, noise)
    for slot in range(4):
        fd = fd_gradient(schedule, mats, noise, slot, 2)
        denom = max(abs(fd), abs(grads[slot, 2]))
        assert abs(fd - grads[slot, 2]) / denom < FD_RTOL


def test_trainable_mask_zeroes_rows_without_touching_others():
    rng = np.random.default_rng(9)
    mats = generate_ensemble(4, 4).samples
    schedule = random_schedule(rng, 6)
    noise = rng.normal(0, 1e-3, size=(mats.shape[0], schedule.n_rows))
    full, _ = grad_loss(schedule, mats, noise, (True, True, True, True))
    masked, _ = grad_loss(schedule, mats, noise, (False, True, True, False))
    assert np.all(masked[0] == 0.0)
    assert np.all(masked[3] == 0.0)
    np.testing.assert_array_equal(masked[1], full[1])
    np.testing.assert_array_equal(masked[2], full[2])


def test_default_trainable_per_sensor():
    assert default_trainable("intensity") == (True, True, True, True)
    assert default_trainable("polarizer_array") == (True, True, True, False)


def test_noiseless_full_rank_loss_and_gradient_vanish():
    mats = generate_ensemble(3, 6).samples
    schedule = drr_schedule(36)
    noise = np.zeros((mats.shape[0], schedule.n_rows))
    assert loss(schedule, mats, noise) < 1e-24
    grads, _ = grad_loss(schedule, mats, noise)
    assert np.abs(grads).max() < 1e-12


def test_loss_matches_public_design_matrix_formula():
    rng = np.random.default_rng(3)
    mats = generate_ensemble(5, 3).samples
    schedule = random_schedule(rng, 9)
    noise = rng.normal(0, 1e-3, size=(mats.shape[0], schedule.n_rows))
    a = design_matrix(schedule).a
    a_pinv, _, _ = pinv_truncated(a)
    vecs = mats.reshape(-1, 16)
    resid = (vecs @ a.T + noise) @ a_pinv.T - vecs
    expected = np.mean(np.sum(resid * resid, axis=1))
    assert np.isclose(loss(schedule, mats, noise), expected, rtol=1e-12, atol=0)


def test_loss_averages_repeated_draws_like_flattening():
    rng = np.random.default_rng(13)
    mats = generate_ensemble(2, 4).samples
    schedule = drr_schedule(10)
    noise = rng.normal(0, 1e-3, size=(mats.shape[0], 5, schedule.n_rows))
    flat = loss(schedule, np.repeat(mats, 5, axis=0), noise.reshape(-1, schedule.n_rows))
    assert np.isclose(loss(schedule, mats, noise), flat, rtol=1e-12, atol=0)


def test_loss_rejects_wrong_noise_shape():
    mats = generate_ensemble(2, 4).samples
    schedule = drr_schedule(10)
    with pytest.raises(ValueError, match="noise"):
        loss(schedule, mats, np.zeros((4, 11)))


def test_loss_is_invariant_under_pi_shift_of_any_angle():
    rng = np.random.default_rng(17)
    mats = generate_ensemble(6, 5).samples
    schedule = random_schedule(rng, 5)
    noise = rng.normal(0, 1e-3, size=(mats.shape[0], schedule.n_rows))
    base = loss(schedule, mats, noise)
    for slot in range(4):
        name = "theta%d" % (slot + 1)
        shifted = getattr(schedule, name).copy()
        shifted[2] += np.pi
        moved = loss(schedule.with_angles(**{name: shifted}), mats, noise)
        assert moved == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("schedule", [
    drr_schedule(36),
    drr_schedule(12),
    drr_schedule(6),
    drr_schedule(15, sensor_mode="polarizer_array"),
], ids=["drr36", "drr12", "drr6", "array15"])
def test_scalar_sigma_matches_draws_with_its_second_moment(schedule):
    # ties the exact expectation to the explicit-draw loss that criteria 2
    # and 3 check against theory and finite differences
    rng = np.random.default_rng(31)
    schedule = schedule.with_angles(*(getattr(schedule, "theta%d" % i)
                                      + rng.normal(0, 0.05, schedule.n_captures)
                                      for i in range(1, 5)))
    mats = generate_ensemble(7, 6).samples
    sigma = 5e-4
    draws = antithetic_draws(mats.shape[0], schedule.n_rows, sigma)
    assert loss(schedule, mats, sigma) == pytest.approx(loss(schedule, mats, draws), rel=1e-12)
    exact, _ = grad_loss(schedule, mats, sigma)
    sampled, _ = grad_loss(schedule, mats, draws)
    assert np.linalg.norm(exact - sampled) <= 1e-12 * np.linalg.norm(exact)


def test_scalar_sigma_loss_is_the_closed_form():
    # E||A+(Am + eta) - m||^2 = mean ||(I - A+A) m||^2 + sigma^2 ||A+||_F^2
    mats = generate_ensemble(5, 8).samples
    sigma = 1e-3
    for schedule in (drr_schedule(36), drr_schedule(10)):
        a = design_matrix(schedule).a
        a_pinv, _, _ = pinv_truncated(a)
        vecs = mats.reshape(-1, 16)
        bias = vecs @ (np.eye(16) - a_pinv @ a).T
        expected = np.mean(np.sum(bias * bias, axis=1)) + sigma ** 2 * np.sum(a_pinv * a_pinv)
        assert loss(schedule, mats, sigma) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("sigma", [-1e-3, np.nan, np.inf])
def test_loss_rejects_a_negative_or_non_finite_sigma(sigma):
    mats = generate_ensemble(2, 4).samples
    schedule = drr_schedule(10)
    with pytest.raises(ValueError, match="sigma"):
        loss(schedule, mats, sigma)
    with pytest.raises(ValueError, match="sigma"):
        grad_loss(schedule, mats, sigma)


class _NoGaussianGenerator:
    """A numpy Generator whose Gaussian draws fail."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, *args, **kwargs):
        raise AssertionError("Gaussian noise drawn")

    standard_normal = normal


def test_learning_and_scoring_draw_no_gaussian_noise(monkeypatch):
    samples = generate_ensemble(23, 30).samples
    wrapped = []
    real = np.random.default_rng

    def guarded(*args, **kwargs):
        wrapped.append(_NoGaussianGenerator(real(*args, **kwargs)))
        return wrapped[-1]

    monkeypatch.setattr(np.random, "default_rng", guarded)
    config = TrainingConfig(samples=samples, k=6, noise_sigma=1e-3, iterations=10,
                            batch_size=8, seed=1, eval_every=5)
    learn(config)
    evaluate(drr_schedule(6), samples, 1e-3)
    cross_validate(config, n_folds=3, comparison_schedules={"drr_6": drr_schedule(6)})
    assert wrapped   # learn and cross_validate shuffle with a wrapped generator


def test_full_rank_white_noise_learning_never_forms_the_pseudoinverse(monkeypatch):
    def refuse(decoder):
        raise AssertionError("A+ formed")

    monkeypatch.setattr(Decoder, "pinv", property(refuse))
    samples = generate_ensemble(23, 30).samples
    learn(TrainingConfig(samples=samples, k=12, sensor_mode="polarizer_array", iterations=10,
                         batch_size=8, seed=1, eval_every=5))
    assert evaluate(drr_schedule(16), samples, 1e-3)["design_rank"] == 16


def test_noise_floor_matches_empirical_full_rank_loss():
    rng = np.random.default_rng(29)
    mats = generate_ensemble(4, 10).samples
    schedule = drr_schedule(36)
    sigma = 5e-4
    noise = rng.normal(0, sigma, size=(mats.shape[0], 400, schedule.n_rows))
    empirical = loss(schedule, mats, noise)
    floor = expected_noise_floor(schedule, sigma)
    assert empirical == pytest.approx(floor, rel=0.1)


def test_noise_floor_scales_with_sigma_squared():
    schedule = drr_schedule(20)
    one = expected_noise_floor(schedule, 1e-3)
    four = expected_noise_floor(schedule, 2e-3)
    assert four == pytest.approx(4.0 * one, rel=1e-12)


def test_rank_deficient_schedule_has_noiseless_bias():
    mats = generate_ensemble(3, 6).samples
    schedule = drr_schedule(8)
    noise = np.zeros((mats.shape[0], schedule.n_rows))
    assert loss(schedule, mats, noise) > 1e-4


def test_learn_tiny_run_tracks_best_heldout_iterate():
    samples = generate_ensemble(11, 40).samples
    result = learn(tiny_config(samples))
    assert result.best_heldout_loss <= result.init_heldout_loss
    best_curve = np.minimum.accumulate(result.heldout_curve)
    assert best_curve[0] == result.init_heldout_loss
    assert best_curve[-1] == result.best_heldout_loss
    assert result.loss_curve.shape == (40,)
    assert result.heldout_iters[0] == 0
    assert result.heldout_iters[-1] == 40
    assert len(result.heldout_curve) == len(result.heldout_iters)
    assert len(result.config_hash) == 16
    sched = result.schedule
    assert sched.sensor_mode == "intensity"
    assert sched.n_captures == 6
    for name in ("theta1", "theta2", "theta3", "theta4"):
        arr = getattr(sched, name)
        assert np.all((arr >= 0) & (arr < np.pi))


def quadratic(seed, n=8):
    """A convex quadratic 0.5 x'Hx - b'x as (fun, minimizer)."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, n))
    h = q @ q.T + 0.5 * np.eye(n)
    b = rng.normal(size=n)
    return (lambda x: (0.5 * x @ h @ x - b @ x, h @ x - b)), np.linalg.solve(h, b)


def test_lbfgs_converges_to_the_minimizer_of_a_convex_quadratic():
    fun, x_star = quadratic(3)
    seen = []
    x, value, values, converged, message = lbfgs(fun, np.zeros(8), 200, 1.0,
                                                 lambda k, x: seen.append(k))
    assert converged, message
    # a relative-decrease stop pins the value far tighter than the minimizer
    best = fun(x_star)[0]
    assert value - best <= 1e-12 * abs(best)
    np.testing.assert_allclose(x, x_star, rtol=0, atol=1e-6 * np.abs(x_star).max())
    assert value == values[-1] == fun(x)[0]
    assert np.all(np.diff(values) <= 0)
    assert seen == list(range(1, len(values) + 1))


def test_lbfgs_stopped_by_its_cap_is_not_converged():
    fun, _ = quadratic(3)
    x, value, values, converged, message = lbfgs(fun, np.zeros(8), 2, 1.0)
    assert not converged
    assert "cap" in message
    assert len(values) == 2 and value < fun(np.zeros(8))[0]


def test_lbfgs_restarts_from_the_gradient_when_the_descent_test_underflows():
    # a stiff axis, of the largest curvature a kept pair allows (s.y > eps y.y),
    # beside a slope of 5e-155: after the first step the quasi-Newton step along
    # the slope is 1.25e-170 long, so g @ d underflows to 0 and the descent test
    # fails. Restarting from the gradient moves the slope coordinate by
    # first_step again; the quasi-Newton step would stop on a zero decrease.
    stiff, slope, first = 4e15, 5e-155, 2.5e-161

    def fun(x):
        return 0.5 * (stiff * x[0]) * x[0] + slope * x[1], np.array([stiff * x[0], slope])

    x, value, values, converged, message = lbfgs(fun, np.array([first, 0.0]), 3, first)
    assert not converged and "cap" in message
    assert x[0] == 0.0 and x[1] == pytest.approx(-2 * first, rel=1e-6)
    assert values[0] == 0.0 > values[1] > values[2] == value


def test_lbfgs_first_step_sets_the_largest_move():
    fun, _ = quadratic(5)
    x0 = np.ones(8)
    moves = []
    lbfgs(fun, x0, 1, 1e-3, lambda k, x: moves.append(np.abs(x - x0).max()))
    assert moves[0] == pytest.approx(1e-3, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_learned_full_rank_schedule_is_a_stationary_point(seed):
    # perfbench's learn_angles config: a full-rank K=12 array design, where
    # 900 minibatch Adam steps stopped at a loss of 7.80e-5 on every seed
    samples = generate_ensemble(seed, 300).samples
    config = TrainingConfig(samples=samples, k=12, sensor_mode="polarizer_array",
                            noise_sigma=1e-3, iterations=900, batch_size=32, step_size=0.01,
                            eval_every=25, seed=seed)
    result = learn(config)
    trainable = default_trainable("polarizer_array")
    start, _ = grad_loss(drr_schedule(12, "polarizer_array"), samples, 1e-3, trainable)
    end, marginal = grad_loss(result.schedule, samples, 1e-3, trainable)
    assert not marginal
    assert loss(result.schedule, samples, 1e-3) < 4e-5
    assert np.linalg.norm(end) < 1e-6 * np.linalg.norm(start)


def test_learn_is_deterministic_for_a_config():
    samples = generate_ensemble(11, 40).samples
    first = learn(tiny_config(samples))
    second = learn(tiny_config(samples))
    for name in ("theta1", "theta2", "theta3", "theta4"):
        np.testing.assert_array_equal(getattr(first.schedule, name),
                                      getattr(second.schedule, name))
    assert first.best_heldout_loss == second.best_heldout_loss
    assert first.config_hash == second.config_hash


def test_learn_seed_changes_the_outcome():
    samples = generate_ensemble(11, 40).samples
    first = learn(tiny_config(samples))
    other = learn(tiny_config(samples, seed=6))
    assert first.config_hash != other.config_hash
    assert not np.array_equal(first.schedule.theta2, other.schedule.theta2)


def test_learn_array_sensor_never_moves_the_detector_polarizer():
    samples = generate_ensemble(11, 40).samples
    config = tiny_config(samples, sensor_mode="polarizer_array", iterations=20)
    result = learn(config)
    np.testing.assert_array_equal(result.schedule.theta4, np.zeros(6))
    assert result.schedule.fixed == (False, False, False, True)


def test_learn_requires_room_for_the_batch_after_the_split():
    samples = generate_ensemble(11, 40).samples
    config = tiny_config(samples, batch_size=33)
    with pytest.raises(ValueError, match="held-out"):
        learn(config)


def test_config_validation():
    samples = generate_ensemble(11, 8).samples
    with pytest.raises(ValueError, match="samples"):
        TrainingConfig(samples=np.zeros((3, 4)))
    with pytest.raises(ValueError, match="K"):
        TrainingConfig(samples=samples, k=0)
    with pytest.raises(ValueError, match="batch"):
        TrainingConfig(samples=samples, batch_size=9)


def test_config_hash_tracks_samples_and_settings():
    a = generate_ensemble(11, 8).samples
    b = generate_ensemble(12, 8).samples
    base = TrainingConfig(samples=a, k=6, batch_size=8)
    assert TrainingConfig(samples=a, k=6, batch_size=8).digest() == base.digest()
    assert TrainingConfig(samples=b, k=6, batch_size=8).digest() != base.digest()
    assert TrainingConfig(samples=a, k=7, batch_size=8).digest() != base.digest()


def test_config_hash_is_pinned():
    # a config_hash names a training run in reports; the same config must
    # keep its hash across releases
    samples = np.arange(8 * 16, dtype=float).reshape(8, 4, 4) / 16.0
    assert TrainingConfig(samples=samples, k=6, batch_size=8).digest() == "4b436dce8c694341"


def test_evaluate_matches_loss_on_the_same_draws():
    # evaluate takes the exact expectation; draws with second moment
    # sigma^2 I give the same number
    samples = generate_ensemble(19, 12).samples
    schedule = drr_schedule(12)
    stats = evaluate(schedule, samples, 1e-3)
    noise = antithetic_draws(12, schedule.n_rows, 1e-3)
    assert stats["mean_squared"] == pytest.approx(
        loss(schedule, samples, noise), rel=1e-12)
    assert stats["design_rank"] == design_matrix(schedule).rank == 12


def test_cross_validate_scores_each_fold_and_comparison():
    samples = generate_ensemble(23, 30).samples
    config = TrainingConfig(samples=samples, k=6, noise_sigma=1e-3,
                            iterations=10, batch_size=8, seed=1,
                            eval_every=5, eval_draws=8)
    folds = cross_validate(config, n_folds=3,
                           comparison_schedules={"drr_6": drr_schedule(6)})
    assert [entry["fold"] for entry in folds] == [0, 1, 2]
    for entry in folds:
        assert entry["learned"] >= 0.0
        assert entry["drr_6"] >= 0.0
        assert entry["learned_schedule"].schedule.n_captures == 6
    with pytest.raises(ValueError, match="fold"):
        cross_validate(TrainingConfig(samples=samples[:2], k=6, batch_size=1),
                       n_folds=3)


# Schedules and best held-out losses of two L-BFGS runs capped at 60
# iterations, recorded on the exact expected loss (no noise draws); any
# change to the loss, its gradient or the optimizer that moves them shows here.
PINNED_RUNS = {
    "polarizer_array": (
        [[0.05269037093953493, 3.0341466304708047, 0.04612531878052758,
          0.08516017869217643, 3.1030030010830734, 3.1244352983982737],
         [3.097961786992764, 0.04988096852661677, 0.19873655831279982,
          0.2563295023370822, 0.3677969345091776, 0.45969295161193324],
         [3.137165715791379, 0.44111467546687366, 0.8605469962869123,
          1.3241103436715052, 1.7415223216782596, 2.185574029297578],
         [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        0.020760113426166148,
    ),
    "intensity": (
        [[0.22119193812829538, 1.9774149257578642, 0.3720152947490352,
          1.0773081325650435, 0.6216281394117721, 1.0134357893607586],
         [0.23407823859028937, 2.24744301252437, 2.9880040707071984,
          0.5039923388731048, 0.6882413290546756, 2.889989288543508],
         [3.106543416842714, 0.4023517821141192, 1.2840520416497077,
          1.2716858003253866, 1.6269243177701807, 2.2688489042450692],
         [3.104795895886609, 3.0118710382756357, 3.0497152444383846,
          2.9535112964758423, 3.106969533011113, 0.013450831042463545]],
        0.09110843532667978,
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_RUNS))
def test_learn_reproduces_the_pinned_trajectory(mode):
    samples = generate_ensemble(11, 40).samples
    result = learn(tiny_config(samples, sensor_mode=mode, iterations=60))
    angles, best = PINNED_RUNS[mode]
    for slot, name in enumerate(("theta1", "theta2", "theta3", "theta4")):
        np.testing.assert_allclose(getattr(result.schedule, name), angles[slot],
                                   rtol=0, atol=1e-9)
    assert abs(result.best_heldout_loss - best) <= 1e-9 * best


@pytest.mark.parametrize("n", [1, 3])
def test_lbfgs_given_an_ascent_direction_reports_no_decrease(n):
    # the gradient of sum(x) with its sign flipped: every step raises the value
    x, value, values, converged, message = lbfgs(
        lambda x: (float(x.sum()), -np.ones_like(x)), np.zeros(n), 10, 0.1)
    assert (converged, message, value, values) == (False, "line search found no decrease", 0.0, [])
    np.testing.assert_array_equal(x, np.zeros(n))
