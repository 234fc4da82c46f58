import numpy as np
import pytest

from pltt.ellipsometry import AngleSchedule, design_matrix, drr_schedule, pinv_truncated
from pltt.learning import (
    TrainingConfig,
    cross_validate,
    default_trainable,
    evaluate,
    expected_noise_floor,
    grad_loss,
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
    assert np.all(np.diff(result.best_curve) <= 0)
    assert result.best_curve[0] == result.init_heldout_loss
    assert result.best_curve[-1] == result.best_heldout_loss
    assert result.loss_curve.shape == (40,)
    assert result.heldout_iters[0] == 0
    assert result.heldout_iters[-1] == 40
    assert len(result.heldout_curve) == len(result.heldout_iters) == len(result.best_curve)
    assert len(result.config_hash) == 16
    sched = result.schedule
    assert sched.sensor_mode == "intensity"
    assert sched.n_captures == 6
    for name in ("theta1", "theta2", "theta3", "theta4"):
        arr = getattr(sched, name)
        assert np.all((arr >= 0) & (arr < np.pi))


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
    samples = generate_ensemble(19, 12).samples
    schedule = drr_schedule(12)
    stats = evaluate(schedule, samples, 1e-3, draws=16, seed=4)
    noise = np.random.default_rng(4).normal(0, 1e-3,
                                            size=(12, 16, schedule.n_rows))
    assert stats["mean_squared"] == pytest.approx(
        loss(schedule, samples, noise), rel=1e-12)
    assert stats["p10"] <= stats["median"] <= stats["p90"]
    assert stats["n_samples"] == 12
    assert stats["n_draws"] == 16
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


# Schedules and best held-out losses of two 60-iteration runs, recorded
# with the per-capture forward model this package used before the
# batched one; the batched model must follow the same trajectory.
PINNED_RUNS = {
    "polarizer_array": (
        [[0.062413582633752906, 3.0724268782986983, 3.0918799705563766,
          0.058346958013576054, 3.0949399787840672, 3.069854178739206],
         [3.0976798063335687, 0.03086760660763008, 0.23055046878638052,
          0.20691387966232927, 0.40465701010042604, 0.43871777873501494],
         [3.095503547618122, 0.48984996692101873, 0.8149274126589976,
          1.365827615492883, 1.6899002892643646, 2.235296761566949],
         [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        0.01318860301188335,
    ),
    "intensity": (
        [[0.16488316092369812, 2.9379150047426177, 0.0059653623202405226,
          0.1750123154986416, 0.07623008689037956, 0.24646507480700378],
         [0.008194638366350543, 0.037651962402705665, 0.13964150248412016,
          0.3463672112045125, 0.30263432062860607, 0.3366712739191113],
         [3.1132274565238998, 0.5055920734168489, 0.8655583421104013,
          1.2776127756743483, 1.816116919757471, 2.333495913883357],
         [0.1277328071357277, 0.11761260144924869, 0.047027245175717776,
          0.019841364356867123, 0.004175782472025355, 3.0338862734237844]],
        0.08896490966890622,
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
