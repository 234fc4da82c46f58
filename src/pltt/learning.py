"""
Gradient-based optimization of capture-angle schedules.

The target is the expected reconstruction loss over a training set of
Mueller matrices and measurement noise eta with second moment S:

    L = mean_n E || A(theta)^+ (A(theta) vec(M_n) + eta) - vec(M_n) ||^2
      = mean_n || (A^+ A - I) vec(M_n) ||^2 + tr(A^+ S A^+^T)

Training and scoring take white noise, S = sigma^2 I, so the loss is
exact and no noise is drawn. With A = U S V^T its noise term is
sigma^2 sum_i s_i^-2 over the kept singular values (sigma^2 ||A^+||_F^2,
the noise-optimal polarimeter criterion), and dL = 2 tr(dA G) with
G = -sigma^2 V S^-3 U^T; below rank 16 the bias R = (A^+ A - I) M adds
R^T M A^+ / B to G. ``loss`` and ``grad_loss`` also take explicit draws
E, S = E^T E / N, for their Monte Carlo loss; that path differentiates
the truncated pseudoinverse through the fixed-rank differential

    dA+ = -A+ dA A+ + A+ A+^T dA^T (I - A A+) + (I - A+ A) dA^T A+^T A+

A(theta) and its angle derivatives come from ``ellipsometry``'s closed-form
forward model, and its SVD, rank and A+ from ``ellipsometry.Decoder``, the
ones capture and reconstruction use; row n of A is kron(r_n, c_n), so G
reaches the angles through G_n c_n and r_n G_n.

Optimization is one full-batch L-BFGS solve (``lbfgs``; Liu & Nocedal,
Math. Prog. 45, 1989) from the classical dual-rotating-retarder start, with
best-iterate tracking on an 80/20 held-out split.
"""

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .ellipsometry import (
    AngleSchedule,
    Decoder,
    _forward,
    check_flags,
    drr_schedule,
    forward_model,
)
from .tensor import check_number


def default_trainable(sensor_mode):
    """All four columns in intensity mode; no detector LP with an array sensor."""
    if sensor_mode == "polarizer_array":
        return (True, True, True, False)
    return (True, True, True, True)


def _noise_moment(noise, n_blocks, n_rows):
    """E[eta eta^T]: sigma^2 (for sigma^2 I) from a scalar std, E^T E / N from draws."""
    if np.ndim(noise) == 0:
        return check_number(noise, "noise sigma", low=0.0) ** 2
    shape = (n_blocks, n_rows) if np.ndim(noise) == 2 else (n_blocks, None, n_rows)
    draws = check_number(noise, "noise draws", shape=shape).reshape(-1, n_rows)
    return draws.T @ draws / draws.shape[0]


def _loss_and_grad(fwd, mats, noise):
    """
    Batch loss of a ``ForwardModel`` and its angle gradient on checked
    (B, 4, 4) blocks ``mats``.

    The error splits into the bias (P - I) m, P = A+ A, and the noise
    A+ eta, orthogonal since A+^T (I - P) = 0, so no cross term remains.
    Factors the design once, in a ``Decoder``; returns (loss, rank, grads, rank_marginal).
    dr4, and so the theta4 gradient, is zero with the polarizer-array sensor.
    """
    dec = Decoder(fwd.design())
    a = dec.a
    m = mats.reshape(-1, 16)
    moment = _noise_moment(noise, m.shape[0], a.shape[0])
    # the noise term and its part of g, where dL = 2 tr(dA g) through the
    # fixed-rank differential of A+
    if np.ndim(moment) == 0:
        # sigma^2 tr(A+ A+^T) = sigma^2 sum 1/s_i^2 over the kept s_i, and
        # g = -sigma^2 A+ A+^T A+ = -sigma^2 V S^-3 U^T: white noise at full
        # rank, the path angle learning takes, never forms A+
        batch_loss = moment * float(dec.inv @ dec.inv)
        g = (dec.vt.T * (-moment * dec.inv ** 3)) @ dec.u.T               # (16, K')
    else:
        gain = dec.pinv @ moment                # (16, K')
        batch_loss = float(np.sum(gain * dec.pinv))
        g = ((dec.pinv @ dec.pinv.T) @ gain @ (np.eye(a.shape[0]) - a @ dec.pinv)
             - gain @ dec.pinv.T @ dec.pinv)
    # at full rank P = I and the bias vanishes exactly; below it the bias is
    # formed from A+ A m, since forming I - A+ A leaves a rounding floor
    if dec.rank < 16:
        bias = (m @ a.T) @ dec.pinv.T - m      # (B, 16)
        batch_loss += float(np.mean(np.sum(bias * bias, axis=1)))
        g += bias.T @ m @ dec.pinv / m.shape[0]

    # row n of A is kron(r_n, c_n), so dL/dtheta sums dr_n G_n c_n + r_n G_n dc_n
    # over the rows n of each capture
    k = fwd.c.shape[0]
    g_blocks = g.T.reshape(k, -1, 4, 4)
    g_c = np.einsum("kqij,kj->kqi", g_blocks, fwd.c).reshape(-1, 4)
    r_g = np.einsum("kqi,kqij->kj", fwd.r.reshape(k, -1, 4), g_blocks)
    grads = 2.0 * np.array([np.einsum("kj,kj->k", r_g, fwd.dc1),
                            np.einsum("kj,kj->k", r_g, fwd.dc2),
                            np.einsum("ni,ni->n", fwd.dr3, g_c).reshape(k, -1).sum(axis=1),
                            np.einsum("ni,ni->n", fwd.dr4, g_c).reshape(k, -1).sum(axis=1)])
    return batch_loss, dec.rank, grads, dec.marginal


def loss(schedule, mats, noise):
    """
    Mean squared Frobenius reconstruction error of the blocks ``mats``.

    mats: (B, 4, 4) scene blocks. noise: a scalar sigma >= 0 gives the
    exact expectation over white Gaussian noise of that std; explicit
    draws (B, K') or (B, D, K') give the Monte Carlo loss of those draws,
    D draws per sample averaging over repeated measurements of a block.
    """
    mats = check_number(mats, "mats", shape=(None, 4, 4))
    return _loss_and_grad(forward_model(schedule), mats, noise)[0]


def grad_loss(schedule, mats, noise, trainable=None):
    """
    Analytic gradient of ``loss`` over the trainable angle columns.

    Returns (grads, rank_marginal) where grads is a (4, K) array with
    untrainable entries zero, and rank_marginal flags singular values
    close enough to the truncation cutoff that the fixed-rank gradient
    is a subgradient surrogate.
    """
    mats = check_number(mats, "mats", shape=(None, 4, 4))
    _, _, grads, rank_marginal = _loss_and_grad(forward_model(schedule), mats, noise)
    if trainable is not None:
        grads[~np.asarray(trainable, dtype=bool)] = 0.0
    return grads, rank_marginal


def expected_noise_floor(schedule, noise_sigma):
    """Analytic full-rank loss floor: sigma^2 ||A+||_F^2."""
    return _loss_and_grad(forward_model(schedule), np.zeros((1, 4, 4)), noise_sigma)[0]


# ---------------------------------------------------------------------------
# training


# L-BFGS memory, Armijo fraction, line-search halvings, relative gradient and decrease tolerances
_MEMORY, _ARMIJO, _BACKTRACKS, _GTOL, _FTOL = 10, 1e-4, 60, 1e-10, 1e-13


def lbfgs(fun, x0, max_iter, first_step, callback=None):
    """
    Minimize ``fun(x) -> (value, gradient)`` by L-BFGS with Armijo
    backtracking, so no iteration raises the value; the first step moves the
    farthest-moving coordinate by ``first_step``. ``callback(k, x)`` runs
    after iteration k. Returns (x, value, value per iteration, converged,
    message); the cap and a line search that finds no decrease do not converge.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    g_start, pairs, values, gamma = np.abs(g).max(initial=0.0), deque(maxlen=_MEMORY), [], 1.0
    for k in range(1, max_iter + 1):
        if not np.abs(g).max(initial=0.0) > _GTOL * g_start:
            return x, f, values, True, "gradient below tolerance"
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        d *= gamma    # H0 = gamma I, gamma = s.y / y.y of the newest pair
        for (s, y, rho), alpha in zip(pairs, alphas[::-1]):
            d += (alpha - rho * (y @ d)) * s
        if not g @ d < 0:    # rounding broke the descent: restart from the gradient
            pairs.clear()
            d = -g
        t = 1.0 if pairs else first_step / np.abs(d).max()
        for _ in range(_BACKTRACKS):
            f_new, g_new = fun(x + t * d)
            if f_new <= f + _ARMIJO * t * (g @ d):
                break
            t *= 0.5
        else:
            return x, f, values, False, "line search found no decrease"
        s, y = t * d, g_new - g
        if s @ y > np.finfo(float).eps * (y @ y):
            pairs.append((s, y, 1.0 / (s @ y)))
            gamma = (s @ y) / (y @ y)
        x, f, g, decrease = x + s, f_new, g_new, f - f_new
        values.append(f)
        if callback is not None:
            callback(k, x)
        if decrease <= _FTOL * abs(f):
            return x, f, values, True, "decrease below tolerance"
    return x, f, values, False, "stopped at the iteration cap"


@dataclass(frozen=True)
class TrainingConfig:
    """
    Everything a training run needs; hashable for provenance.

    ``iterations`` caps the L-BFGS solve and ``step_size`` is its first step's
    largest angle move (radians). ``batch_size``, ``draws`` and ``eval_draws``
    change no result; they stay so that configs keep working and are hashed.
    """

    samples: np.ndarray = field(repr=False)     # (n, 4, 4) training ensemble
    k: int = 36
    sensor_mode: str = "intensity"
    noise_sigma: float = 5e-4
    iterations: int = 2000
    batch_size: int = 32
    step_size: float = 1e-2
    draws: int = 4
    seed: int = 0
    trainable: tuple = None
    holdout_fraction: float = 0.2
    eval_every: int = 25
    eval_draws: int = 32

    def __post_init__(self):
        samples = check_number(self.samples, "samples", shape=(None, 4, 4))
        object.__setattr__(self, "samples", samples)
        counts = (("k", 1), ("batch_size", 1), ("draws", 1), ("eval_every", 1),
                  ("eval_draws", 1), ("iterations", 0), ("seed", 0))
        rules = [(name, {"low": low, "integer": True}) for name, low in counts] + [
            ("noise_sigma", {"low": 0.0}), ("step_size", {"above": 0.0}),
            ("holdout_fraction", {"low": 0.0, "below": 1.0})]
        for name, rule in rules:
            object.__setattr__(self, name, check_number(
                getattr(self, name), "K" if name == "k" else name, **rule))
        if self.batch_size > samples.shape[0]:
            raise ValueError("batch size exceeds the ensemble size")
        trainable = (default_trainable(self.sensor_mode) if self.trainable is None
                     else self.trainable)
        object.__setattr__(self, "trainable", check_flags(trainable, "trainable"))

    def digest(self):
        # every field but the samples, which are hashed as raw bytes
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}
        h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        h.update(np.ascontiguousarray(self.samples).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class LearnedSchedule:
    """Training outcome: best-held-out schedule plus the loss record."""

    schedule: AngleSchedule
    loss_curve: np.ndarray = field(repr=False)          # training loss per iteration
    heldout_iters: np.ndarray = field(repr=False)
    heldout_curve: np.ndarray = field(repr=False)       # raw held-out losses
    best_heldout_loss: float = np.inf
    init_heldout_loss: float = np.inf
    config_hash: str = ""


def learn(config):
    """
    Optimize a schedule by L-BFGS on the whole training split from the DRR
    start; return the iterate with the best held-out loss, scored at the
    start, every ``eval_every`` iterations and at the last iterate.
    """
    n = config.samples.shape[0]
    n_hold = max(1, int(round(config.holdout_fraction * n)))
    perm = np.random.default_rng(config.seed).permutation(n)
    hold_set = config.samples[perm[:n_hold]]
    train_set = config.samples[perm[n_hold:]]
    if train_set.shape[0] < config.batch_size:
        raise ValueError("not enough training samples after the held-out split")

    init = replace(drr_schedule(config.k, sensor_mode=config.sensor_mode),
                   fixed=tuple(not t for t in config.trainable))
    angles = np.stack([init.theta1, init.theta2, init.theta3, init.theta4])
    # the array sensor's theta4 has a zero gradient, so L-BFGS never moves it
    mask = np.repeat(np.asarray(config.trainable)[:, None], config.k, axis=1)

    def train_loss(flat):
        angles[mask] = flat
        value, _, grads, _ = _loss_and_grad(_forward(angles, config.sensor_mode), train_set,
                                            config.noise_sigma)
        return value, grads[mask]

    scored = []    # (iteration, held-out loss, angles)

    def score(k, flat):
        angles[mask] = flat
        hold = loss(init.with_angles(*angles), hold_set, config.noise_sigma)
        scored.append((k, hold, angles.copy()))

    score(0, angles[mask])
    flat, _, loss_curve, _, _ = lbfgs(train_loss, angles[mask], config.iterations, config.step_size,
                                      lambda k, x: None if k % config.eval_every else score(k, x))
    if scored[-1][0] != len(loss_curve):
        score(len(loss_curve), flat)
    iters, curve, tried = zip(*scored)
    best = int(np.argmin(curve))    # the first of equal losses
    return LearnedSchedule(
        schedule=init.with_angles(*np.mod(tried[best], np.pi)),
        loss_curve=np.asarray(loss_curve),
        heldout_iters=np.asarray(iters),
        heldout_curve=np.asarray(curve),
        best_heldout_loss=float(curve[best]),
        init_heldout_loss=float(curve[0]),
        config_hash=config.digest(),
    )


def evaluate(schedule, samples, noise_sigma):
    """
    Exact expected reconstruction error of a schedule on an ensemble.

    Returns the mean squared Frobenius error under white noise of std
    ``noise_sigma`` (the loss metric, with no noise drawn) and the rank
    of the design the pseudoinverse kept.
    """
    samples = check_number(samples, "samples", shape=(None, 4, 4))
    mean_squared, rank, _, _ = _loss_and_grad(forward_model(schedule), samples, noise_sigma)
    return {"mean_squared": mean_squared, "design_rank": rank}


def cross_validate(config, n_folds=5, comparison_schedules=None):
    """
    K-fold harness: train on all but one fold, evaluate on the held-out
    fold, and score any comparison schedules on the same folds.

    Returns a list of per-fold dicts with the learned schedule's exact
    expected test error (``evaluate``) under key 'learned' plus one key
    per comparison schedule; no noise is drawn.
    """
    samples = config.samples
    n = samples.shape[0]
    if n < n_folds:
        raise ValueError("need at least one sample per fold")
    comparison_schedules = comparison_schedules or {}
    perm = np.random.default_rng(config.seed).permutation(n)
    folds = np.array_split(perm, n_folds)
    results = []
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(perm, test_idx, assume_unique=True)
        fold_config = replace(config, samples=samples[train_idx], seed=config.seed + 101 * i)
        learned = learn(fold_config)
        test = samples[test_idx]
        entry = {
            "fold": i,
            "learned": evaluate(learned.schedule, test, config.noise_sigma)["mean_squared"],
            "learned_schedule": learned,
        }
        for name, sched in comparison_schedules.items():
            entry[name] = evaluate(sched, test, config.noise_sigma)["mean_squared"]
        results.append(entry)
    return results
