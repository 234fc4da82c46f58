"""
Rotating-ellipsometry capture models and per-pixel Mueller recovery.

A capture k modulates the source with a linear polarizer at theta1 and
a quarter-wave plate at theta2, and the detection arm with a
quarter-wave plate at theta3 and a linear polarizer at theta4:

    I_k = [ L(theta4) Q(theta3) M Q(theta2) L(theta1) p ]_0,   p = (1,0,0,0)

With a polarizer-array sensor the detector polarizer is replaced by
four fixed on-sensor analyzers at 0/45/90/135 degrees, giving four
rows per capture (theta4 is ignored).

In coaxial geometry the source arm continues through the beamsplitter
in transmission and the galvo before the scene, and the return path
folds over the galvo and the beamsplitter in reflection before the
detection optics; both folds are absorbed into the effective source
and analyzer vectors, so reconstruction recovers the scene block
itself.

Every capture is linear in the 16 entries of M: stacking rows
kron(analyzer_row_k, source_stokes_k) gives the design matrix A with
I = A vec(M) (row-major vec). Reconstruction is least squares through
a truncated-SVD pseudoinverse, shared across pixels and time bins.

``forward_model`` is the one forward model: it builds the source
vectors, the analyzer rows and their angle derivatives for a whole
schedule from (4, K, 4, 4) doubled-angle rotation stacks, with the coaxial
folds and the beamsplitter split. Capture applies its A to the tensor,
reconstruction inverts the same A, and angle learning differentiates it.
"""

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .polarization import (
    beamsplitter,
    galvo_mirror,
    linear_polarizer,
    quarter_wave_plate,
)
from .tensor import TransportTensor, probe

ANALYZER_ANGLES_DEG = (0.0, 45.0, 90.0, 135.0)
RANK_TOL = 1e-10
# noise values drawn and added per step of capture; bounds the noise buffer
_NOISE_CHUNK = 1 << 16
# pixels whose residuals reconstruct forms at once; bounds the residual buffer
_PIXEL_CHUNK = 1024


@dataclass(frozen=True)
class AngleSchedule:
    """
    K capture configurations of the four rotating elements.

    theta1..theta4 are arrays of K angles in radians for the source LP,
    source QWP, detector QWP, and detector LP. ``fixed`` flags the
    columns that do not rotate (metadata used by the angle learner).
    In polarizer_array mode theta4 is carried but ignored.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray
    theta4: np.ndarray
    sensor_mode: str = "intensity"
    fixed: tuple = (True, False, False, True)

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3", "theta4"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
            # files store degrees, which overflow past about 3e306 radians
            with np.errstate(over="ignore"):
                finite = np.all(np.isfinite(np.rad2deg(arr)))
            if arr.ndim != 1 or not finite:
                raise ValueError("%s must be a 1D array of angles finite in degrees" % name)
        k = self.theta1.shape[0]
        if k < 1:
            raise ValueError("a schedule needs at least one capture")
        for name in ("theta2", "theta3", "theta4"):
            if getattr(self, name).shape[0] != k:
                raise ValueError("angle columns must share the capture count K=%d" % k)
        if self.sensor_mode not in ("intensity", "polarizer_array"):
            raise ValueError("sensor_mode must be 'intensity' or 'polarizer_array', got %r"
                             % (self.sensor_mode,))
        object.__setattr__(self, "fixed", tuple(bool(b) for b in self.fixed))

    @property
    def n_captures(self):
        return self.theta1.shape[0]

    @property
    def n_rows(self):
        """Measurement rows: K, or 4K with the polarizer-array sensor."""
        factor = 4 if self.sensor_mode == "polarizer_array" else 1
        return factor * self.n_captures

    def with_angles(self, theta1=None, theta2=None, theta3=None, theta4=None):
        return AngleSchedule(
            self.theta1 if theta1 is None else theta1,
            self.theta2 if theta2 is None else theta2,
            self.theta3 if theta3 is None else theta3,
            self.theta4 if theta4 is None else theta4,
            self.sensor_mode, self.fixed)


def drr_schedule(k, sensor_mode="intensity"):
    """
    Classical dual-rotating-retarder schedule.

    Fixed polarizers at 0; the source QWP steps 5 degrees per capture
    and the detector QWP 25 degrees (1:5 ratio), k = 1..K mapping to
    5(k-1) and 25(k-1) degrees.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    idx = np.arange(k, dtype=float)
    return AngleSchedule(
        theta1=np.zeros(k),
        theta2=np.deg2rad(5.0 * idx),
        theta3=np.deg2rad(25.0 * idx),
        theta4=np.zeros(k),
        sensor_mode=sensor_mode,
        fixed=(True, False, False, True),
    )


def _degrees(theta):
    """
    Radians as a list of degrees that read back to radians which write
    the same degrees again.

    rad2deg(deg2rad(d)) moves about one d in twenty by one ulp, but a
    second round trip kept the first one's result on every one of
    millions of angles tried (the container round-trip property test
    keeps checking it), so a schedule read from a file writes the file's
    degrees byte for byte.
    """
    return np.rad2deg(np.deg2rad(np.rad2deg(theta))).tolist()


def schedule_to_dict(schedule):
    """Schedule as a plain dict with angles in degrees (file form)."""
    return {
        "sensor_mode": schedule.sensor_mode,
        "theta1_deg": _degrees(schedule.theta1),
        "theta2_deg": _degrees(schedule.theta2),
        "theta3_deg": _degrees(schedule.theta3),
        "theta4_deg": _degrees(schedule.theta4),
        "fixed": list(schedule.fixed),
    }


def schedule_from_dict(obj):
    if not isinstance(obj, dict):
        raise ValueError("a schedule must be a JSON object")
    for key in ("theta1_deg", "theta2_deg", "theta3_deg", "theta4_deg"):
        if key not in obj:
            raise ValueError("schedule is missing field %r" % key)
    return AngleSchedule(
        theta1=np.deg2rad(obj["theta1_deg"]),
        theta2=np.deg2rad(obj["theta2_deg"]),
        theta3=np.deg2rad(obj["theta3_deg"]),
        theta4=np.deg2rad(obj["theta4_deg"]),
        sensor_mode=obj.get("sensor_mode", "intensity"),
        fixed=tuple(obj.get("fixed", (True, False, False, True))),
    )


def save_schedule(path, schedule):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2, sort_keys=True)


def load_schedule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# forward model


# the axis-aligned rotating elements: source LP, source QWP, detector QWP, detector LP
_ELEMENTS = np.stack([linear_polarizer(), quarter_wave_plate(),
                      quarter_wave_plate(), linear_polarizer()])[:, None]
# first rows of the on-sensor analyzers of a polarizer-array sensor
_ARRAY_ANALYZERS = np.stack([linear_polarizer(np.deg2rad(q))[0] for q in ANALYZER_ANGLES_DEG])


def _coaxial_arms(split=0.5):
    """
    Folded source/detection factors: (galvo @ B_t, B_r @ galvo).

    Light transmits through the splitter into the scene (fraction
    ``split``) and the returning beam reflects toward the detector
    (fraction ``1 - split``).
    """
    g = galvo_mirror()
    return g @ beamsplitter("transmit", split), beamsplitter("reflect", 1.0 - split) @ g


def _oriented(theta):
    """
    The four rotating elements at a schedule's (4, K) angles, and d/dtheta.

    Both are (4, K, 4, 4) stacks of R(theta) M0 R(theta)^T, built from
    the doubled-angle rotation; R(-theta) is R(theta)^T.
    """
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    rot = np.zeros(theta.shape + (4, 4))
    rot[..., 0, 0] = rot[..., 3, 3] = 1.0
    rot[..., 1:3, 1:3] = np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))
    d_rot = np.zeros_like(rot)
    d_rot[..., 1:3, 1:3] = 2.0 * np.moveaxis(np.array([[-s, -c], [c, -s]]), (0, 1), (-2, -1))
    rot_t = np.swapaxes(rot, -1, -2)
    left = rot @ _ELEMENTS
    return left @ rot_t, d_rot @ _ELEMENTS @ rot_t + left @ np.swapaxes(d_rot, -1, -2)


class ForwardModel(NamedTuple):
    """
    Capture model of a schedule and its angle derivatives: source Stokes
    vectors ``c`` (K, 4) with d/dtheta1, d/dtheta2, and capture-major
    analyzer rows ``r`` (n_rows, 4) with d/dtheta3, d/dtheta4 (``dr4`` is
    zero with the polarizer-array sensor, which ignores theta4).
    """

    c: np.ndarray
    r: np.ndarray
    dc1: np.ndarray
    dc2: np.ndarray
    dr3: np.ndarray
    dr4: np.ndarray

    def per_row(self, v):
        """Repeat a per-capture (K, 4) array to one entry per row."""
        return np.repeat(v, self.r.shape[0] // self.c.shape[0], axis=0)

    def design(self):
        """Design matrix rows kron(r, c), shape (n_rows, 16)."""
        return np.einsum("ki,kj->kij", self.r, self.per_row(self.c)).reshape(-1, 16)


def forward_model(schedule, coaxial=False, split=0.5):
    """
    Source vectors, analyzer rows and their angle derivatives.

    The whole schedule is one batch of (K, 4, 4) element stacks; in
    coaxial geometry the constant beamsplitter/galvo arms multiply the
    source vectors and the analyzer rows.
    """
    into_scene, out_of_scene = _coaxial_arms(split) if coaxial else (np.eye(4), np.eye(4))
    angles = np.stack([schedule.theta1, schedule.theta2, schedule.theta3, schedule.theta4])
    (lp1, qwp2, qwp3, lp4), (d_lp1, d_qwp2, d_qwp3, d_lp4) = _oriented(angles)
    # the source polarizer applied to unpolarized light is its first column
    light, d_light = lp1[:, :, :1], d_lp1[:, :, :1]
    lift = into_scene @ qwp2
    detect = qwp3 @ out_of_scene
    if schedule.sensor_mode == "polarizer_array":
        front, d_front = _ARRAY_ANALYZERS, np.zeros((4, 4))
    else:
        front, d_front = lp4[:, :1], d_lp4[:, :1]
    return ForwardModel(
        c=(lift @ light)[:, :, 0],
        r=(front @ detect).reshape(-1, 4),
        dc1=(lift @ d_light)[:, :, 0],
        dc2=(into_scene @ d_qwp2 @ light)[:, :, 0],
        dr3=(front @ d_qwp3 @ out_of_scene).reshape(-1, 4),
        dr4=(d_front @ detect).reshape(-1, 4),
    )


def _rank_and_cond(s, tol_factor=RANK_TOL):
    """
    Rank and condition number from descending singular values ``s``.

    Values at or below ``tol_factor * s[0]`` count as zero, so an
    all-zero matrix has rank 0 and cond inf.
    """
    kept = s[s > tol_factor * s[0]]
    return kept.size, float(kept[0] / kept[-1]) if kept.size else np.inf


@dataclass(frozen=True)
class DesignMatrix:
    """Linearized capture model: intensities = a @ vec(M), row-major vec."""

    a: np.ndarray = field(repr=False)
    rank: int
    cond: float


def design_matrix(schedule, coaxial=False, split=0.5):
    """
    Design matrix of a schedule: row (k[,q]) equals kron(r_k, c_k).

    Satisfies A @ vec(M) == stacked forward intensities exactly.
    """
    a = forward_model(schedule, coaxial, split).design()
    return DesignMatrix(a, *_rank_and_cond(np.linalg.svd(a, compute_uv=False)))


# ---------------------------------------------------------------------------
# capture


@dataclass(frozen=True)
class MeasurementSet:
    """
    Stack of modulated intensities with capture provenance.

    intensities has shape (n_rows, S_cam, S_proj, n_bins); coaxial
    geometry stores S_proj = 1 (the diagonal). Rows are capture-major
    (analyzer index fastest in polarizer_array mode); ``capture`` and
    ``read_pltt`` give a view of a buffer in the container's (S_cam,
    S_proj, n_rows, n_bins) order. ``split`` is the beamsplitter
    fraction of a coaxial capture; reconstruction reads it.
    """

    intensities: np.ndarray = field(repr=False)
    schedule: AngleSchedule
    geometry_mode: str
    cam_shape: tuple
    proj_shape: tuple
    time_bin_width: float
    noise_sigma: float = 0.0
    seed: int = None
    provenance: str = ""
    split: float = 0.5

    def __post_init__(self):
        arr = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "intensities", arr)
        object.__setattr__(self, "cam_shape", tuple(int(v) for v in self.cam_shape))
        object.__setattr__(self, "proj_shape", tuple(int(v) for v in self.proj_shape))
        if arr.ndim != 4:
            raise ValueError("intensities must be 4D (rows, S_cam, S_proj, bins)")
        if arr.shape[0] != self.schedule.n_rows:
            raise ValueError("row count %d does not match the schedule's %d"
                             % (arr.shape[0], self.schedule.n_rows))
        if self.geometry_mode not in ("coaxial", "projector_camera"):
            raise ValueError("geometry_mode must be 'coaxial' or 'projector_camera'")
        if not 0.0 <= self.split <= 1.0:
            raise ValueError("split fraction must lie in [0, 1], got %r" % (self.split,))


def capture(tensor, schedule, noise_sigma=0.0, seed=None, masks=None, split=0.5):
    """
    Simulate a full rotating-ellipsometry capture of a transport tensor.

    Projector-camera tensors are captured as an impulse scan: each
    projector pixel is lit alone, so the record holds one intensity per
    (row, camera pixel, projector pixel, bin). Coaxial tensors fold the
    beamsplitter and galvo into the optical chain and record the
    diagonal. Gaussian noise of the given sigma is added per record,
    deterministically for a given seed.

    masks, if given, probe the tensor before the scan (projector-camera
    geometry only).
    """
    if not 0.0 <= noise_sigma < np.inf:  # also rejects NaN
        raise ValueError("noise_sigma must be finite and >= 0, got %r" % (noise_sigma,))
    geometry = "coaxial" if tensor.coaxial else "projector_camera"
    if masks is not None:
        if tensor.coaxial:
            raise ValueError("masks require projector_camera geometry")
        tensor = probe(tensor, masks)
    s_cam, s_proj, _, _, n_bins = tensor.data.shape
    n_pix = s_cam * s_proj
    a = forward_model(schedule, tensor.coaxial, split).design()
    # one (K', T) record per (camera, projector) pixel: the container's order
    vals = np.matmul(a, tensor.data.reshape(n_pix, 16, n_bins))
    if noise_sigma > 0:
        # the stream of rng.normal(0, sigma, (K', S_cam, S_proj, T)), added in
        # place row by row over pixel chunks of at most _NOISE_CHUNK values
        rng = np.random.default_rng(seed)
        step = max(1, _NOISE_CHUNK // n_bins)
        noise = np.empty((min(step, n_pix), n_bins))
        for row in range(len(a)):
            for start in range(0, n_pix, step):
                part = vals[start:start + step, row]
                chunk = noise[:part.shape[0]]
                rng.standard_normal(out=chunk)
                chunk *= noise_sigma
                part += chunk
    return MeasurementSet(
        intensities=vals.reshape(s_cam, s_proj, -1, n_bins).transpose(2, 0, 1, 3),
        schedule=schedule,
        geometry_mode=geometry,
        cam_shape=tensor.cam_shape,
        proj_shape=tensor.proj_shape,
        time_bin_width=tensor.time_bin_width,
        noise_sigma=float(noise_sigma),
        seed=seed,
        split=float(split),
    )


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructionResult:
    """
    Per-pixel(-bin) recovered Mueller blocks plus solver diagnostics.

    ``tensor`` mirrors the captured tensor's layout and carries the
    noise model. ``residual_norms`` has shape (S_cam, S_proj, n_bins).
    ``sigma_hat`` is the per-row measurement noise the model was built
    from.
    """

    tensor: TransportTensor
    rank: int
    cond: float
    underdetermined: bool
    residual_norms: np.ndarray = field(repr=False)
    sigma_hat: float


def _pinv_and_singular_values(a, tol_factor=RANK_TOL):
    """Truncated pseudoinverse, all singular values, and the kept mask."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] <= 0:
        raise ValueError("design matrix is identically zero")
    keep = s > tol_factor * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T, s, keep


def pinv_truncated(a, tol_factor=RANK_TOL):
    """Moore-Penrose pseudoinverse with relative singular-value cutoff."""
    a_pinv, s, _ = _pinv_and_singular_values(a, tol_factor)
    return (a_pinv,) + _rank_and_cond(s, tol_factor)


def reconstruct(meas, split=None):
    """
    Per-pixel least-squares Mueller recovery from a measurement set.

    Solves min ||I - A vec(M)|| for every (camera pixel, projector
    pixel, bin) with the shared design matrix of the recorded schedule
    and split. Full-rank designs give the unique solution; rank-deficient
    ones give the minimum-norm solution and set ``underdetermined``.
    A ``split`` that differs from the recorded one is an error.

    The recovered tensor carries its noise model: the row noise
    sigma_hat^2 = sum ||r||^2 / (N (K' - rank)) over the N solves' residuals
    r (the measurement's stored ``noise_sigma`` when K' = rank leaves no
    residual), propagated through A+ to per-entry standard deviations
    sigma_hat * ||row of A+||.

    The solve reads a container-order measurement without a copy and forms
    the residuals ``_PIXEL_CHUNK`` pixels at a time; non-finite
    measurements, or ones that overflow it, are a ValueError.
    """
    if split is not None and split != meas.split:
        raise ValueError("split %g conflicts with the split %g recorded with the measurements"
                         % (split, meas.split))
    coax = meas.geometry_mode == "coaxial"
    a = forward_model(meas.schedule, coaxial=coax, split=meas.split).design()
    a_pinv, rank, cond = pinv_truncated(a)
    k_rows, s_cam, s_proj, n_bins = meas.intensities.shape
    n_pix = s_cam * s_proj
    # (pixel, row, bin): a view of a container-order measurement
    stacked = meas.intensities.transpose(1, 2, 0, 3).reshape(n_pix, k_rows, n_bins)
    squares = np.empty((n_pix, n_bins))
    residual = np.empty((min(_PIXEL_CHUNK, n_pix), k_rows, n_bins))
    # a flipped exponent byte in a container can hold an intensity near 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        solution = np.matmul(a_pinv, stacked)
        for start in range(0, n_pix, _PIXEL_CHUNK):
            part = slice(start, min(start + _PIXEL_CHUNK, n_pix))
            chunk = np.matmul(a, solution[part], out=residual[:part.stop - start])
            chunk -= stacked[part]
            # the sum of squares np.linalg.norm takes, without its temporaries
            chunk *= chunk
            np.add.reduce(chunk, axis=1, out=squares[part])
        total = squares.sum()
    dof = squares.size * (k_rows - rank)
    sigma_hat = float(np.sqrt(total / dof)) if dof else meas.noise_sigma
    # a finite total has finite residuals, and so a finite solution: a solution
    # entry that A+ can make non-zero meets a non-zero column of A
    if not (np.isfinite(total) and np.isfinite(sigma_hat)):
        raise ValueError("the measurements are not finite or overflow the reconstruction's "
                         "solution, residuals or noise estimate")
    residual_norms = np.sqrt(squares, out=squares).reshape(s_cam, s_proj, n_bins)
    noise_std = sigma_hat * np.sqrt((a_pinv * a_pinv).sum(axis=1)).reshape(4, 4)
    blocks = solution.reshape(s_cam, s_proj, 4, 4, n_bins)
    tensor = TransportTensor(blocks, meas.cam_shape, meas.proj_shape,
                             meas.time_bin_width, coaxial=coax, noise_std=noise_std)
    return ReconstructionResult(tensor, rank, cond, rank < 16, residual_norms, sigma_hat)
