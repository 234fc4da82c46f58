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
one ``Decoder``, a truncated-SVD pseudoinverse shared across pixels and
time bins, that its noise model and angle learning read too.

``forward_model`` is the one forward model, in closed form. With
c = cos 2beta, s = sin 2beta and d = beta - alpha, a linear polarizer at
alpha next to a quarter-wave plate at beta gives

    v(alpha, beta) = 1/2 [1, c cos 2d, s cos 2d, sin 2d]

in ``polarization``'s conventions (positive s3 right-circular, the
retarder turning (s2, s3) as ``retarder`` does). The source vector is
v(theta1, theta2); the analyzer row, the first row of L(theta4) Q(theta3),
is v(theta4, theta3) with its circular component negated, or the same
at each fixed on-sensor analyzer angle. The angle derivatives are as
short, and the coaxial folds multiply the vectors. Capture applies the
design A to the tensor, reconstruction inverts the same A, and angle
learning differentiates it.
"""

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .polarization import beamsplitter, galvo_mirror
from .tensor import Header, HeaderArray, TransportTensor, check_number, probe_weights, run_spans

ANALYZER_ANGLES_DEG = (0.0, 45.0, 90.0, 135.0)
_ANALYZER_ANGLES = np.deg2rad(ANALYZER_ANGLES_DEG)
RANK_TOL = 1e-10
# files store degrees: the largest angle in radians whose degrees are finite
_MAX_RADIANS = np.deg2rad(np.finfo(float).max)


def check_flags(flags, name):
    """``flags`` as 4 bools, one per rotating element, from 4 bools or 0/1 integers."""
    values = flags.tolist() if isinstance(flags, np.ndarray) else flags
    if not (isinstance(values, (list, tuple)) and len(values) == 4 and all(
            isinstance(v, (bool, int, np.bool_, np.integer)) and v in (0, 1) for v in values)):
        raise ValueError("%s must be 4 flags (bools or 0/1), got %r" % (name, flags))
    return tuple(bool(v) for v in values)


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
            object.__setattr__(self, name, check_number(
                getattr(self, name), name, low=-_MAX_RADIANS, high=_MAX_RADIANS, shape=(None,)))
        k = self.theta1.shape[0]
        if any(getattr(self, name).shape[0] != k for name in ("theta2", "theta3", "theta4")):
            raise ValueError("angle columns must share the capture count K=%d" % k)
        if self.sensor_mode not in ("intensity", "polarizer_array"):
            raise ValueError("sensor_mode must be 'intensity' or 'polarizer_array', got %r"
                             % (self.sensor_mode,))
        object.__setattr__(self, "fixed", check_flags(self.fixed, "fixed"))

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
    k = check_number(k, "K", low=1, integer=True)
    idx = np.arange(k, dtype=float)
    return AngleSchedule(
        theta1=np.zeros(k),
        theta2=np.deg2rad(5.0 * idx),
        theta3=np.deg2rad(25.0 * idx),
        theta4=np.zeros(k),
        sensor_mode=sensor_mode,
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
    columns = []
    for key in ("theta1_deg", "theta2_deg", "theta3_deg", "theta4_deg"):
        if key not in obj:
            raise ValueError("schedule is missing field %r" % key)
        columns.append(np.deg2rad(check_number(obj[key], "schedule field %r" % key,
                                               shape=(None,))))
    fixed = obj.get("fixed", [True, False, False, True])
    if not (isinstance(fixed, list) and all(isinstance(b, bool) for b in fixed)):
        raise ValueError("schedule field 'fixed' must be a list of booleans, got %r" % (fixed,))
    return AngleSchedule(*columns, sensor_mode=obj.get("sensor_mode", "intensity"), fixed=fixed)


def save_schedule(path, schedule):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2, sort_keys=True)


def load_schedule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# forward model


def _coaxial_arms(split=0.5):
    """
    Folded source/detection factors: (galvo @ B_t, B_r @ galvo).

    Light transmits through the splitter into the scene (fraction
    ``split``) and the returning beam reflects toward the detector
    (fraction ``1 - split``).
    """
    g = galvo_mirror()
    return g @ beamsplitter("transmit", split), beamsplitter("reflect", 1.0 - split) @ g


def _arm(alpha, beta):
    """
    v(alpha, beta) of the module docstring, dv/dalpha and dv/dbeta, stacked
    as an array of ``alpha``'s shape plus (3, 4).
    """
    c, s = np.cos(2.0 * beta), np.sin(2.0 * beta)
    cd, sd = np.cos(2.0 * (beta - alpha)), np.sin(2.0 * (beta - alpha))
    c_cd, s_cd, c_sd, s_sd = c * cd, s * cd, c * sd, s * sd
    out = np.zeros(cd.shape + (3, 4))
    out[..., 0, 0] = 0.5
    out[..., 0, 1], out[..., 0, 2], out[..., 0, 3] = 0.5 * c_cd, 0.5 * s_cd, 0.5 * sd
    out[..., 1, 1], out[..., 1, 2], out[..., 1, 3] = c_sd, s_sd, -cd
    out[..., 2, 1], out[..., 2, 2], out[..., 2, 3] = -s_cd - c_sd, c_cd - s_sd, cd
    return out


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

    def design(self):
        """Design matrix rows kron(r, c), shape (n_rows, 16)."""
        k = self.c.shape[0]
        return (self.r.reshape(k, -1, 4, 1) * self.c[:, None, None, :]).reshape(-1, 16)


def forward_model(schedule, coaxial=False, split=0.5):
    """
    Source vectors, analyzer rows and their angle derivatives in closed
    form (module docstring); in coaxial geometry the constant
    beamsplitter/galvo arms multiply the vectors.
    """
    angles = np.stack([schedule.theta1, schedule.theta2, schedule.theta3, schedule.theta4])
    return _forward(angles, schedule.sensor_mode, coaxial, split)


def _forward(angles, sensor_mode, coaxial=False, split=0.5):
    """``forward_model`` of the (4, K) angles theta1..theta4 of a schedule."""
    theta1, theta2, theta3, theta4 = angles
    front = _ANALYZER_ANGLES if sensor_mode == "polarizer_array" else theta4[:, None]
    # one batch of arms per capture: the source, then the detection arms
    alpha = np.empty((theta1.shape[0], 1 + front.shape[-1]))
    beta = np.empty_like(alpha)
    alpha[:, 0], alpha[:, 1:] = theta1, front
    beta[:, 0], beta[:, 1:] = theta2, theta3[:, None]
    arms = _arm(alpha, beta)
    arms[:, 1:, :, 3] *= -1.0      # an analyzer row negates the circular component
    c, dc1, dc2 = arms[:, 0].transpose(1, 0, 2)
    r, dr4, dr3 = arms[:, 1:].reshape(-1, 3, 4).transpose(1, 0, 2)
    if sensor_mode == "polarizer_array":
        dr4 = np.zeros_like(r)
    if coaxial:
        into_scene, out_of_scene = _coaxial_arms(split)
        c, dc1, dc2 = (x @ into_scene.T for x in (c, dc1, dc2))
        r, dr3, dr4 = (x @ out_of_scene for x in (r, dr3, dr4))
    return ForwardModel(c, r, dc1, dc2, dr3, dr4)


class Decoder:
    """
    The truncated-pseudoinverse decoder of a design ``a`` that reconstruction,
    its noise model and angle learning share: the thin SVD ``u``, ``s``,
    ``vt``; ``inv``, 1/s with zeros at or below ``RANK_TOL * s[0]``; the
    ``rank`` and ``cond`` of the kept values (0 and inf for an all-zero
    design); and A+ = V diag(inv) U^T, formed only when ``pinv`` is read.
    """

    def __init__(self, a):
        self.a = a
        self.u, self.s, self.vt = np.linalg.svd(a, full_matrices=False)
        cutoff = RANK_TOL * self.s[0]
        keep = self.s > cutoff
        self.inv = np.zeros_like(self.s)
        self.inv[keep] = 1.0 / self.s[keep]
        # the singular values are in descending order, so the kept ones lead
        self.rank = int(np.count_nonzero(keep))
        self.cond = float(self.s[0] / self.s[self.rank - 1]) if self.rank else np.inf
        # grad_loss's rank_marginal: a kept value within a factor 100 of the cut
        self.marginal = bool(((self.s > cutoff * 1e-2) & (self.s < cutoff * 1e2) & keep).any())

    @classmethod
    def of_measurements(cls, meas, split=None):
        """
        The decoder of a measurement Header's schedule and split. A ``split``
        other than the recorded one fails before any record is read.
        """
        if split is not None and split != meas.split:
            raise ValueError("split %g conflicts with the split %g recorded with the "
                             "measurements" % (split, meas.split))
        decoder = cls(forward_model(meas.schedule, coaxial=meas.coaxial, split=meas.split).design())
        decoder.pinv    # a solve needs A+: forming it now fails an all-zero design
        return decoder

    @functools.cached_property
    def pinv(self):
        """A+, shape (16, K')."""
        if not self.rank:
            raise ValueError("design matrix is identically zero")
        return (self.vt.T * self.inv) @ self.u.T

    def run(self, meas, out):
        """
        Write A+ times each (K', T) record of the measurement source ``meas``
        through ``out``: each chunk's blocks fill an ``out.slot`` that
        ``out.write`` takes, the chunks of ``tensor.run_spans``' spans on its
        workers. Returns the solution's transport Header with its noise model
        (``reconstruct``), sigma_hat and the (S_cam, S_proj, T) residual
        norms; non-finite residual sums are a ValueError. Each residual's sum
        of squares is one fused pass over the chunk of residuals: the bits of
        squaring and then summing the K' rows in order for T >= 2; with T = 1
        the contiguous sum runs in another order (within a few ulp). No
        output bit depends on the spans, the workers or the chunks.
        """
        head = meas.header
        s_proj, k_rows, n_bins = head.record
        block = (s_proj, 4, 4, n_bins)
        pinv = self.pinv
        squares = np.empty((head.n_cam * s_proj, n_bins))

        def space(step):
            return (meas.buffer((step,) + head.record), out.buffer((step,) + block),
                    np.empty((step * s_proj, k_rows, n_bins)))

        def work(j, span, ws):
            read, slot, residual = ws
            for start, records in meas.chunks(span, read):
                n = len(records)
                blocks = out.slot(start, n, slot)
                stacked = records.reshape(n * s_proj, k_rows, n_bins)
                # a flipped exponent byte in a container can hold an intensity near 1e308
                with np.errstate(over="ignore", invalid="ignore"):
                    solution = np.matmul(pinv, stacked,
                                         out=blocks.reshape(n * s_proj, 16, n_bins))
                    r = np.matmul(self.a, solution, out=residual[:n * s_proj])
                    r -= stacked
                    # the sum of squares np.linalg.norm takes, fused and without its temporaries
                    np.einsum("nkt,nkt->nt", r, r,
                              out=squares[start * s_proj:(start + n) * s_proj])
                out.write(blocks, start)

        run_spans(head.n_cam, (head.record, block), work, space)
        with np.errstate(over="ignore", invalid="ignore"):
            total = squares.sum()
        dof = squares.size * (self.a.shape[0] - self.rank)
        sigma_hat = float(np.sqrt(total / dof)) if dof else head.noise_sigma
        # a finite total has finite residuals, and so a finite solution: a solution
        # entry that A+ can make non-zero meets a non-zero column of A
        if not (np.isfinite(total) and np.isfinite(sigma_hat)):
            raise ValueError("the measurements are not finite or overflow the reconstruction's "
                             "solution, residuals or noise estimate")
        noise_std = sigma_hat * np.sqrt((pinv * pinv).sum(axis=1)).reshape(4, 4)
        header = Header("transport", head.cam_shape, head.proj_shape, head.coaxial, n_bins,
                        head.time_bin_width, head.channel_id, noise_std=noise_std)
        return header, sigma_hat, np.sqrt(squares, out=squares).reshape(head.n_cam, s_proj, n_bins)


def design_matrix(schedule, coaxial=False, split=0.5):
    """
    The ``Decoder`` of a schedule's design matrix ``a``: row (k[,q]) equals kron(r_k, c_k).

    Satisfies A @ vec(M) == stacked forward intensities exactly.
    """
    return Decoder(forward_model(schedule, coaxial, split).design())


# ---------------------------------------------------------------------------
# capture


@dataclass(frozen=True)
class MeasurementSet(HeaderArray):
    """
    Stack of modulated intensities: its ``header`` (``tensor.Header`` states
    and checks the layout and the capture's stored values) plus its
    intensities.

    intensities has shape (S_cam, S_proj, n_rows, n_bins), the
    container's order: one (n_rows, n_bins) record per camera and
    projector pixel. A ``coaxial`` set stores S_proj = 1 (the diagonal).
    Rows are capture-major (analyzer index fastest in polarizer_array
    mode). ``split`` is the beamsplitter fraction of a coaxial capture;
    reconstruction reads it. ``provenance`` says what made the set, and
    ``channel_id`` which channel of the captured tensor it measured.
    """

    kind = "measurement"

    intensities: np.ndarray = field(repr=False)
    schedule: AngleSchedule
    coaxial: bool
    cam_shape: tuple
    proj_shape: tuple
    time_bin_width: float
    noise_sigma: float = 0.0
    seed: int = None
    provenance: str = ""
    split: float = 0.5
    channel_id: str = "mono"
    header: Header = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "intensities", arr)
        if arr.ndim != 4:
            raise ValueError("intensities must be 4D (S_cam, S_proj, rows, bins)")
        self._check_header(arr.shape)


class _ArrayWriter:
    """
    The writer of ``capture`` and ``reconstruct``: the first ``buffer`` call,
    on the calling thread, makes the one (S_cam, ...) ``array``, whose rows
    each ``slot`` views in place of a buffer, so ``write`` has nothing to do.
    """

    def __init__(self, n_cam):
        self.n_cam, self.array = n_cam, None

    def buffer(self, shape):
        if self.array is None:
            self.array = np.empty((self.n_cam,) + shape[1:])

    def slot(self, start, n, buf):
        return self.array[start:start + n]

    def write(self, chunk, start=0):
        pass


class CaptureKernel:
    """
    A capture of a transport layout (a Header): the ``header`` of the
    measurement set it makes, which checks the capture's arguments once,
    and its chunk loop. The design is the one ``Decoder.of_measurements``
    reconstructs with, so a design of rank 0, as a coaxial split of 0 or 1
    gives, fails as reconstruct fails on it. A probe mask is kept as its
    ``probe_weights`` rule ``mask``: a chunk builds only its own rows.

    The noise is sigma * N(0, 1) draws of one SFC64 stream per span of
    ``tensor.run_spans`` (about ``SPAN_VALUES`` intensities), in the
    measurement's own (s, s', row, t) order: span 0 draws from
    ``SFC64(seed)``, span j > 0 from ``SFC64(SeedSequence(seed,
    spawn_key=(j,)))``. The spans depend on the layout alone, and the draws
    of a span's successive chunks concatenate, so neither the workers nor
    the chunk size can change a value, and a capture of at most
    ``SPAN_VALUES`` intensities is the one ``SFC64(seed)`` stream. A noisy
    chunk's draws go straight into its records, and the design products of
    its lit (s, s') pairs, formed a run of adjacent ones at a time in the
    worker's chunk of scratch, are added to them. A dark pair's product is
    +0.0, so its record is its noise: the bits of product + noise but where
    a noise value is -0.0 (a draw of exactly -0.0, or one that underflows at
    a sigma near the smallest double).
    """

    def __init__(self, layout, schedule, noise_sigma=0.0, seed=None, masks=None, split=0.5):
        self.header = Header("measurement", layout.cam_shape, layout.proj_shape, layout.coaxial,
                             layout.n_bins, layout.time_bin_width, layout.channel_id,
                             schedule=schedule, noise_sigma=noise_sigma, seed=seed, split=split)
        self.mask = None if masks is None else probe_weights(layout, masks)
        self.a = Decoder.of_measurements(self.header).a
        # the seed's entropy, drawn once when there is no seed, keys every span's stream
        self.entropy = (np.random.SeedSequence(self.header.seed).entropy
                        if self.header.noise_sigma > 0 else None)

    def run(self, source, out):
        """
        Write the records of a transport source of this layout through
        ``out``: each chunk's records fill an ``out.slot`` that ``out.write``
        takes, the chunks of ``tensor.run_spans``' spans on its workers. A
        record is the design times its block, weighted by its probe-mask
        entry when there is a mask, plus the next K' * T noise values of its
        span's stream.
        """
        record, sigma = self.header.record, self.header.noise_sigma

        def space(step):
            return (source.buffer((step,) + source.header.record), out.buffer((step,) + record),
                    np.empty((step * record[0],) + record[1:]) if sigma else None)

        def work(j, span, ws):
            read, slot, scratch = ws
            if sigma:
                seeds = np.random.SeedSequence(self.entropy, spawn_key=(j,) if j else ())
                rng = np.random.Generator(np.random.SFC64(seeds))
            for start, blocks in source.chunks(span, read):
                n, s_proj, _, _, n_bins = blocks.shape
                if self.mask is not None:
                    blocks = blocks * self.mask(start, n)[:, :, None, None, None]
                records = out.slot(start, n, slot)
                flat = blocks.reshape(n * s_proj, 16, n_bins)
                pairs = records.reshape(n * s_proj, -1, n_bins)
                if not sigma:
                    np.matmul(self.a, flat, out=pairs)
                else:
                    lit = (flat != 0).reshape(len(flat), -1).any(axis=1)
                    edges = np.diff(np.concatenate(([False], lit, [False])))
                    runs = np.flatnonzero(edges).reshape(-1, 2)     # (first, end) of each lit run
                    # the products first, while the chunk's blocks are still in cache
                    for i, k in runs:
                        np.matmul(self.a, flat[i:k], out=scratch[i:k])
                    rng.standard_normal(out=records)
                    records *= sigma
                    for i, k in runs:
                        run = pairs[i:k]
                        run += scratch[i:k]
                out.write(records, start)
                del flat    # a chunk's weighted blocks go before the next chunk's form

        run_spans(self.header.n_cam, (record, source.header.record), work, space)


def capture(tensor, schedule, noise_sigma=0.0, seed=None, masks=None, split=0.5):
    """
    Simulate a full rotating-ellipsometry capture of a transport source: a
    TransportTensor or an open container of one.

    Projector-camera tensors are captured as an impulse scan: each
    projector pixel is lit alone, so the record holds one intensity per
    (camera pixel, projector pixel, row, bin). Coaxial tensors fold the
    beamsplitter and galvo into the optical chain and record the
    diagonal. Gaussian noise of the given sigma is added to every
    intensity: sigma * N(0, 1) draws in the intensities' own order, one
    SFC64 stream per span of about 2^20 intensities (``CaptureKernel``),
    so ``SFC64(seed)`` alone for a capture of at most 2^20 intensities,
    and the same for every chunk size and worker count.

    masks, if given, is a probe mask, an array or a rule (``tensor.probe_weights``),
    applied to the tensor before the scan (projector-camera geometry only).

    The scan is ``CaptureKernel.run`` over the source's chunks, as in
    ``pltt capture``, writing into the measurement's own array, its spans
    on one thread per CPU: the noise is drawn into the records, and only
    the lit (s, s') pairs' design products are added to it. Beyond the
    source and the measurement it holds one chunk of scratch for those
    products and, with a mask, one chunk of mask rows and of weighted
    blocks, the workers sharing the chunk.
    """
    kernel = CaptureKernel(tensor.header, schedule, noise_sigma, seed, masks, split)
    out = _ArrayWriter(kernel.header.n_cam)
    kernel.run(tensor, out)
    return MeasurementSet.of(kernel.header, out.array)


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructionResult:
    """
    Per-pixel(-bin) recovered Mueller blocks plus solver diagnostics.

    ``tensor`` mirrors the captured tensor's layout and carries the
    noise model and the measurement's channel. ``residual_norms`` has
    shape (S_cam, S_proj, n_bins); ``pltt reconstruct`` writes it bit for
    bit as ``<stem>_residual_norms.npy`` (``np.load`` reads it), and its
    p50, p99 and max per bin as the summary ``<stem>_diagnostics.csv``.
    ``sigma_hat`` is the per-row measurement noise the model was built
    from.
    """

    tensor: TransportTensor
    rank: int
    cond: float
    underdetermined: bool
    residual_norms: np.ndarray = field(repr=False)
    sigma_hat: float


def pinv_truncated(a):
    """A+ of ``a`` with its rank and cond, as its ``Decoder`` gives them."""
    decoder = Decoder(a)
    return decoder.pinv, decoder.rank, decoder.cond


def reconstruct(meas, split=None):
    """
    Per-pixel least-squares Mueller recovery from a measurement source: a
    MeasurementSet or an open container of one.

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

    The solve is ``Decoder.run`` over the source's chunks, as in ``pltt
    reconstruct``, writing into the tensor's own array; non-finite
    measurements, or ones that overflow it, are a ValueError.
    """
    decoder = Decoder.of_measurements(meas.header, split)
    out = _ArrayWriter(meas.header.n_cam)
    header, sigma_hat, residual_norms = decoder.run(meas, out)
    return ReconstructionResult(TransportTensor.of(header, out.array), decoder.rank,
                                decoder.cond, decoder.rank < 16, residual_norms, sigma_hat)
