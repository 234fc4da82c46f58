"""
Statistical tools layered on top of transport tensors: a bounded
arctan compression for Mueller samples, PCA over the compressed
vectors, and an affine descattering fit that predicts a scatter-free
intensity image from the 16 polarimetric channels of a summed tensor.
"""

from dataclasses import dataclass, field

import numpy as np

from .learning import lbfgs
from .tensor import check_number, fold


def arctan_map(m, c=8.0):
    """Elementwise y = arctan(c * x) of finite x: squashes each entry into (-pi/2, pi/2)."""
    c = check_number(c, "compression factor", above=0.0)
    return np.arctan(c * check_number(m, "arctan_map values", shape=None))


def arctan_unmap(y, c=8.0):
    """Inverse of arctan_map; |y| >= pi/2 has no preimage and raises, as NaN does."""
    c = check_number(c, "compression factor", above=0.0)
    y = check_number(y, "arctan_unmap values (|y| < pi/2)", above=-np.pi / 2, below=np.pi / 2,
                     shape=None)
    return np.tan(y) / c


@dataclass(frozen=True)
class ObservationMatrix:
    """Rows are vec(arctan(c * M / m00)) for each usable Mueller sample."""

    rows: np.ndarray = field(repr=False)
    c: float = 8.0
    n_skipped: int = 0


def build_observation(samples, c=8.0):
    """
    Stack Mueller samples (n, 4, 4) into an (n_used, 16) observation
    matrix. Each sample is normalized by its own m00 before the arctan
    map, so the rows are invariant to overall attenuation. Samples with
    m00 <= 0 are skipped and counted.
    """
    samples = check_number(samples, "samples", shape=(None, 4, 4))
    keep = samples[:, 0, 0] > 0
    used = samples[keep]
    rows = arctan_map(used / used[:, :1, :1], c=c).reshape(used.shape[0], 16)
    return ObservationMatrix(rows=rows, c=float(c), n_skipped=int((~keep).sum()))


@dataclass(frozen=True)
class PrincipalBasis:
    mean: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)      # (16, 16), rows orthonormal
    singular_values: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)          # cumulative variance fraction
    n_determined: int       # leading components the rows fix; the rest span a null space

    def n_components_for(self, fraction):
        """Smallest component count whose cumulative energy reaches fraction."""
        fraction = check_number(fraction, "fraction", above=0.0, high=1.0)
        return int(np.searchsorted(self.energy, fraction - 1e-12) + 1)


def pca(rows):
    """
    Principal components of the (n, 16) rows of an observation matrix
    (``ObservationMatrix.rows``), mean removed, from the SVD of the centred
    rows' QR factor R, so no (n, n) U is built.

    Always returns a full 16-vector basis, each component signed so its
    largest-magnitude entry is positive. The rows fix only the first
    ``n_determined``, whose singular values pass numpy's ``matrix_rank``
    tolerance for the rows; the rest, of zero or rounding-level singular
    values, are any basis of a null space. Identical rows fix none and give
    a flat energy curve of ones.
    """
    rows = check_number(rows, "observation rows", shape=(None, 16))
    if rows.shape[0] < 2:
        raise ValueError("PCA needs at least 2 samples")
    mean = rows.mean(axis=0)
    centered = rows - mean
    _, svals, vt = np.linalg.svd(np.linalg.qr(centered, mode="r"))
    # the SVD fixes a component only up to sign: make its largest-magnitude entry positive
    vt *= np.sign(vt[np.arange(16), np.abs(vt).argmax(axis=1)])[:, None]
    full = np.zeros(16)
    full[: svals.shape[0]] = svals
    power = full**2
    total = power.sum()
    energy = np.cumsum(power) / total if total > 0 else np.ones(16)
    # scaled by ||rows||_F, not by svals[0]: centring leaves coinciding rows at rounding level
    tol = np.sqrt(total + len(rows) * mean @ mean) * max(len(rows), 16) * np.finfo(float).eps
    return PrincipalBasis(mean=mean, components=vt, singular_values=full, energy=energy,
                          n_determined=int((svals > tol).sum()))


def pca_project(basis, rows, n_components=16):
    """Coefficients of (rows - mean) on the leading principal directions, of finite rows."""
    rows = np.atleast_2d(check_number(rows, "observation rows", shape=None))
    return (rows - basis.mean) @ basis.components[:n_components].T


def pca_reconstruct(basis, coeffs):
    """Back from finite principal coefficients to observation rows."""
    coeffs = np.atleast_2d(check_number(coeffs, "principal coefficients", shape=None))
    return coeffs @ basis.components[: coeffs.shape[1]] + basis.mean


def summed_polarimetric_image(tensor, mask=None):
    """
    Per-camera-pixel 4x4 Mueller image of a transport source (a tensor or
    an open container of one): its ``fold``, through a probe mask (a dense
    array or a rule, projector-camera sources only) or none, summed over
    time bins.
    """
    return fold(tensor, mask).data[:, 0].sum(axis=-1)


@dataclass(frozen=True)
class DescatterModel:
    """
    Affine map from a (S, 4, 4) Mueller image to a scalar image:
    prediction(s) = sum_ij weights[i,j] * (image[s,i,j] + offsets[i,j]).
    """

    weights: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    mode: str = "full"
    method: str = "closed_form"
    objective: float = 0.0
    history: tuple = ()
    converged: bool = True      # False when L-BFGS stopped short; ``message`` says why
    message: str = ""


def apply_descatter(model, image):
    image = check_number(image, "image", shape=(None, 4, 4))
    return np.einsum("sij,ij->s", image + model.offsets, model.weights)


def _restrict(mode):
    support = np.zeros((4, 4), dtype=bool)
    if mode == "full":
        support[:] = True
    elif mode == "intensity_only":
        support[0, 0] = True
    else:
        raise ValueError("unknown descatter mode %r" % (mode,))
    return support


def _closed_form(x_flat, target):
    design = np.concatenate([x_flat, np.ones((x_flat.shape[0], 1))], axis=1)
    theta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    w, beta = theta[:-1], theta[-1]
    wsq = float(w @ w)
    if wsq > 0:
        b = beta * w / wsq
    else:
        if abs(beta) > 1e-12:
            raise ValueError(
                "descatter fit collapsed to a constant; no weight/offset pair realizes it"
            )
        b = np.zeros_like(w)
    return w, b


def _objective_and_grad(params, x_flat, target, support_flat):
    w = params[:16] * support_flat
    b = params[16:] * support_flat
    pred = x_flat @ w + w @ b
    resid = pred - target
    obj = float(resid @ resid)
    grad_w = 2.0 * (resid @ x_flat + resid.sum() * b) * support_flat
    grad_b = 2.0 * resid.sum() * w * support_flat
    return obj, np.concatenate([grad_w, grad_b])


def fit_descatter(image, target, mode="full", method="closed_form"):
    """
    Fit the affine descattering model minimizing sum_s (prediction - target)^2.

    mode "full" fits all 16 channels; "intensity_only" restricts weight
    and offset support to the (0, 0) channel, which is what a camera
    without polarimetry could do. method "closed_form" solves the
    equivalent affine least-squares exactly; "lbfgs" runs ``learning.lbfgs``
    with analytic gradients from the identity initialization and records
    the objective after each iteration. Both land on the same objective
    value for well-posed inputs; an L-BFGS run that stops short of
    convergence (the iteration cap on an ill-conditioned image) returns
    ``converged=False`` with the optimizer's message.
    """
    image = check_number(image, "image", shape=(None, 4, 4))
    target = check_number(target, "target (one value per camera pixel)",
                          shape=(image.shape[0],))
    if image.shape[0] < 2:
        raise ValueError("descatter fit needs at least 2 pixels")
    if not np.any(image):
        raise ValueError("descatter fit needs a nonzero image")

    support = _restrict(mode)
    support_flat = support.reshape(16).astype(float)
    x_flat = image.reshape(image.shape[0], 16) * support_flat

    if method == "closed_form":
        params = np.zeros(32)
        params[np.tile(support_flat > 0, 2)] = np.concatenate(
            _closed_form(x_flat[:, support_flat > 0], target))
        obj, _ = _objective_and_grad(params, x_flat, target, support_flat)
        history, converged, message = (obj,), True, ""
    elif method == "lbfgs":
        x0 = np.eye(32)[0]   # start from the plain-intensity readout
        params, obj, history, converged, message = lbfgs(
            lambda p: _objective_and_grad(p, x_flat, target, support_flat), x0, 500, 1.0)
    else:
        raise ValueError("unknown descatter method %r" % (method,))

    return DescatterModel(
        weights=(params[:16] * support_flat).reshape(4, 4),
        offsets=(params[16:] * support_flat).reshape(4, 4),
        mode=mode,
        method=method,
        objective=obj,
        history=tuple(history),
        converged=converged,
        message=message,
    )
