"""
Polar decomposition of Mueller matrices into depolarizer, retarder,
and diattenuator factors, M = M_depol @ M_ret @ M_diat (Lu & Chipman,
JOSA A 13(5), 1996), plus the scalar polarizance / retardance /
diattenuation summaries.

``polar_decompose`` factors one 4x4 matrix or a (..., 4, 4) stack with
broadcast LAPACK calls. The diattenuator is built from the first row of
M; the depolarizer and retarder blocks are the polar factors of one SVD
of what remains (Higham, SIAM J. Sci. Stat. Comput. 7(4), 1986), with a
sign branch that keeps the retarder a proper rotation. A singular
diattenuator (|D| ~ 1, e.g. an ideal polarizer) is inverted by a
pseudoinverse, recomposes only approximately, and is flagged per block.

``decompose_tensor`` factors only the blocks ``lit_blocks`` keeps: those
whose m00 stands above the tensor's noise (NOISE_Z standard deviations
of m00 under the noise model a reconstruction stores with its tensor)
as well as above a fraction of the largest m00. It counts the flagged
blocks and the blocks that no physical system can produce (a negative eigenvalue of the coherency matrix; Cloude, Proc.
SPIE 1166, 1989), and logs the counts once per call.
"""

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .tensor import check_number

logger = logging.getLogger(__name__)

SINGULAR_EPS = 1e-7
# coherency eigenvalues above -REALISABLE_EPS * m00 count as non-negative
REALISABLE_EPS = 1e-9
# a block is lit when its m00 exceeds NOISE_Z standard deviations of m00 noise
NOISE_Z = 5.0


@dataclass(frozen=True)
class DecompositionResult:
    """Factors and summaries of one block (floats and bools) or a stack (arrays)."""

    m_depol: np.ndarray = field(repr=False)
    m_ret: np.ndarray = field(repr=False)
    m_diat: np.ndarray = field(repr=False)
    polarizance: float = 0.0
    retardance: float = 0.0
    diattenuation: float = 0.0
    singular_diattenuator: bool = False
    negative_det_branch: bool = False

    def recompose(self):
        return self.m_depol @ self.m_ret @ self.m_diat


def _require_finite(m):
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    if bad.any():
        raise ValueError("%d Mueller block(s) hold NaN or inf entries" % bad.sum())


def _checked(m, what):
    m = np.asarray(m, dtype=float)
    _require_finite(m)
    if np.any(m[..., 0, 0] <= 0):
        raise ValueError("%s needs m00 > 0" % what)
    return m


def _scalar(x):
    return x.item() if x.ndim == 0 else x


def _tilt(m):
    """||(m01, m02, m03) / m00|| of checked blocks: diattenuation, or polarizance of M^T."""
    return np.sqrt(((m[..., 0, 1:] / m[..., 0, :1]) ** 2).sum(-1))


def diattenuation(m):
    """Dependence of transmitted power on input polarization: first row of M."""
    return _scalar(_tilt(_checked(m, "diattenuation")))


def polarizance(m):
    """Degree of polarization of the output for unpolarized input: first column."""
    return _scalar(_tilt(_checked(m, "polarizance").swapaxes(-1, -2)))


def polar_decompose(m):
    """
    Factor one Mueller matrix, or a (..., 4, 4) stack, into depolarizer,
    retarder, diattenuator.

    Each block is divided by its m00, M_D is built from its first row, and
    m' = M M_D^-1 (a pseudoinverse for a singular diattenuator, |D| within
    SINGULAR_EPS of 1). The SVD m'_3 = U S V^T of m''s lower 3x3 block gives
    the depolarizer block +-U S U^T and the retarder block +-U V^T, a proper
    rotation, with the minus sign where det(U V^T) < 0. This is Lu and
    Chipman's factorisation for a non-singular m'_3, and it recomposes m'_3
    exactly when m'_3 is singular, where the retarder is not determined.

    Returns a DecompositionResult whose factors recompose a passive input to
    1e-8 of m00 elementwise (inverting M_D amplifies rounding by at most
    (1 + D)/(1 - D), 2e7 below the singular cut), at any m00; a singular
    diattenuator recomposes only approximately. m_diat carries the block's
    m00; polarizance and diattenuation are read from the m00-normalised
    block, and D also builds M_D. Its scalars and flags are
    floats and bools for one matrix, arrays of the leading shape for a stack.
    The flags record the singular-diattenuator fallback and the
    negative-determinant branch.

    Raises
    ------
    ValueError
        If any block holds NaN/inf (the message counts them) or has m00 <= 0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 matrix or a (..., 4, 4) stack, got %r" % (m.shape,))
    m = _checked(m, "polar decomposition")
    lead, m = m.shape[:-2], m.reshape(-1, 4, 4)
    m00 = m[:, :1, :1]
    unit = m / m00

    d_vec = unit[:, 0, 1:]
    d_mag = _tilt(unit)
    singular = d_mag >= 1.0 - SINGULAR_EPS
    tiny = d_mag <= 1e-14                      # no diattenuation axis: M_D block = I
    d_hat = d_vec / np.where(tiny, 1.0, d_mag)[:, None]
    root = np.where(tiny, 1.0, np.sqrt(np.maximum(0.0, 1.0 - np.minimum(d_mag, 1.0) ** 2)))
    m_diat = np.empty_like(m)
    m_diat[:, 0, 0] = 1.0
    m_diat[:, 0, 1:] = d_vec
    m_diat[:, 1:, 0] = d_vec
    m_diat[:, 1:, 1:] = (root[:, None, None] * np.eye(3)
                         + (1.0 - root)[:, None, None] * (d_hat[:, :, None] * d_hat[:, None, :]))
    diat_inv = np.empty_like(m)
    diat_inv[~singular] = np.linalg.inv(m_diat[~singular])
    diat_inv[singular] = np.linalg.pinv(m_diat[singular])
    m_prime = unit @ diat_inv
    m_diat *= m00

    u, s, vt = np.linalg.svd(m_prime[:, 1:, 1:])
    rotation = u @ vt
    negative_branch = np.linalg.det(rotation) < 0
    sign = np.where(negative_branch, -1.0, 1.0)[:, None, None]
    m_depol = np.zeros_like(m)
    m_depol[:, 0, 0] = 1.0
    m_depol[:, 1:, 0] = m_prime[:, 1:, 0]
    m_depol[:, 1:, 1:] = sign * (u * s[:, None, :]) @ u.transpose(0, 2, 1)
    m_ret = np.zeros_like(m)
    m_ret[:, 0, 0] = 1.0
    m_ret[:, 1:, 1:] = sign * rotation
    # a rotation keeps (tr - 1)/2 within rounding of [-1, 1]
    cos = (np.trace(m_ret[:, 1:, 1:], axis1=1, axis2=2) - 1.0) / 2.0

    out = {
        "m_depol": m_depol, "m_ret": m_ret, "m_diat": m_diat,
        "polarizance": _tilt(unit.swapaxes(1, 2)),
        "retardance": np.arccos(np.clip(cos, -1.0, 1.0)), "diattenuation": d_mag,
        "singular_diattenuator": singular, "negative_det_branch": negative_branch,
    }
    return DecompositionResult(
        **{k: _scalar(v.reshape(lead + v.shape[1:])) for k, v in out.items()})


@dataclass(frozen=True)
class TensorDecomposition:
    """
    Per-(pixel, bin) maps, NaN below the floor, flag and realisability
    counts, and ``factors``, the ``polar_decompose`` of the kept blocks only.
    The full-grid factors ``m_depol``, ``m_ret`` and ``m_diat``, NaN below
    the floor, are scattered from them when first read.
    """

    polarizance: np.ndarray = field(repr=False)
    retardance: np.ndarray = field(repr=False)
    diattenuation: np.ndarray = field(repr=False)
    null_mask: np.ndarray = field(repr=False)
    factors: DecompositionResult = field(repr=False)
    n_null: int = 0
    n_singular: int = 0
    n_negative_det: int = 0
    n_unrealisable: int = 0

    @functools.cached_property
    def m_depol(self):
        return _scatter(self.factors.m_depol, ~self.null_mask)

    @functools.cached_property
    def m_ret(self):
        return _scatter(self.factors.m_ret, ~self.null_mask)

    @functools.cached_property
    def m_diat(self):
        return _scatter(self.factors.m_diat, ~self.null_mask)


def _scatter(values, lit):
    """A grid of ``lit``'s shape holding ``values`` where it is True and NaN elsewhere."""
    grid = np.full(lit.shape + values.shape[1:], np.nan)
    grid[lit] = values
    return grid


def noise_floor(tensor):
    """NOISE_Z standard deviations of m00 under the tensor's noise model, or None without one."""
    return None if tensor.noise_std is None else NOISE_Z * float(tensor.noise_std[0, 0])


def lit_blocks(tensor, floor_frac):
    """
    A transport source's lit Mueller blocks, (n, 4, 4) in (s, s', t) order,
    and the (S, P, T) mask of them; the source is a tensor or an open
    container of one.

    A block is lit when its m00 is positive, above floor_frac times the
    tensor's largest m00 and, for a tensor with a noise model, above
    ``noise_floor``: the decomposition is meaningless on dark pixels and
    on blocks that noise alone could produce. Without a noise model only
    the relative floor applies. floor_frac must be finite and in [0, 1).

    Each chunk's blocks above the absolute floors and the relative floor of
    the largest m00 so far are kept; the relative floor of the largest m00
    of all then drops the rest, so the blocks and their order do not depend
    on the chunks. A tensor's data, and a chunk its reader yields, are
    finite, so the blocks need no check.
    """
    floor_frac = check_number(floor_frac, "floor fraction", low=0.0, below=1.0)
    head = tensor.header
    noise = noise_floor(head)
    lit = np.empty((head.n_cam, head.record[0], head.n_bins), dtype=bool)
    kept, peak = [], 0.0
    for start, chunk in tensor.chunks():
        m00 = chunk[:, :, 0, 0, :]
        peak = max(peak, m00.max())
        # the largest m00 only grows, so a block below the floor it sets now stays below
        above = (m00 > 0) & (m00 > floor_frac * peak)
        if noise is not None:
            above &= m00 > noise
        lit[start:start + len(chunk)] = above
        kept.append(chunk.transpose(0, 1, 4, 2, 3)[above])
    blocks = kept[0] if len(kept) == 1 else np.concatenate(kept)
    bright = blocks[:, 0, 0] > floor_frac * peak
    lit[lit] = bright
    return (blocks if bright.all() else blocks[bright]), lit


# the Pauli matrices s_0..s_3, and the basis s_i kron conj(s_j) / 4 (as 16 rows) whose
# m-weighted sum is a Mueller matrix's coherency matrix H: Hermitian, and positive
# semidefinite exactly when M is a mixture of Jones systems
_PAULI = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
_COHERENCY = np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI.conj()).reshape(16, 16) / 4.0


def _unrealisable(m, noise_std=None):
    """
    Mask of (n, 4, 4) Mueller blocks that no physical system produces:
    their coherency matrix has an eigenvalue below -REALISABLE_EPS * m00.

    With a (4, 4) noise model the tolerance is at least NOISE_Z times
    ||noise_std||_F / 2: the map M -> H scales every direction by 1/2 in
    Frobenius norm, and by Weyl's inequality no eigenvalue of H moves by
    more than ||dH||_F. A pure block has three zero eigenvalues, which
    noise alone pushes below any fixed tolerance.
    """
    coherency = (m.reshape(-1, 16) @ _COHERENCY).reshape(-1, 4, 4)
    tol = REALISABLE_EPS * m[:, 0, 0]
    if noise_std is not None:
        tol = np.maximum(tol, NOISE_Z * 0.5 * np.linalg.norm(noise_std))
    return np.linalg.eigvalsh(coherency)[:, 0] < -tol


def decompose_tensor(tensor, floor_frac=1e-6):
    """
    Polar-decompose every lit polarimetric block of a transport tensor.

    Blocks that ``lit_blocks`` leaves out are NaN in every map and
    counted in ``n_null``. The rest go through one stack call of
    ``polar_decompose``, kept as ``factors``; the scalar maps are
    scattered onto the (S, P, T) grid at once, and the 4x4 factor grids
    only when read. ``n_unrealisable`` counts the kept blocks that are not
    physically realisable beyond the tensor's noise, if it has a noise
    model.
    """
    kept, lit = lit_blocks(tensor, floor_frac)
    res = polar_decompose(kept)
    counts = {"n_singular": int(res.singular_diattenuator.sum()),
              "n_negative_det": int(res.negative_det_branch.sum()),
              "n_unrealisable": int(_unrealisable(kept, tensor.noise_std).sum())}
    logger.info("decomposed %d of %d blocks: %s", lit.sum(), lit.size,
                ", ".join("%s=%d" % kv for kv in counts.items()))
    maps = {name: _scatter(getattr(res, name), lit)
            for name in ("polarizance", "retardance", "diattenuation")}
    return TensorDecomposition(null_mask=~lit, factors=res, n_null=int((~lit).sum()),
                               **maps, **counts)
