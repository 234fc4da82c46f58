"""
Stokes-Mueller algebra and the polarizing elements of the capture models.

Conventions, fixed once and locked by tests:

- Stokes vectors are ``(s0, s1, s2, s3)``: intensity, 0/90 degree linear,
  +/-45 degree linear, circular. Positive ``s3`` is right-circular from
  the receiver's point of view.
- A frame rotation by ``theta`` acts on the ``(s1, s2)`` pair through the
  doubled angle: R(theta) = [[1,0,0,0],[0,c,-s,0],[0,s,c,0],[0,0,0,1]]
  with c = cos(2 theta), s = sin(2 theta).
- An element oriented at ``theta`` is ``R(theta) @ M0 @ R(-theta)``.
- The axis-aligned retarder leaves ``(s0, s1)`` alone and rotates the
  ``(s2, s3)`` pair by the retardance.
- Angles are radians everywhere inside the package; degrees appear only
  at user-facing boundaries (CLI flags, schedule files, scene files).
"""

import numpy as np

from .tensor import check_number


def rotation_mueller(theta):
    """
    Mueller matrix of a frame rotation by ``theta`` radians.

    Parameters
    ----------
    theta : float or ndarray
        Rotation angle in radians, or an array of them.

    Returns
    -------
    ndarray
        4x4 rotation Mueller matrix, stacked over ``theta``'s shape.
    """
    c = np.cos(2.0 * theta)
    s = np.sin(2.0 * theta)
    m = np.zeros(np.shape(theta) + (4, 4))
    m[..., 0, 0] = m[..., 3, 3] = 1.0
    m[..., 1, 1] = m[..., 2, 2] = c
    m[..., 1, 2], m[..., 2, 1] = -s, s
    return m


def rotate_element(m0, theta):
    """Orient an axis-aligned element matrix at angle ``theta``."""
    return rotation_mueller(theta) @ m0 @ rotation_mueller(-theta)


def linear_polarizer(theta=0.0):
    """
    Ideal linear polarizer with transmission axis at ``theta`` radians.

    Transmits half of unpolarized light and fully polarizes the output;
    ``rotate_element`` orients it at every angle, 0 included.
    """
    m0 = np.zeros((4, 4))
    m0[:2, :2] = 0.5
    return rotate_element(m0, theta)


def retarder(theta, delta):
    """
    Linear retarder with fast axis at ``theta`` and retardance ``delta``.

    Parameters
    ----------
    theta : float or ndarray
        Fast-axis orientation, radians.
    delta : float or ndarray
        Retardance, radians.

    Returns
    -------
    ndarray
        4x4 Mueller matrix, stacked over the broadcast shape of the angles,
        oriented by ``rotate_element`` at every ``theta``, 0 included.
    """
    cd = np.cos(delta)
    sd = np.sin(delta)
    m0 = np.zeros(np.shape(delta) + (4, 4))
    m0[..., 0, 0] = m0[..., 1, 1] = 1.0
    m0[..., 2, 2] = m0[..., 3, 3] = cd
    m0[..., 2, 3], m0[..., 3, 2] = sd, -sd
    return rotate_element(m0, theta)


def quarter_wave_plate(theta=0.0):
    """Quarter-wave plate: retarder with retardance pi/2."""
    return retarder(theta, np.pi / 2.0)


def ideal_mirror():
    """Ideal mirror: flips the diagonal linear and circular components."""
    return np.diag([1.0, 1.0, -1.0, -1.0])


def beamsplitter(mode="transmit", split=0.5):
    """
    Non-polarizing beamsplitter arm.

    ``transmit`` is a scaled identity, ``reflect`` a scaled mirror flip;
    ``split`` is the fraction of intensity sent into the arm.
    """
    split = check_number(split, "split fraction", low=0.0, high=1.0)
    if mode == "transmit":
        return split * np.eye(4)
    if mode == "reflect":
        return split * np.diag([1.0, 1.0, -1.0, -1.0])
    raise ValueError("beamsplitter mode must be 'transmit' or 'reflect', got %r" % (mode,))


def galvo_mirror():
    """
    Scanning galvo mirror.

    Modeled as an ideal mirror for every scan orientation.
    """
    return ideal_mirror()


# ---------------------------------------------------------------------------
# algebra


def apply_mueller(m, s):
    """Apply Mueller matrix ``m`` to one Stokes vector or a batch of rows."""
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        return m @ s
    return s @ m.T


def compose(chain):
    """
    Matrix of an ordered chain of elements.

    The product is taken right to left: the last listed matrix is applied
    to the light first, so ``compose([m1, m2, m3]) == m1 @ m2 @ m3`` and
    listing matrices in writing order matches the optical-train notation.

    Raises
    ------
    ValueError
        If the chain is empty.
    """
    mats = [np.asarray(m, dtype=float) for m in chain]
    if not mats:
        raise ValueError("cannot compose an empty chain")
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def reverse_pass(m):
    """
    Mueller matrix of a reciprocal element traversed in the reverse
    direction.

    When light folds back through the same physical element (e.g. a wave
    plate in front of a mirror), the return pass is not the forward matrix
    but ``D @ m.T @ D`` with ``D = diag(1, 1, -1, 1)``: the receiver-frame
    s2 axis flips with the propagation direction. A quarter-wave plate at
    +45 degrees bounded by a mirror therefore acts as a half-wave plate
    over the round trip, the classic circular-polarizer extinction.
    """
    d = np.diag([1.0, 1.0, -1.0, 1.0])
    return d @ np.asarray(m, dtype=float).T @ d


def degree_of_polarization(s):
    """
    Degree of polarization of a Stokes vector, in [0, 1].

    Accepts a single vector or an array whose last axis has length 4.
    Values overshooting 1 by at most 1e-9 are clamped to 1; larger
    overshoots are returned as-is so invalid states stay visible.

    Raises
    ------
    ValueError
        If any intensity component is <= 0.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s[..., 0] <= 0.0):
        raise ValueError("degree of polarization needs s0 > 0")
    dop = np.sqrt(s[..., 1] ** 2 + s[..., 2] ** 2 + s[..., 3] ** 2) / s[..., 0]
    dop = np.where((dop > 1.0) & (dop <= 1.0 + 1e-9), 1.0, dop)
    if dop.ndim == 0:
        return float(dop)
    return dop


def is_passive(m, tol=1e-9):
    """
    Passive-validity predicate for a Mueller matrix.

    Checks m00 >= 0, m00 >= |mij| for all entries, and that the peak
    transmittance m00 * (1 + D) stays at or below 1, within ``tol``.
    Reconstructed matrices may fail this under noise; it is a check,
    not a constructor constraint.
    """
    m = np.asarray(m, dtype=float)
    m00 = m[..., 0, 0]
    if np.any(m00 < -tol):
        return False
    biggest = np.abs(m).max(axis=(-2, -1))
    if np.any(biggest > m00 + tol):
        return False
    gain = m00 + np.linalg.norm(m[..., 0, 1:], axis=-1)
    return bool(np.all(gain <= 1.0 + tol))

