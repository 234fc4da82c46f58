"""
Analytic desk-scale transport generation.

Scenes are small axis-aligned patch stacks with known Mueller blocks,
so every generated tensor has closed-form ground truth. A surface at
depth d contributes its material's Mueller matrix at the round-trip
time bin floor(2 d / c / bin_width); scripted multi-bounce chains
contribute the composed matrix of an ordered material list at an
explicit total path length. There is no occlusion: contributions that
land in the same bin sum.

Geometry modes:

- ``coaxial``: illumination and detection share an optical axis; the
  tensor holds the s' = s diagonal only.
- ``projector_camera``: rectified, orthographic, row-aligned; a single
  bounce couples projector pixel s' to the camera pixel s = s'
  (diagonal coupling), chains may couple arbitrary patches.

Scene files are JSON; angles are given in degrees there.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .polarization import compose, ideal_mirror, retarder, rotation_mueller
from .tensor import SparseTransport, check_grid, check_number

SPEED_OF_LIGHT = 299792458.0


# ---------------------------------------------------------------------------
# materials


def fresnel_mueller(eta, theta_i):
    """
    Mueller matrix of specular reflection off a smooth dielectric.

    Parameters
    ----------
    eta : float or ndarray
        Relative refractive index, > 1.
    theta_i : float or ndarray
        Incidence angle in radians, 0 <= theta_i < pi/2, of eta's shape.

    Returns
    -------
    ndarray
        4x4 reflection Mueller matrix, stacked over eta's shape. The lower
        2x2 block is negated (both s2 and s3 rows) so the perfect-reflector
        limit matches ``ideal_mirror()``.

    Notes
    -----
    At Brewster incidence arctan(eta) the p-reflectance vanishes and
    the matrix is a perfect diattenuator; at normal incidence both
    reflectances equal ((eta-1)/(eta+1))**2.
    """
    shape = np.shape(eta)
    eta = check_number(eta, "relative refractive index", above=1.0, shape=shape)
    theta_i = check_number(theta_i, "incidence angle", low=0.0, below=np.pi / 2.0, shape=shape)
    ci = np.cos(theta_i)
    st = np.sin(theta_i) / eta
    ct = np.sqrt(1.0 - st * st)
    r_s = (ci - eta * ct) / (ci + eta * ct)
    r_p = (eta * ci - ct) / (eta * ci + ct)
    refl_s = r_s * r_s
    refl_p = r_p * r_p
    a = 0.5 * (refl_s + refl_p)
    b = 0.5 * (refl_s - refl_p)
    c = np.sqrt(refl_s * refl_p)
    m = np.zeros(shape + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = a
    m[..., 0, 1] = m[..., 1, 0] = b
    m[..., 2, 2] = m[..., 3, 3] = -c
    return m


def diffuse_depolarizer(albedo, residual_dop):
    """
    Depolarizing diffuse bounce: albedo * diag(1, r, r, r/2).

    ``residual_dop`` r is the fraction of linear polarization that
    survives; the circular residual decays twice as fast (a modeling
    knob, not a law).
    """
    albedo = check_number(albedo, "albedo", low=0.0, high=1.0)
    r = check_number(residual_dop, "residual_dop", low=0.0, high=1.0)
    return albedo * np.diag([1.0, r, r, 0.5 * r])


def material_mueller(spec):
    """
    Mueller matrix of a material description dict.

    Kinds: diffuse_depolarizer(albedo, residual_dop),
    fresnel_dielectric(eta, incidence_deg), ideal_mirror,
    retarder_plate(retardance_deg, axis_deg), custom(matrix).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("material must be a dict with a 'kind' field, got %r" % (spec,))
    kind = spec["kind"]
    if kind == "diffuse_depolarizer":
        return diffuse_depolarizer(_need(spec, "albedo"), _need(spec, "residual_dop"))
    if kind == "fresnel_dielectric":
        return fresnel_mueller(_need(spec, "eta"), np.deg2rad(_need(spec, "incidence_deg")))
    if kind == "ideal_mirror":
        return ideal_mirror()
    if kind == "retarder_plate":
        return retarder(np.deg2rad(_need(spec, "axis_deg")),
                        np.deg2rad(_need(spec, "retardance_deg")))
    if kind == "custom":
        return _need(spec, "matrix", shape=(4, 4))
    raise ValueError("unknown material kind %r" % (kind,))


def _need(spec, key, shape=()):
    if key not in spec:
        raise ValueError("material kind %r is missing field %r" % (spec.get("kind"), key))
    return check_number(spec[key], "material field %r" % key, shape=shape)


# ---------------------------------------------------------------------------
# scene description


@dataclass(frozen=True, eq=False)
class Surface:
    patch: tuple            # (row0, row1, col0, col1), half-open pixel rows/cols
    depth_m: float
    block: np.ndarray = field(repr=False)     # the material's 4x4 Mueller matrix


@dataclass(frozen=True, eq=False)
class BounceChain:
    block: np.ndarray = field(repr=False)     # the materials composed in light order
    path_length_m: float    # total optical path for the time bin
    camera_patch: tuple
    projector_patch: tuple = None   # defaults to camera_patch


@dataclass(frozen=True, eq=False)
class ScatterVolume:
    block: np.ndarray = field(repr=False)     # the backscatter material's Mueller matrix
    strength: np.ndarray    # fraction in [0,1], scalar or (H, W) map, as floats
    depth_m: float


@dataclass(frozen=True)
class SceneSpec:
    """A compiled scene: the part of it that does not depend on the pixel grid."""

    geometry_mode: str
    surfaces: tuple = ()
    chains: tuple = ()
    scatter_volume: ScatterVolume = None


def parse_scene(obj):
    """Validate a scene dict (parsed JSON) into a SceneSpec, building each material once."""
    if not isinstance(obj, dict):
        raise ValueError("scene must be a JSON object")
    mode = obj.get("geometry_mode")
    if mode not in ("coaxial", "projector_camera"):
        raise ValueError("field 'geometry_mode' must be 'coaxial' or 'projector_camera', got %r"
                         % (mode,))
    for key in ("surfaces", "chains"):
        items = obj.get(key, [])
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise ValueError("field '%s' must be a list of objects, got %r" % (key, items))
    surfaces = []
    for i, raw in enumerate(obj.get("surfaces", [])):
        patch = _parse_patch(raw.get("patch"), "surfaces[%d].patch" % i)
        depth = check_number(raw.get("depth_m"), "field 'surfaces[%d].depth_m'" % i, low=0.0)
        surfaces.append(Surface(patch, depth, material_mueller(raw.get("material"))))
    chains = []
    for i, raw in enumerate(obj.get("chains", [])):
        mats = raw.get("materials")
        if not isinstance(mats, list) or not mats:
            raise ValueError("field 'chains[%d].materials' must be a nonempty list" % i)
        # built in list order, so an error names the first bad material
        blocks = [material_mueller(mat) for mat in mats]
        length = check_number(raw.get("path_length_m"), "field 'chains[%d].path_length_m'" % i,
                         low=0.0)
        cam_patch = _parse_patch(raw.get("camera_patch"), "chains[%d].camera_patch" % i)
        proj_patch = raw.get("projector_patch")
        if proj_patch is not None:
            proj_patch = _parse_patch(proj_patch, "chains[%d].projector_patch" % i)
        chains.append(BounceChain(compose(blocks[::-1]), length, cam_patch, proj_patch))
    volume = None
    if obj.get("scatter_volume") is not None:
        raw = obj["scatter_volume"]
        if not isinstance(raw, dict):
            raise ValueError("field 'scatter_volume' must be an object, got %r" % (raw,))
        depth = check_number(raw.get("depth_m"), "field 'scatter_volume.depth_m'", low=0.0)
        strength = check_number(raw.get("strength"), "field 'scatter_volume.strength'",
                                0.0, 1.0, shape=None)
        volume = ScatterVolume(material_mueller(raw.get("backscatter")), strength, depth)
    return SceneSpec(mode, tuple(surfaces), tuple(chains), volume)


def load_scene(path):
    """Read and validate a JSON scene file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("scene file is not valid JSON: %s" % exc) from exc
    return parse_scene(obj)


def _parse_patch(patch, name):
    patch = check_number(patch, "field '%s' [row0, row1, col0, col1]" % name,
                         low=0, shape=(4,), integer=True)
    r0, r1, c0, c1 = patch.tolist()
    if r1 <= r0 or c1 <= c0:
        raise ValueError("field '%s' must satisfy 0 <= row0 < row1, 0 <= col0 < col1" % name)
    return (r0, r1, c0, c1)


# ---------------------------------------------------------------------------
# tensor assembly


def _patch_pixels(patch, shape):
    r0, r1, c0, c1 = patch
    h, w = shape
    if r1 > h or c1 > w:
        raise ValueError("patch %r exceeds the %dx%d pixel grid" % (patch, h, w))
    rows = np.arange(r0, r1)
    cols = np.arange(c0, c1)
    return (rows[:, None] * w + cols[None, :]).ravel()


def _time_bin(path_length_m, bin_width, n_bins, what):
    t_bin = np.floor(path_length_m / SPEED_OF_LIGHT / bin_width)
    if not t_bin < n_bins:
        raise ValueError("%s needs time bin %.0f but the tensor has only %d bins"
                         % (what, t_bin, n_bins))
    return int(t_bin)


def build_transport(scene, resolution, n_bins, time_bin_width):
    """
    Assemble the ground-truth transport tensor of a scene, as a
    ``tensor.SparseTransport`` of the (s, s') pairs the scene couples.

    Parameters
    ----------
    scene : SceneSpec
        Its blocks are built: each lands on its patch's pixels at its time bin.
    resolution : (height, width)
        Camera grid; the projector grid matches it.
    n_bins : int
        Time bin count (1 for steady state with a wide bin).
    time_bin_width : float
        Seconds per bin.

    Deterministic; bit-identical across runs. Every surface, chain and the
    scatter volume, in that order, adds its block to its pairs at its bin,
    so a pair's block is the same sum, in the same order, as a dense array
    of zeros summed into; the dense array is never allocated, only one
    block per coupled pair.
    """
    h, w = check_grid(resolution, "resolution")
    n_bins = check_number(n_bins, "n_bins", low=1, integer=True)
    time_bin_width = check_number(time_bin_width, "time_bin_width", above=0.0)
    n_pix = h * w
    coaxial = scene.geometry_mode == "coaxial"
    s_proj = 1 if coaxial else n_pix
    adds = []   # (flat (s, s') pair numbers, time bin, block), in the order they add up

    def add(cam, proj, t_bin, block):
        # a coaxial tensor stores only the diagonal, at projector index 0
        adds.append((cam * s_proj + (0 if coaxial else proj), t_bin, block))

    for i, surf in enumerate(scene.surfaces):
        t_bin = _time_bin(2.0 * surf.depth_m, time_bin_width, n_bins,
                          "surface %d at depth %g m" % (i, surf.depth_m))
        pix = _patch_pixels(surf.patch, (h, w))
        add(pix, pix, t_bin, surf.block)

    for i, chain in enumerate(scene.chains):
        t_bin = _time_bin(chain.path_length_m, time_bin_width, n_bins,
                          "chain %d of path length %g m" % (i, chain.path_length_m))
        cam_pix = _patch_pixels(chain.camera_patch, (h, w))
        if coaxial and chain.projector_patch is not None:
            raise ValueError("chain %d: coaxial scenes cannot give a projector_patch" % i)
        proj_pix = _patch_pixels(chain.projector_patch or chain.camera_patch, (h, w))
        # every camera pixel of the patch couples to every projector pixel
        add(cam_pix[:, None], proj_pix[None, :], t_bin, chain.block)

    if scene.scatter_volume is not None:
        vol = scene.scatter_volume
        t_bin = _time_bin(2.0 * vol.depth_m, time_bin_width, n_bins,
                          "scatter volume at depth %g m" % vol.depth_m)
        if vol.strength.shape not in ((), (h, w)):
            raise ValueError("scatter strength must be a scalar or a %dx%d map, got %r"
                             % (h, w, vol.strength.shape))
        idx = np.arange(n_pix)
        add(idx, idx, t_bin, vol.strength.reshape(-1, 1, 1) * vol.block)

    pairs = np.unique(np.concatenate([np.ravel(p) for p, _, _ in adds] + [np.zeros(0, int)]))
    blocks = np.zeros((len(pairs), 4, 4, n_bins))
    for p, t_bin, block in adds:
        # a call's pairs are distinct, so each += adds one block to one pair
        blocks[pairs.searchsorted(p), :, :, t_bin] += block
    return SparseTransport(blocks, np.stack(np.divmod(pairs, s_proj), axis=1), (h, w), (h, w),
                           time_bin_width, coaxial=coaxial)


# ---------------------------------------------------------------------------
# synthetic training ensemble


@dataclass(frozen=True)
class SyntheticMuellerEnsemble:
    samples: np.ndarray = field(repr=False)   # (n, 4, 4)
    seed: int = 0
    weights: tuple = ()


def _uniform(u, low, high):
    """Draws ``u`` in [0, 1) mapped to [low, high) as ``Generator.uniform`` maps them."""
    return low + (high - low) * u


def generate_ensemble(seed, n, weights=(0.3, 0.35, 0.35)):
    """
    Draw n passive-valid Mueller matrices from mixed analytic families.

    Families: raw dielectric reflections (eta in [1.3, 2.5], incidence
    in [5, 85] degrees); convex mixes of a reflection with the ideal
    depolarizer of equal throughput; reflections sandwiched between a
    random retarder and rotator. Deterministic for a given seed: each
    sample has its own RNG stream, spawned from the seed, that draws its
    six uniforms (family, eta, incidence, then the mix or the rotator,
    retarder axis and retardance), and all samples are then built in one
    batched pass, so n does not change the first samples.
    """
    n = check_number(n, "ensemble size", low=1, integer=True)
    seed = check_number(seed, "seed", low=0, integer=True)
    weights = check_number(weights, "family weights", low=0.0, shape=(3,))
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("family weights must have a positive finite sum, got %r"
                         % weights.tolist())
    probs = weights / total
    # Generator.choice(3, p=probs)'s cdf, searched with the first draw
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = np.array([np.random.default_rng(stream).random(6)
                  for stream in np.random.SeedSequence(seed).spawn(n)])
    family = cdf.searchsorted(u[:, 0], side="right")
    m = fresnel_mueller(_uniform(u[:, 1], 1.3, 2.5), np.deg2rad(_uniform(u[:, 2], 5.0, 85.0)))
    lam = _uniform(u[:, 3, None, None], 0.1, 0.9)
    depol = np.zeros_like(m)
    depol[:, 0, 0] = m[:, 0, 0]
    angle = _uniform(u[:, 3:], 0.0, np.pi)
    composed = compose([retarder(angle[:, 1], angle[:, 2]), m, rotation_mueller(angle[:, 0])])
    samples = np.choose(family[:, None, None], [m, lam * m + (1.0 - lam) * depol, composed])
    return SyntheticMuellerEnsemble(samples, int(seed), tuple(float(p) for p in probs))
