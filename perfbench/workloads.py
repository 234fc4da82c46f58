"""
The three benchmark workloads: seeded inputs, CLI steps, output checks.

Each workload is a closed loop with one caller: a pass runs its steps in
order through ``pltt.cli.main`` and each step starts after the previous
one returns. Every pass gets fresh inputs drawn from (workload seed,
stage, pass index), so a memo kept between passes cannot stand in for
work a CLI user would pay for. pltt sees only the files written here.

The output checks do not reuse the program's forward model: expected
m00 values and the design matrix's pseudoinverse norm are computed here
from the scene and schedule definitions.
"""

import json
import math
import os

import numpy as np

from pltt.fileio import read_pltt

SPEED_OF_LIGHT = 299792458.0
BIN_WIDTH = 1e-10
N_BINS = 16
NOISE_SIGMA = 5e-4
DRR_K = 36
# A lit block's error A+ eta is Gaussian; ||A+ eta|| exceeds
# sigma (||A+||_F + t ||A+||_2) with probability below exp(-t^2 / 2).
# With ||A+||_2 <= ||A+||_F and t = 7 the bound 8 sigma ||A+||_F is
# missed by chance about once in 10^10 blocks.
RECOVERY_FACTOR = 8.0


class StepFailed(Exception):
    """An output check found a wrong or missing result."""


# ---------------------------------------------------------------- oracle


def _rotation(theta):
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


_LP0 = 0.5 * np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.0]])
_QWP0 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0.0]])


def drr_pinv_fro(k, coaxial):
    """||A+||_F of the K-capture DRR design with an intensity sensor.

    Coaxial capture sends half the light through the beamsplitter on the
    way in and half on the way back, and the galvo mirror is orthogonal,
    so the coaxial design is the plain one scaled by 1/4.
    """
    rows = []
    for i in range(k):
        qs = _rotation(np.deg2rad(5.0 * i)) @ _QWP0 @ _rotation(-np.deg2rad(5.0 * i))
        qd = _rotation(np.deg2rad(25.0 * i)) @ _QWP0 @ _rotation(-np.deg2rad(25.0 * i))
        c = qs @ _LP0 @ np.array([1.0, 0, 0, 0])
        r = (_LP0 @ qd)[0]
        rows.append(np.kron(r, c))
    a = np.array(rows) * (0.25 if coaxial else 1.0)
    svals = np.linalg.svd(a, compute_uv=False)
    return float(np.sqrt(np.sum(1.0 / svals**2)))


def _fresnel_m00(eta, theta_i):
    ci = math.cos(theta_i)
    ct = math.sqrt(1.0 - (math.sin(theta_i) / eta) ** 2)
    r_s = (ci - eta * ct) / (ci + eta * ct)
    r_p = (eta * ci - ct) / (eta * ci + ct)
    return 0.5 * (r_s**2 + r_p**2)


# ---------------------------------------------------------------- scenes


def _depth_for_bin(b):
    """Depth whose round trip lands in the middle of time bin b."""
    return (b + 0.5) * SPEED_OF_LIGHT * BIN_WIDTH / 2.0


def _material(rng, diattenuating):
    """A random material dict and its m00.

    Chains draw only non-diattenuating materials (first row (m00, 0, 0, 0)),
    so the m00 of their product is the product of the m00 values.
    """
    kinds = ["diffuse_depolarizer", "ideal_mirror", "retarder_plate"]
    if diattenuating:
        kinds.append("fresnel_dielectric")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "diffuse_depolarizer":
        albedo = float(rng.uniform(0.2, 0.9))
        return {"kind": kind, "albedo": albedo,
                "residual_dop": float(rng.uniform(0.0, 0.8))}, albedo
    if kind == "ideal_mirror":
        return {"kind": kind}, 1.0
    if kind == "retarder_plate":
        return {"kind": kind, "retardance_deg": float(rng.uniform(10, 170)),
                "axis_deg": float(rng.uniform(0, 180))}, 1.0
    eta, inc = float(rng.uniform(1.3, 2.2)), float(rng.uniform(5, 70))
    return ({"kind": kind, "eta": eta, "incidence_deg": inc},
            _fresnel_m00(eta, np.deg2rad(inc)))


def _patch(rng, rows, cols, max_side):
    """A random patch [r0, r1, c0, c1] inside rows x cols (half-open)."""
    r0 = int(rng.integers(rows[0], rows[1]))
    c0 = int(rng.integers(cols[0], cols[1]))
    r1 = int(min(rows[1], r0 + rng.integers(1, max_side + 1)))
    c1 = int(min(cols[1], c0 + rng.integers(1, max_side + 1)))
    return [r0, r1, c0, c1]


def _pixels(patch, width):
    r0, r1, c0, c1 = patch
    return np.array([r * width + c for r in range(r0, r1) for c in range(c0, c1)])


def random_scene(rng, geometry, h, w):
    """Scene dict, expected m00 per (s, s', t), direct-light target image.

    Projector-camera chains couple a camera patch in the top half to a
    projector patch in the bottom half, so they carry non-epipolar light.
    """
    coaxial = geometry == "coaxial"
    n_pix = h * w
    lit = np.zeros((n_pix, 1 if coaxial else n_pix, N_BINS))
    target = np.zeros(n_pix)
    surfaces = []
    for _ in range(int(rng.integers(3, 7))):
        patch = _patch(rng, (0, h), (0, w), max(2, h // 2))
        b = int(rng.integers(2, N_BINS - 1))
        material, m00 = _material(rng, diattenuating=True)
        surfaces.append({"patch": patch, "depth_m": _depth_for_bin(b), "material": material})
        pix = _pixels(patch, w)
        lit[pix, 0 if coaxial else pix, b] += m00
        target[pix] += m00
    chains = []
    for _ in range(int(rng.integers(1, 4))):
        mats = [_material(rng, diattenuating=False) for _ in range(2)]
        b = int(rng.integers(2, N_BINS - 1))
        m00 = mats[0][1] * mats[1][1]
        chain = {"materials": [m for m, _ in mats],
                 "path_length_m": 2.0 * _depth_for_bin(b)}
        if coaxial:
            chain["camera_patch"] = _patch(rng, (0, h), (0, w), 3)
            lit[_pixels(chain["camera_patch"], w), 0, b] += m00
        else:
            chain["camera_patch"] = _patch(rng, (0, h // 2), (0, w), 3)
            chain["projector_patch"] = _patch(rng, (h // 2, h), (0, w), 3)
            cam = _pixels(chain["camera_patch"], w)
            proj = _pixels(chain["projector_patch"], w)
            lit[np.ix_(cam, proj, [b])] += m00
        chains.append(chain)
    albedo = float(rng.uniform(0.2, 0.6))
    strength = float(rng.uniform(0.05, 0.3))
    volume = {"backscatter": {"kind": "diffuse_depolarizer", "albedo": albedo,
                              "residual_dop": float(rng.uniform(0.0, 0.3))},
              "strength": strength, "depth_m": _depth_for_bin(0)}
    idx = np.arange(n_pix)
    lit[idx, 0 if coaxial else idx, 0] += strength * albedo
    scene = {"geometry_mode": geometry, "surfaces": surfaces, "chains": chains,
             "scatter_volume": volume}
    return scene, lit, target.reshape(h, w)


# ---------------------------------------------------------------- workloads


class Pass:
    """Inputs and output locations of one pass."""

    def __init__(self, in_dir, out_dir):
        self.in_dir = in_dir
        self.out_dir = out_dir
        self.expect = {}

    def i(self, name):
        return os.path.join(self.in_dir, name)

    def o(self, name):
        return os.path.join(self.out_dir, name)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _load_grid(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _require(ok, message):
    if not ok:
        raise StepFailed(message)


class SceneWorkload:
    """simulate -> capture -> reconstruct -> the workload's analysis steps."""

    def __init__(self, geometry, size, analysis):
        self.geometry = geometry
        self.size = size
        self.analysis = analysis

    def make_inputs(self, rng, p):
        h = w = self.size
        scene, lit, target = random_scene(rng, self.geometry, h, w)
        _write_json(p.i("scene.json"), scene)
        np.savetxt(p.i("target.csv"), target, delimiter=",", fmt="%.17g")
        p.expect = {"lit": lit, "noise_seed": int(rng.integers(2**31))}

    def steps(self, p):
        n = self.size
        steps = [
            ("simulate", ["simulate", "--scene", p.i("scene.json"),
                          "--resolution", "%dx%d" % (n, n), "--bins", str(N_BINS),
                          "--bin-width", repr(BIN_WIDTH), "--out", p.o("truth.pltt")]),
            ("capture", ["capture", "--tensor", p.o("truth.pltt"), "--schedule", "drr",
                         "--k", str(DRR_K), "--noise", repr(NOISE_SIGMA),
                         "--seed", str(p.expect["noise_seed"]), "--out", p.o("meas.pltt")]),
            ("reconstruct", ["reconstruct", "--measurements", p.o("meas.pltt"),
                             "--out", p.o("recon.pltt")]),
            ("decompose", ["decompose", "--tensor", p.o("recon.pltt"), "--out", p.o("dec")]),
        ]
        if "pca" in self.analysis:
            steps.append(("pca", ["pca", "--tensor", p.o("recon.pltt"), "--out", p.o("pca")]))
        if "descatter" in self.analysis:
            steps.append(("descatter", [
                "descatter", "--tensor", p.o("recon.pltt"), "--target", p.i("target.csv"),
                "--mask", "non_epipolar", "--out", p.o("ds")]))
        if "slice" in self.analysis:
            steps.append(("slice", ["slice", "--tensor", p.o("recon.pltt"),
                                    "--expr", "sum_t T(s,s_e,:,:,t)", "--out", p.o("sl")]))
        return steps

    def checks(self, p, values):
        """(step, check) pairs; a check raises StepFailed or records values."""
        state = {}

        def simulate():
            truth = read_pltt(p.o("truth.pltt")).data
            lit = p.expect["lit"]
            _require(truth.shape[:2] == lit.shape[:2] and truth.shape[4] == N_BINS,
                     "truth tensor has shape %r" % (truth.shape,))
            _require(np.allclose(truth[:, :, 0, 0, :], lit, rtol=1e-9, atol=1e-12),
                     "truth m00 differs from the scene's")
            state["truth"] = truth

        def reconstruct():
            recon = read_pltt(p.o("recon.pltt")).data
            truth = state["truth"]
            _require(recon.shape == truth.shape, "reconstruction has shape %r" % (recon.shape,))
            err = np.sqrt(np.sum((recon - truth) ** 2, axis=(2, 3)))   # (s, s', t)
            tol = RECOVERY_FACTOR * NOISE_SIGMA * drr_pinv_fro(DRR_K, self.geometry == "coaxial")
            worst = float(err[p.expect["lit"] > 0].max())
            _require(worst <= tol, "lit block error %.3g above %.3g" % (worst, tol))
            _require(os.path.getsize(p.o("recon_diagnostics.csv")) > 0, "no diagnostics CSV")
            values["recon_rmse"] = float(np.sqrt(np.mean(err**2)))
            state["recon"] = recon

        def decompose():
            # decompose folds the projector axis, which sums the noise of
            # every projector pixel: only blocks clear of that noise must pass.
            folded = p.expect["lit"].sum(axis=1)                      # (s, t)
            lit = folded > 0
            clear = folded > RECOVERY_FACTOR * NOISE_SIGMA * np.sqrt(
                p.expect["lit"].shape[1]) * drr_pinv_fro(DRR_K, self.geometry == "coaxial")
            done = np.zeros_like(lit)
            for t in range(N_BINS):
                maps = [_load_grid(p.o("dec_%s_t%d.csv" % (m, t))).ravel()
                        for m in ("polarizance", "retardance", "diattenuation")]
                done[:, t] = np.isfinite(maps[0])
                ok = done[:, t]
                _require(np.all(maps[1][ok] >= 0) and np.all(maps[1][ok] <= np.pi + 1e-9),
                         "retardance outside [0, pi] in bin %d" % t)
                _require(np.all(maps[0][ok] >= 0) and np.all(maps[2][ok] >= 0),
                         "negative polarizance or diattenuation in bin %d" % t)
            _require(np.all(done[clear]), "a lit block clear of the noise was not decomposed")
            with open(p.o("dec_summary.json")) as fh:
                summary = json.load(fh)
            _require(summary["n_blocks"] - summary["n_null"] == int(done.sum()),
                     "summary block counts disagree with the maps")
            values["blocks_attempted"] = int(done.sum())
            values["lit_frac"] = float(np.sum(done & lit) / max(1, done.sum()))

        def pca():
            with open(p.o("pca_summary.json")) as fh:
                summary = json.load(fh)
            energy = np.asarray(summary["energy"])
            _require(summary["n_samples"] >= 2, "PCA used fewer than 2 samples")
            _require(np.all(np.diff(energy) >= -1e-12) and abs(energy[-1] - 1) < 1e-9,
                     "energy curve is not a cumulative fraction")
            comps = _load_grid(p.o("pca_components.csv"))
            _require(np.allclose(comps @ comps.T, np.eye(16), atol=1e-8),
                     "components are not orthonormal")
            values["pca_rows"] = int(summary["n_samples"])

        def descatter():
            with open(p.o("ds_model.json")) as fh:
                model = json.load(fh)
            _require(np.all(np.isfinite(model["weights"])) and np.isfinite(model["objective"]),
                     "descatter model is not finite")
            pred = _load_grid(p.o("ds_prediction.csv"))
            _require(pred.shape == (self.size, self.size) and np.all(np.isfinite(pred)),
                     "prediction image has shape %r" % (pred.shape,))

        def slice_():
            n = self.size
            r6 = state["recon"].reshape(n, n, n, n, 4, 4, N_BINS)
            epi = np.einsum("ijikpqt->ijpq", r6)       # camera row i, projector row i
            for a in range(4):
                for b in range(4):
                    img = _load_grid(p.o("sl_p%d_q%d.csv" % (a, b)))
                    _require(np.allclose(img, epi[:, :, a, b], rtol=1e-9, atol=1e-12),
                             "epipolar slice p%d q%d is wrong" % (a, b))

        checks = [("simulate", simulate), ("reconstruct", reconstruct), ("decompose", decompose)]
        for step, fn in (("pca", pca), ("descatter", descatter), ("slice", slice_)):
            if step in self.analysis:
                checks.append((step, fn))
        return checks


class LearnWorkload:
    """One ``pltt learn-angles`` run on a polarizer-array sensor."""

    def __init__(self, k=12, iterations=900):
        self.k = k
        self.iterations = iterations

    def make_inputs(self, rng, p):
        seed = int(rng.integers(2**31))
        _write_json(p.i("learn.json"), {
            "seed": seed, "n_samples": 300, "k": self.k, "sensor_mode": "polarizer_array",
            "noise_sigma": 1e-3, "iterations": self.iterations, "batch_size": 32,
            "step_size": 0.01, "eval_every": 25, "n_eval": 200,
            "eval_seed": int(rng.integers(2**31)),
        })

    def steps(self, p):
        return [("learn-angles", ["learn-angles", "--config", p.i("learn.json"),
                                  "--out", p.o("schedule.json")])]

    def checks(self, p, values):
        def learn():
            with open(p.o("schedule_report.json")) as fh:
                report = json.load(fh)
            init, best = report["init_heldout_loss"], report["best_heldout_loss"]
            _require(best < init, "held-out loss %.3g not below the DRR start %.3g" % (best, init))
            with open(p.o("schedule.json")) as fh:
                schedule = json.load(fh)
            _require(len(schedule["theta2_deg"]) == self.k, "learned schedule has wrong K")
            with open(p.o("schedule_comparison.csv")) as fh:
                _require(len(fh.read().splitlines()) == 4, "comparison table is not 3 rows")
            values["heldout_ratio"] = best / init

        return [("learn-angles", learn)]


WORKLOADS = {
    "pc_scan": SceneWorkload("projector_camera", 12, ("descatter", "slice")),
    "coax_maps": SceneWorkload("coaxial", 32, ("pca",)),
    "learn_angles": LearnWorkload(),
}
