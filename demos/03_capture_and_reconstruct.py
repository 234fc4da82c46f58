"""Rotating-ellipsometry capture and per-pixel Mueller recovery.

A scene description becomes a ground-truth transport tensor; a
dual-rotating-retarder schedule turns it into scalar intensity
measurements; least squares turns those back into Mueller blocks.
"""

import numpy as np

from pltt.ellipsometry import capture, design_matrix, drr_schedule, reconstruct
from pltt.scene import build_transport, parse_scene

np.set_printoptions(precision=4, suppress=True)

scene = parse_scene({
    "geometry_mode": "coaxial",
    "surfaces": [
        {"patch": [0, 2, 0, 4], "depth_m": 0.015,
         "material": {"kind": "fresnel_dielectric", "eta": 1.5, "incidence_deg": 40.0}},
        {"patch": [2, 4, 0, 4], "depth_m": 0.045,
         "material": {"kind": "ideal_mirror"}},
    ],
})
truth = build_transport(scene, (4, 4), 8, 1e-10)
print("truth tensor: %d pixels, %d bins" % (truth.n_cam, truth.n_bins))

# -- the schedule is a rank-16 design when K is large enough -----------------
for k in (8, 15, 36):
    design = design_matrix(drr_schedule(k))
    print("DRR-%-2d  rows %3d  rank %2d  cond %.3g"
          % (k, design.a.shape[0], design.rank, design.cond))

# -- noiseless capture with DRR-36 is exact ----------------------------------
meas = capture(truth, drr_schedule(36))
print("\nmeasurement record (S_cam, S_proj, rows, bins): %s" % (meas.intensities.shape,))
result = reconstruct(meas)
err = np.abs(result.tensor.data - truth.data).max()
print("noiseless DRR-36 recovery: max error %.2e (rank %d)" % (err, result.rank))

print("\nrecovered block, mirror patch, echo bin 3:")
print(result.tensor.data[8, 0, :, :, 3])

# -- noise propagates through the pseudoinverse ------------------------------
print("\nnoisy capture, per-block RMS error vs sigma:")
for sigma in (1e-4, 1e-3, 1e-2):
    noisy = capture(truth, drr_schedule(36), noise_sigma=sigma, seed=11)
    rec = reconstruct(noisy).tensor
    rms = np.sqrt(np.mean((rec.data - truth.data) ** 2))
    print("  sigma %.0e -> rms %.2e" % (sigma, rms))

# -- an underdetermined schedule still returns the minimum-norm answer -------
small = reconstruct(capture(truth, drr_schedule(8)))
print("\nDRR-8 is underdetermined: %s (rank %d); recovery error %.3f"
      % (small.underdetermined, small.rank,
         np.abs(small.tensor.data - truth.data).max()))
