"""Polar decomposition of Mueller blocks into physical factors.

Any measured block factors into depolarizer @ retarder @ diattenuator,
and the scalar summaries of those factors (polarizance, retardance,
diattenuation) make good per-pixel material signatures.
"""

import numpy as np

from pltt.decomposition import decompose_tensor, noise_floor, polar_decompose
from pltt.ellipsometry import capture, drr_schedule, reconstruct
from pltt.polarization import linear_polarizer, quarter_wave_plate
from pltt.scene import build_transport, fresnel_mueller, parse_scene

np.set_printoptions(precision=3, suppress=True)

# -- a single constructed block, factored back apart -------------------------
depol = np.diag([1.0, 0.7, 0.7, 0.5])
m = depol @ quarter_wave_plate(0.4) @ fresnel_mueller(1.5, 0.6)
result = polar_decompose(m)
print("constructed block = depolarizer @ QWP(0.4) @ fresnel(1.5, 0.6)")
print("  diattenuation %.4f  retardance %.4f rad  polarizance %.4f"
      % (result.diattenuation, result.retardance, result.polarizance))
print("  recomposition error %.2e" % np.abs(result.recompose() - m).max())

# degenerate inputs are flagged instead of crashing
polarizer = polar_decompose(linear_polarizer(0.3))
print("ideal polarizer: diattenuation %.3f, singular flag %s"
      % (polarizer.diattenuation, polarizer.singular_diattenuator))

# -- per-pixel maps over a scene tensor ---------------------------------------
scene = parse_scene({
    "geometry_mode": "coaxial",
    "surfaces": [
        {"patch": [0, 4, 0, 2], "depth_m": 0.015,
         "material": {"kind": "retarder_plate", "retardance_deg": 90.0, "axis_deg": 20.0}},
        {"patch": [0, 4, 2, 4], "depth_m": 0.015,
         "material": {"kind": "diffuse_depolarizer", "albedo": 0.8, "residual_dop": 0.2}},
    ],
})
tensor = build_transport(scene, (4, 4), 4, 1e-10)
maps = decompose_tensor(tensor)

t_echo = 1
print("\nretardance map at the echo bin (radians, 4x4 camera):")
print(maps.retardance[:, 0, t_echo].reshape(4, 4))

# the retarder plate keeps polarization (depolarizer factor = identity);
# the diffuse patch crushes it, which shows in that factor's diagonal
kept = np.abs(np.diagonal(maps.m_depol[:, 0, t_echo], axis1=1, axis2=2))[:, 1:].mean(axis=1)
print("polarization kept through the depolarizer factor:")
print(np.round(kept.reshape(4, 4), 3))
print("blocks below the floor: %d of %d (dark bins are NaN); a simulated tensor has"
      " no noise model, so only the relative floor applies" % (maps.n_null, maps.null_mask.size))

left = maps.retardance[0, 0, t_echo]
right = kept[3]
print("left-half retardance %.4f (pi/2 = %.4f), right-half polarization kept %.3f"
      % (left, np.pi / 2, right))

# -- a noisy capture: reconstruction stores its noise model with the tensor,
# and the floor then rises to 5 standard deviations of the m00 noise
recon = reconstruct(capture(tensor, drr_schedule(36), noise_sigma=1e-3, seed=5)).tensor
noisy = decompose_tensor(recon)
print("\nnoisy reconstruction: floor %.4f on m00, %d of %d blocks kept (%d lit in the truth),"
      " %d not physically realisable"
      % (noise_floor(recon), noisy.null_mask.size - noisy.n_null, noisy.null_mask.size,
         maps.null_mask.size - maps.n_null, noisy.n_unrealisable))
