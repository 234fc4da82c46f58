"""Learning capture angles instead of rotating on a fixed ratio.

With a snapshot polarizer-array sensor every capture yields four
intensities, so far fewer captures can span the full 16-dimensional
Mueller space -- if the angles are chosen well. Here one L-BFGS solve
minimizes the expected reconstruction error over a synthetic material
ensemble, and we compare the learned K=12 schedule against the classic
baselines.
"""

import time

import numpy as np

from pltt.ellipsometry import drr_schedule
from pltt.learning import TrainingConfig, evaluate, learn
from pltt.scene import generate_ensemble

ensemble = generate_ensemble(seed=5, n=200)
print("training ensemble: %d passive Mueller samples" % ensemble.samples.shape[0])

config = TrainingConfig(
    samples=ensemble.samples,
    k=12,
    sensor_mode="polarizer_array",
    noise_sigma=5e-4,
    iterations=250,
    batch_size=32,
    step_size=3e-2,
    seed=1,
    eval_every=25,
)
start = time.monotonic()
learned = learn(config)
print("trained %d of at most %d L-BFGS iterations in %.2f s (config %s)"
      % (len(learned.loss_curve), config.iterations, time.monotonic() - start,
         learned.config_hash))
print("held-out loss: %.3e at init -> %.3e at best"
      % (learned.init_heldout_loss, learned.best_heldout_loss))

# the initial iterate is the DRR schedule, so learning can only improve it
curve = ["%.2e" % v for v in np.minimum.accumulate(learned.heldout_curve)]
print("best-so-far held-out curve: %s" % " ".join(curve))

# -- score on fresh samples the optimizer never saw --------------------------
test = generate_ensemble(seed=99, n=150).samples
contenders = [
    ("learned K=12 (polarizer array)", learned.schedule),
    ("DRR-12 (polarizer array)", drr_schedule(12, sensor_mode="polarizer_array")),
    ("DRR-12 (intensity)", drr_schedule(12)),
    ("DRR-36 (intensity)", drr_schedule(36)),
]
print("\n%-32s %5s %5s %10s" % ("schedule", "rows", "rank", "mse"))
for name, schedule in contenders:
    stats = evaluate(schedule, test, noise_sigma=5e-4)
    print("%-32s %5d %5d %10.3e" % (name, schedule.n_rows, stats["design_rank"],
                                    stats["mean_squared"]))

angles = np.degrees(learned.schedule.theta2)
print("\nlearned source-QWP angles (deg): %s" % np.round(angles, 1))
