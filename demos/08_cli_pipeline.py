"""The whole toolchain from the command line, file to file.

Everything the library does is also reachable through the `pltt`
console command with JSON/CSV/PGM artifacts and a manifest per step.
This script drives the same entry point in-process inside a temp
directory and shows what lands on disk.
"""

import json
import os
import tempfile

import numpy as np

from pltt.cli import main

# removed at the end, or when the interpreter exits if a step fails
workdir = tempfile.TemporaryDirectory(prefix="pltt_demo_")
os.chdir(workdir.name)
print("working in %s\n" % workdir.name)


def run(argv):
    print("$ pltt " + " ".join(argv))
    code = main(argv)
    assert code == 0, "exit code %d" % code
    print()


# -- 1. scene file -> ground-truth transport tensor ---------------------------
scene = {
    "geometry_mode": "coaxial",
    "surfaces": [
        {"patch": [0, 4, 0, 4], "depth_m": 0.015,
         "material": {"kind": "retarder_plate", "retardance_deg": 90.0, "axis_deg": 0.0}},
        {"patch": [0, 4, 4, 8], "depth_m": 0.03,
         "material": {"kind": "ideal_mirror"}},
    ],
}
with open("scene.json", "w") as fh:
    json.dump(scene, fh, indent=2)

run(["simulate", "--scene", "scene.json", "--resolution", "4x8",
     "--bins", "4", "--bin-width", "1e-10", "--out", "truth.pltt"])

# -- 2. capture it with DRR-36, then recover the blocks -----------------------
run(["capture", "--tensor", "truth.pltt", "--schedule", "drr", "--k", "36",
     "--out", "meas.pltt"])
run(["reconstruct", "--measurements", "meas.pltt", "--out", "recon.pltt"])

# -- 3. slice images and per-block factor maps --------------------------------
run(["slice", "--tensor", "recon.pltt", "--expr", "sum_t T(s,s,0,0,t)",
     "--out", "intensity"])
run(["decompose", "--tensor", "recon.pltt", "--bin", "1", "--out", "factors"])
run(["pca", "--tensor", "recon.pltt", "--out", "basis"])

# -- 4. a tiny angle-learning run ---------------------------------------------
config = {"seed": 3, "n_samples": 60, "k": 8, "sensor_mode": "polarizer_array",
          "iterations": 60, "batch_size": 16, "eval_every": 10,
          "step_size": 0.03, "noise_sigma": 1e-3, "n_eval": 40}
with open("learn.json", "w") as fh:
    json.dump(config, fh)
run(["learn-angles", "--config", "learn.json", "--out", "schedule.json"])

print("comparison table:")
with open("schedule_comparison.csv") as fh:
    print(fh.read())

# -- 5. every step wrote a manifest -------------------------------------------
manifests = sorted(name for name in os.listdir(".") if name.endswith(".manifest.json"))
print("manifests: %s" % ", ".join(manifests))
with open("recon.pltt.manifest.json") as fh:
    manifest = json.load(fh)
print("reconstruct ran as %r in %.3f s, config hash %s..."
      % (manifest["command"], manifest["duration_s"], manifest["config_hash"][:12]))

files = sorted(os.listdir("."))
print("\n%d files produced:" % len(files))
print("  " + "\n  ".join(files))

os.chdir(os.path.dirname(workdir.name))
workdir.cleanup()
