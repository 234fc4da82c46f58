"""`import pltt` loads nothing but applies PLTT_NUM_THREADS; no command loads SciPy."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pltt

# Runs in a fresh interpreter: other test modules import scipy into the
# pytest process, so sys.modules there says nothing about pltt.
CHILD = textwrap.dedent("""
    import json
    import sys

    import numpy as np

    import pltt
    from pltt.analysis import fit_descatter, summed_polarimetric_image
    from pltt.cli import main
    from pltt.fileio import read_pltt

    scene = {"geometry_mode": "coaxial", "surfaces": [
        {"patch": [0, 4, 0, 2], "depth_m": 0.015,
         "material": {"kind": "retarder_plate", "retardance_deg": 90.0, "axis_deg": 20.0}},
        {"patch": [0, 4, 2, 4], "depth_m": 0.03, "material": {"kind": "ideal_mirror"}}]}
    with open("scene.json", "w") as fh:
        json.dump(scene, fh)
    steps = [
        ["simulate", "--scene", "scene.json", "--resolution", "4x4", "--bins", "4",
         "--bin-width", "1e-10", "--out", "truth.pltt"],
        ["capture", "--tensor", "truth.pltt", "--noise", "1e-3", "--seed", "7",
         "--out", "meas.pltt"],
        ["reconstruct", "--measurements", "meas.pltt", "--out", "recon.pltt"],
        ["decompose", "--tensor", "recon.pltt", "--out", "maps"],
        ["pca", "--tensor", "recon.pltt", "--out", "basis"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    target = summed_polarimetric_image(read_pltt("truth.pltt"))[:, 0, 0]
    np.savetxt("target.csv", target.reshape(4, 4), delimiter=",")
    assert main(["descatter", "--tensor", "recon.pltt", "--target", "target.csv",
                 "--out", "fit"]) == 0
    assert main(["descatter", "--tensor", "recon.pltt", "--target", "target.csv",
                 "--method", "lbfgs", "--out", "fit_lbfgs"]) == 0

    # the well-posed affine data of tests/test_analysis.py: a noisy
    # reconstruction's summed image is too ill-conditioned for L-BFGS
    rng = np.random.default_rng(17)
    image = rng.normal(size=(120, 4, 4))
    target = np.einsum("sij,ij->s", image + 0.1 * rng.normal(size=(4, 4)),
                       rng.normal(size=(4, 4))) + 0.05 * rng.normal(size=120)
    closed = fit_descatter(image, target, method="closed_form")
    iterative = fit_descatter(image, target, method="lbfgs")
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, "scipy loaded: %s" % loaded[:5]
    assert abs(closed.objective - iterative.objective) < 1e-8, (
        closed.objective, iterative.objective)
    print("ok")
""")


def test_no_command_loads_scipy(tmp_path):
    src = str(Path(pltt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.endswith("ok\n")


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
IMPORT_ONLY = textwrap.dedent("""
    import json
    import os
    import sys

    import pltt

    loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("pltt."))
    assert not loaded, "import pltt loaded %%s" %% loaded
    print(json.dumps({var: os.environ.get(var) for var in %r}))
""" % (THREAD_VARS,))


@pytest.mark.parametrize("threads, capped", [("3", "3"), ("0", None), ("x", None)])
def test_import_pltt_loads_nothing_and_caps_only_unset_thread_pools(tmp_path, threads, capped):
    # a positive PLTT_NUM_THREADS fills the unset thread variables and keeps
    # a set one; any other value sets none
    src = str(Path(pltt.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=src, PLTT_NUM_THREADS=threads, OMP_NUM_THREADS="5")
    proc = subprocess.run([sys.executable, "-c", IMPORT_ONLY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"OMP_NUM_THREADS": "5", "OPENBLAS_NUM_THREADS": capped,
                                       "MKL_NUM_THREADS": capped, "NUMEXPR_NUM_THREADS": capped}


def test_reloading_pltt_caps_only_unset_thread_pools_in_process(monkeypatch):
    # the fresh interpreters above are not traced; this runs the override block here
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "")     # records each variable, so the test restores it
        monkeypatch.delenv(var)
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    monkeypatch.setenv("PLTT_NUM_THREADS", "3")
    importlib.reload(pltt)
    assert {var: os.environ.get(var) for var in THREAD_VARS} == {
        "OMP_NUM_THREADS": "5", "OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "3",
        "NUMEXPR_NUM_THREADS": "3"}
