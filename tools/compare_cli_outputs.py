#!/usr/bin/env python3
"""
Compare the pltt CLI's outputs of two checkouts, file by file.

    python3 tools/compare_cli_outputs.py <parent-checkout> <change-checkout>

Runs one fixed list of ``pltt`` commands against each checkout's ``src/``,
on both scenes in the change checkout's ``tests/data``: simulate; capture,
plain, with ``--mask epipolar``, with ``--mask non_epipolar``, with
``--split 0.3`` (the coaxial scene's beamsplitter) and noiseless (``--noise
0``), and each plain, non-epipolar, split and noiseless capture's
reconstruct (on the coaxial scene both masks fail alike on both sides, and
so does the reconstruct of the missing capture); capture with ``--k 12`` (rank
deficient), ``--k 16`` (ill-conditioned) and ``--mode polarizer_array --k
5``, each followed by its reconstruct, so the minimum-norm solve and both
reconstruct warnings run; decompose, also of one ``--bin``; pca, also
with ``--c 2 --floor 1e-3`` and with ``--floor 0`` (every block with
m00 > 0, the most blocks a streamed pca keeps); descatter with no mask,
``epipolar`` and ``non_epipolar``, with ``--method lbfgs`` and with
``--mode intensity_only``; slices, among them ``s_e`` and ``s_n``, a
camera index, the last camera pixel (the end of the last chunk) and a
projector index (on the coaxial scene the masks and the projector index
fail alike on both sides), and two expressions that must fail, one
malformed and one out of range; ``learn-angles`` on a small K=6
``polarizer_array`` config, then a capture with the learned schedule and
its reconstruction. After capture and reconstruct the tool writes edited
copies of their containers, as an older writer or damage leaves them, and
runs them: ``meas.pltt`` without ``split`` (reconstruct) and
``recon.pltt`` without ``channel_id`` and ``provenance`` (decompose),
which must read, and ``meas.pltt`` with its ``geometry_mode`` flipped or
its ``dim_q`` slot set to 2 and ``recon.pltt`` with ``time_bin_width`` 0,
which must fail. Each command runs in its own Python process, and each
checkout in its own temporary directory, with relative paths, so both
sides see the same arguments.

Every output file is compared byte for byte, except the manifests, which
are compared as JSON without their ``duration_s`` and ``peak_rss_mb``. A
differing CSV that parses on both sides to a float grid of one shape and
one NaN pattern is reported with the largest absolute difference of its
entries. A differing ``.pltt`` container is decoded on both sides with the
change checkout's reader (``pltt.fileio.read_pltt``) and reported as "same
header and array, different bytes", or with the first ``Header`` field, or
the array, that differs, so a declared change of the container's format
cannot hide a change of what it holds.
Exit codes and the commands' stdout and stderr are compared too, and the
two failing slices and the three damaged containers must exit 2. Prints
each difference and exits 1 if there is any, 0 otherwise.
"""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np

# (scene file in tests/data, camera resolution, capture seed)
SCENES = (
    ("found_projector_camera_8x8_seed61.json", "8x8", "61"),
    ("found_coaxial_16x16_seed17.json", "16x16", "17"),
)
# the learn-angles config, written beside scene.json: small enough to run in a second
LEARN_CONFIG = {"k": 6, "sensor_mode": "polarizer_array", "iterations": 20, "batch_size": 8,
                "eval_every": 5, "n_samples": 40, "n_eval": 20, "seed": 3}
# fields of a manifest that measure the run rather than describe its result
UNSTABLE = ("duration_s", "peak_rss_mb")
# commands that must fail with a usage error on both sides
MUST_FAIL = ("slice_malformed", "slice_out_of_range", "reconstruct_geometry_flipped",
             "reconstruct_dim_q", "decompose_zero_width")
# PLTT v1: 16-byte magic, seven u32 header slots, the coaxial flag byte
MAGIC_BYTES, PREFIX = 16, 16 + 7 * 4 + 1
OTHER_GEOMETRY = {"coaxial": "projector_camera", "projector_camera": "coaxial"}
# (original, edited copy, JSON block edit, header slots set by index)
EDITED = (
    ("meas.pltt", "meas_no_split.pltt",
     lambda meta: {k: v for k, v in meta.items() if k != "split"}, {}),
    ("recon.pltt", "recon_old.pltt",
     lambda meta: {k: v for k, v in meta.items() if k not in ("channel_id", "provenance")}, {}),
    ("meas.pltt", "meas_geometry.pltt",
     lambda meta: dict(meta, geometry_mode=OTHER_GEOMETRY[meta["geometry_mode"]]), {}),
    ("meas.pltt", "meas_dim_q.pltt", None, {5: 2}),
    ("recon.pltt", "recon_zero_width.pltt", lambda meta: dict(meta, time_bin_width=0), {}),
)


def write_edited_copies(scene_dir):
    """Write each ``EDITED`` copy beside its original in ``scene_dir``."""
    for original, copy, edit_meta, slots in EDITED:
        with open(os.path.join(scene_dir, original), "rb") as fh:
            blob = bytearray(fh.read())
        dims = list(struct.unpack_from("<7I", blob, MAGIC_BYTES))
        s_proj = 1 if blob[PREFIX - 1] else dims[2] * dims[3]
        end = PREFIX + 8 * dims[0] * dims[1] * s_proj * dims[4] * dims[5] * dims[6]
        if edit_meta is not None:
            meta = edit_meta(json.loads(blob[end:].decode("utf-8")))
            blob[end:] = json.dumps(meta, sort_keys=True).encode("utf-8")
        for index, value in slots.items():
            dims[index] = value
        struct.pack_into("<7I", blob, MAGIC_BYTES, *dims)
        with open(os.path.join(scene_dir, copy), "wb") as fh:
            fh.write(blob)


def commands(resolution, seed):
    """
    (label, argv) pairs; each scene runs in a fresh directory holding
    scene.json and learn.json. An argv that is a function is a step of this
    tool, run on that directory.
    """
    h, w = (int(v) for v in resolution.split("x"))
    return [
        ("simulate", ["simulate", "--scene", "scene.json", "--resolution", resolution,
                      "--bins", "16", "--bin-width", "1e-10", "--out", "truth.pltt"]),
        ("capture", ["capture", "--tensor", "truth.pltt", "--noise", "5e-4",
                     "--seed", seed, "--out", "meas.pltt"]),
        ("capture_epipolar", ["capture", "--tensor", "truth.pltt", "--noise", "5e-4",
                              "--seed", seed, "--mask", "epipolar", "--out", "meas_epi.pltt"]),
        ("capture_non_epipolar", ["capture", "--tensor", "truth.pltt", "--noise", "5e-4",
                                  "--seed", seed, "--mask", "non_epipolar",
                                  "--out", "meas_non.pltt"]),
        ("capture_split", ["capture", "--tensor", "truth.pltt", "--noise", "5e-4",
                           "--seed", seed, "--split", "0.3", "--out", "meas_split.pltt"]),
        ("capture_noiseless", ["capture", "--tensor", "truth.pltt", "--noise", "0",
                               "--out", "meas_clean.pltt"]),
        ("reconstruct", ["reconstruct", "--measurements", "meas.pltt", "--out", "recon.pltt"]),
        ("edited_copies", write_edited_copies),
        ("reconstruct_no_split", ["reconstruct", "--measurements", "meas_no_split.pltt",
                                  "--out", "recon_no_split.pltt"]),
        ("decompose_old", ["decompose", "--tensor", "recon_old.pltt", "--out", "dec_old"]),
        ("reconstruct_geometry_flipped", ["reconstruct", "--measurements", "meas_geometry.pltt",
                                          "--out", "recon_geometry.pltt"]),
        ("reconstruct_dim_q", ["reconstruct", "--measurements", "meas_dim_q.pltt",
                               "--out", "recon_dim_q.pltt"]),
        ("decompose_zero_width", ["decompose", "--tensor", "recon_zero_width.pltt",
                                  "--out", "dec_zero_width"]),
        ("reconstruct_noiseless", ["reconstruct", "--measurements", "meas_clean.pltt",
                                   "--out", "recon_clean.pltt"]),
        ("reconstruct_non_epipolar", ["reconstruct", "--measurements", "meas_non.pltt",
                                      "--out", "recon_non.pltt"]),
        ("reconstruct_split", ["reconstruct", "--measurements", "meas_split.pltt",
                               "--out", "recon_split.pltt"]),
        # the decoder's other branches: rank 12 of 16 (UNDERDETERMINED, the
        # minimum-norm solve), rank 16 at cond 2.3e5 (ILL-CONDITIONED) and a
        # polarizer-array design with 20 rows of rank 13
        ("capture_k12", ["capture", "--tensor", "truth.pltt", "--k", "12", "--noise", "5e-4",
                         "--seed", seed, "--out", "meas_k12.pltt"]),
        ("reconstruct_k12", ["reconstruct", "--measurements", "meas_k12.pltt",
                             "--out", "recon_k12.pltt"]),
        ("capture_k16", ["capture", "--tensor", "truth.pltt", "--k", "16", "--noise", "5e-4",
                         "--seed", seed, "--out", "meas_k16.pltt"]),
        ("reconstruct_k16", ["reconstruct", "--measurements", "meas_k16.pltt",
                             "--out", "recon_k16.pltt"]),
        ("capture_array_k5", ["capture", "--tensor", "truth.pltt", "--mode", "polarizer_array",
                              "--k", "5", "--noise", "5e-4", "--seed", seed,
                              "--out", "meas_array_k5.pltt"]),
        ("reconstruct_array_k5", ["reconstruct", "--measurements", "meas_array_k5.pltt",
                                  "--out", "recon_array_k5.pltt"]),
        ("decompose", ["decompose", "--tensor", "recon.pltt", "--out", "dec"]),
        ("decompose_truth", ["decompose", "--tensor", "truth.pltt", "--out", "dec_truth"]),
        ("decompose_bin", ["decompose", "--tensor", "recon.pltt", "--bin", "10",
                           "--out", "dec_bin"]),
        ("pca", ["pca", "--tensor", "recon.pltt", "--out", "pca"]),
        ("pca_compressed", ["pca", "--tensor", "recon.pltt", "--c", "2", "--floor", "1e-3",
                            "--out", "pca_c2"]),
        ("pca_floor_zero", ["pca", "--tensor", "recon.pltt", "--floor", "0",
                            "--out", "pca_f0"]),
        # the direct (diagonal) light of the truth is the descatter target
        ("target", ["slice", "--tensor", "truth.pltt", "--expr", "sum_t T(s, s, 0, 0, t)",
                    "--out", "target"]),
        ("descatter", ["descatter", "--tensor", "recon.pltt", "--target", "target.csv",
                       "--out", "desc"]),
        ("descatter_epipolar", ["descatter", "--tensor", "recon.pltt", "--target", "target.csv",
                                "--mask", "epipolar", "--out", "desc_epi"]),
        ("descatter_non_epipolar", ["descatter", "--tensor", "recon.pltt",
                                    "--target", "target.csv", "--mask", "non_epipolar",
                                    "--out", "desc_non"]),
        ("descatter_lbfgs", ["descatter", "--tensor", "recon.pltt", "--target", "target.csv",
                             "--method", "lbfgs", "--out", "desc_lbfgs"]),
        ("descatter_intensity_only", ["descatter", "--tensor", "recon.pltt",
                                      "--target", "target.csv", "--mode", "intensity_only",
                                      "--out", "desc_int"]),
        ("slice_s_e", ["slice", "--tensor", "recon.pltt", "--expr", "sum_t T(s, s_e, :, 0, t)",
                       "--out", "slice_e"]),
        ("slice_s_n", ["slice", "--tensor", "recon.pltt", "--expr",
                       "-sum_pp T(s, s_n, 0, :, :)", "--out", "slice_n"]),
        ("slice_diagonal", ["slice", "--tensor", "recon.pltt", "--expr", "T(s, s, 1, 2, t=5)",
                            "--out", "slice_d"]),
        ("slice_camera", ["slice", "--tensor", "recon.pltt", "--expr", "T(3, s, 0, 0, t=10)",
                          "--out", "slice_cam"]),
        ("slice_last_camera", ["slice", "--tensor", "recon.pltt", "--expr",
                               "sum_t T(%d, s, :, :, t)" % (h * w - 1), "--out", "slice_last"]),
        ("slice_projector", ["slice", "--tensor", "recon.pltt", "--expr", "T(s, 5, :, 0, t=10)",
                             "--out", "slice_proj"]),
        ("slice_summed", ["slice", "--tensor", "recon.pltt", "--expr",
                          "-sum_p sum_t T(s, s, :, 2, t)", "--out", "slice_sum"]),
        ("slice_malformed", ["slice", "--tensor", "recon.pltt", "--expr", "T(s, s, 0, 0)",
                             "--out", "slice_bad"]),
        ("slice_out_of_range", ["slice", "--tensor", "recon.pltt", "--expr",
                                "T(s, s, 0, 0, t=16)", "--out", "slice_far"]),
        ("learn_angles", ["learn-angles", "--config", "learn.json", "--out", "learned.json"]),
        ("capture_learned", ["capture", "--tensor", "truth.pltt", "--schedule", "learned.json",
                             "--mode", "polarizer_array", "--noise", "5e-4", "--seed", seed,
                             "--out", "meas_learned.pltt"]),
        ("reconstruct_learned", ["reconstruct", "--measurements", "meas_learned.pltt",
                                 "--out", "recon_learned.pltt"]),
    ]


def run_checkout(checkout, data_dir, workdir):
    """Run every command for both scenes; returns {(scene, label): (exit code, stdout, stderr)}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    results = {}
    for scene, resolution, seed in SCENES:
        scene_dir = os.path.join(workdir, os.path.splitext(scene)[0])
        os.makedirs(scene_dir)
        with open(os.path.join(data_dir, scene), "rb") as src, \
                open(os.path.join(scene_dir, "scene.json"), "wb") as dst:
            dst.write(src.read())
        with open(os.path.join(scene_dir, "learn.json"), "w") as fh:
            json.dump(LEARN_CONFIG, fh)
        for label, argv in commands(resolution, seed):
            if callable(argv):
                argv(scene_dir)
                continue
            proc = subprocess.run([sys.executable, "-m", "pltt.cli"] + argv, cwd=scene_dir,
                                  env=env, capture_output=True, text=True)
            results[(os.path.basename(scene_dir), label)] = (
                proc.returncode, proc.stdout, proc.stderr)
    return results


def files_under(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def same_file(path_a, path_b):
    if path_a.endswith(".manifest.json"):
        with open(path_a) as fa, open(path_b) as fb:
            a, b = json.load(fa), json.load(fb)
        for key in UNSTABLE:
            a.pop(key, None)
            b.pop(key, None)
        return a == b
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


def grid_difference(a, b):
    """Largest |a - b| of two float grids of one shape and NaN pattern, else None."""
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return None
    finite = ~np.isnan(a)
    return float(np.abs(a[finite] - b[finite]).max(initial=0.0))


def csv_difference(path_a, path_b):
    """``grid_difference`` of two CSV files, or None if either is not a float grid."""
    try:
        grids = [np.loadtxt(path, delimiter=",", ndmin=2) for path in (path_a, path_b)]
    except ValueError:
        return None
    return grid_difference(*grids)


def _same(a, b):
    """Whether two decoded values are equal: arrays by shape and bytes, dataclasses by field."""
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (np.shape(a) == np.shape(b)
                and np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes())
    return a == b


def pltt_difference(path_a, path_b):
    """
    How two PLTT containers that differ in bytes differ in what they hold,
    read with the ``pltt`` on the import path: the first differing Header
    field or the array, or "same header and array, different bytes".
    """
    from pltt.fileio import read_pltt
    from pltt.tensor import Header

    try:
        a, b = read_pltt(path_a), read_pltt(path_b)
    except ValueError as exc:
        return "a side does not read: %s" % exc
    for f in dataclasses.fields(Header):
        if not _same(getattr(a.header, f.name), getattr(b.header, f.name)):
            return "header field %s differs" % f.name
    if not _same(a.array, b.array):
        return "array differs"
    return "same header and array, different bytes"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = argv
    data_dir = os.path.join(change, "tests", "data")
    sys.path.insert(0, os.path.join(os.path.abspath(change), "src"))     # the change's reader
    differences = []
    with tempfile.TemporaryDirectory() as dir_a, tempfile.TemporaryDirectory() as dir_b:
        runs_a = run_checkout(parent, data_dir, dir_a)
        runs_b = run_checkout(change, data_dir, dir_b)
        for (scene, command), (code_a, out_a, err_a) in runs_a.items():
            code_b, out_b, err_b = runs_b[scene, command]
            label = "%s/%s" % (scene, command)
            if code_a != code_b:
                differences.append("%s: exit code %d vs %d" % (label, code_a, code_b))
            elif command in MUST_FAIL and code_a != 2:
                differences.append("%s: exit code %d on both sides, expected 2" % (label, code_a))
            for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                if a != b:
                    differences.append("%s: %s differs" % (label, stream))
        files_a, files_b = files_under(dir_a), files_under(dir_b)
        for name in sorted(set(files_a) ^ set(files_b)):
            differences.append("%s: only in the %s run"
                               % (name, "parent" if name in files_a else "change"))
        common = sorted(set(files_a) & set(files_b))
        for name in common:
            path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
            if not same_file(path_a, path_b):
                note = None
                if name.endswith(".csv"):
                    size = csv_difference(path_a, path_b)
                    note = None if size is None else "max |difference| %.3g" % size
                elif name.endswith(".pltt"):
                    note = pltt_difference(path_a, path_b)
                differences.append("%s: differs%s" % (name, "" if note is None else
                                                       " (%s)" % note))
    for line in differences:
        print(line)
    codes = {}
    for code, _, _ in runs_a.values():
        codes[code] = codes.get(code, 0) + 1
    print("%d commands (exit codes %s), %d files compared: %d difference(s)" % (
        len(runs_a), ", ".join("%d: %d" % kv for kv in sorted(codes.items())),
        len(common), len(differences)))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
