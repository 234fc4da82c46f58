"""
Batch command line for the transport-tensor pipeline:

    pltt simulate      scene JSON -> transport tensor (PLTT)
    pltt capture       tensor + angle schedule -> measurement stack
    pltt reconstruct   measurements -> Mueller tensor + residual norms (.npy)
                       + per-bin residual summary CSV
    pltt learn-angles  training config -> optimized schedule + report
    pltt decompose     tensor -> polarizance/retardance/diattenuation maps
    pltt pca           tensor -> principal basis of its Mueller blocks
    pltt descatter     tensor + target image -> fitted suppression model
    pltt slice         tensor + slice expression -> signed images

Exit codes: 0 success, 2 usage/validation, 3 numerical failure or an
array too large to allocate. Errors go to stderr as single lines
prefixed ``error:``. Every command writes the JSON manifest
``<--out>.manifest.json``: its file arguments as ``inputs``, the files
it wrote, its seed, its wall time and the process's peak RSS;
``reconstruct``'s adds ``health``: the design's rank and cond, sigma_hat,
and the p50, p99 and max of the residual norms.
Image exports write one exact CSV per image and one 16-bit PGM with a
JSON sidecar per stack: ``decompose`` stacks a map over its bins,
``slice`` every image it enumerates, ``descatter`` its one prediction.
Every command that reads a container runs the library's operation on
its open ``PlttReader``, a source as an in-memory tensor or measurement
set is, read over runs of camera pixels of about ``tensor.CHUNK_BYTES``:
``capture`` and ``reconstruct`` write their output a run at a time
through a ``PlttWriter``, ``decompose``, ``descatter`` and ``slice`` keep
only the projector fold or slice they read, and ``pca`` only the blocks
above the noise floor. So none holds a whole transport tensor or
measurement stack, but a coaxial ``decompose`` or ``descatter``, whose
fold is the tensor itself; ``simulate`` builds and writes a block-sparse
truth, only the blocks of the pairs its scene couples, and ``capture``
of such a container reads only those blocks.
The parser is built once per process (``build_parser``), and each
command runs as the module's ``cmd_<command>`` looked up when it runs.
"""

import argparse
import csv
import functools
import hashlib
import json
import os
import re
import resource
import struct
import sys
import time
import warnings
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .analysis import (
    apply_descatter,
    build_observation,
    fit_descatter,
    pca,
    summed_polarimetric_image,
)
from .decomposition import NOISE_Z, decompose_tensor, lit_blocks, noise_floor
from .ellipsometry import (
    CaptureKernel,
    Decoder,
    drr_schedule,
    load_schedule,
    save_schedule,
    schedule_to_dict,
)
from .fileio import PlttReader, PlttWriter, write_csv_grid, write_pgm
from .learning import TrainingConfig, evaluate, learn
from .scene import build_transport, generate_ensemble, load_scene
from .tensor import check_number, epipolar_rows, fold, probe_weights


class _Parser(argparse.ArgumentParser):
    """argparse with the machine-readable error prefix and exit code 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "error: %s\n" % message)


def _parse_resolution(text):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise ValueError("resolution must look like HxW (e.g. 8x8), got %r" % (text,))
    return int(m.group(1)), int(m.group(2))


def _stem(path):
    root, _ = os.path.splitext(path)
    return root


_KIND_NAMES = {"transport": "transport tensor", "measurement": "measurement set"}


def _open(path, kind):
    """A PlttReader of ``path``, whose payload must be of ``kind``."""
    src = PlttReader(path)
    if src.header.kind != kind:
        src.close()
        raise ValueError("%s does not hold a %s" % (path, _KIND_NAMES[kind]))
    return src


def _index(value, what, size):
    """``value`` as an index into an axis of ``size``, or a ValueError naming ``what``."""
    if not 0 <= value < size:
        raise ValueError("%s %d outside 0..%d" % (what, value, size - 1))
    return value


def _pick_mask(layout, which):
    """The ``--mask`` named ``which`` of a layout as its rule ``rows(start, n)``, or None."""
    if which is None:
        return None
    epi, non_epi = epipolar_rows(layout.cam_shape, layout.proj_shape)
    return epi if which == "epipolar" else non_epi


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, rows):
    """The CSV file ``path``: the ``header`` row, then ``rows``, each float written ``%.17g``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [["%.17g" % v if isinstance(v, float) else v
                                              for v in row] for row in rows])
    return path


def _save_image(prefix, images, extra):
    """
    Exact CSV ``<prefix><suffix>.csv`` per (suffix, image), and one stack of
    them: the 16-bit PGM ``<prefix>.pgm`` and its JSON sidecar ``<prefix>.json``.
    """
    csvs = [prefix + suffix + ".csv" for suffix, _ in images]
    for path, (_, image) in zip(csvs, images):
        write_csv_grid(path, image)
    tiles = write_pgm(prefix + ".pgm", [image for _, image in images])
    for path, tile in zip(csvs, tiles):
        tile["csv"] = os.path.basename(path)
    _write_json(prefix + ".json", {"bit_depth": 16, "tile_shape": list(images[0][1].shape),
                                   **extra, "tiles": tiles})
    return csvs + [prefix + ".pgm", prefix + ".json"]


# ---------------------------------------------------------------- simulate

def cmd_simulate(args):
    """
    Build the scene's truth, a ``SparseTransport``, and write it as a sparse
    container: its lit blocks and their index, never the dense array.
    """
    scene = load_scene(args.scene)
    resolution = _parse_resolution(args.resolution)
    tensor = build_transport(scene, resolution, args.bins, args.bin_width)
    with PlttWriter(args.out, tensor.index) as out:
        out.write(tensor.blocks)
        out.finish(replace(tensor.header, provenance="simulate(%s)" % os.path.basename(args.scene)))
    print("wrote %s: %s %s, %d bins" % (
        args.out, scene.geometry_mode, "x".join(str(v) for v in resolution), args.bins))
    return {"outputs": [args.out]}


# ----------------------------------------------------------------- capture

def _load_cli_schedule(args):
    if args.schedule == "drr":
        return drr_schedule(args.k, sensor_mode=args.mode)
    schedule = load_schedule(args.schedule)
    if args.mode != schedule.sensor_mode:
        raise ValueError(
            "--mode %s conflicts with the schedule file's sensor_mode %s"
            % (args.mode, schedule.sensor_mode)
        )
    return schedule


def cmd_capture(args):
    """Capture the tensor file as ``capture`` captures a source, into a PlttWriter."""
    with _open(args.tensor, "transport") as src:
        schedule = _load_cli_schedule(args)
        kernel = CaptureKernel(src.header, schedule, args.noise, args.seed,
                               _pick_mask(src.header, args.mask), args.split)
        with PlttWriter(args.out) as out:
            kernel.run(src, out)
            out.finish(replace(kernel.header,
                               provenance="capture(%s)" % os.path.basename(args.tensor)))
    print("wrote %s: %d rows (%s, K=%d)" % (
        args.out, schedule.n_rows, schedule.sensor_mode, schedule.n_captures))
    return {"outputs": [args.out], "seed": args.seed}


# ------------------------------------------------------------- reconstruct

# design condition number above which pltt reconstruct warns: DRR-36 has
# about 13, the rank-16 DRR-16 about 2.3e5
ILL_CONDITIONED = 1e3


def _write_diagnostics(stem, res):
    """
    The (S_cam, S_proj, T) residual norms ``res`` exactly, as the ``np.save``
    file ``<stem>_residual_norms.npy``, and their summary
    ``<stem>_diagnostics.csv``: the row ``bin,records,p50,p99,max`` of each
    time bin over its S_cam * S_proj norms, numpy's linear quantiles written
    ``%.17g``. Returns the two paths, and the p50, p99 and max of every norm.
    """
    norms_path, csv_path = stem + "_residual_norms.npy", stem + "_diagnostics.csv"
    np.save(norms_path, res)
    per_bin = res.reshape(-1, res.shape[-1])
    p50, p99 = np.percentile(per_bin, [50, 99], axis=0)
    top = per_bin.max(axis=0)
    _write_table(csv_path, ["bin", "records", "p50", "p99", "max"],
                 ([t, len(per_bin), p50[t], p99[t], top[t]] for t in range(res.shape[-1])))
    overall = np.percentile(per_bin, [50, 99])
    return [norms_path, csv_path], {"p50": float(overall[0]), "p99": float(overall[1]),
                                    "max": float(top.max())}


def cmd_reconstruct(args):
    """
    Reconstruct the measurement file as ``reconstruct`` reconstructs a
    source, into a PlttWriter, keeping only the residual norms whole.
    """
    with _open(args.measurements, "measurement") as src:
        decoder = Decoder.of_measurements(src.header, split=args.split)
        with PlttWriter(args.out) as out:
            header, sigma_hat, res = decoder.run(src, out)
            out.finish(replace(header, provenance="reconstruct(%s)"
                               % os.path.basename(args.measurements)))
    if decoder.rank < 16:
        print(
            "warning: UNDERDETERMINED reconstruction (design rank %d < 16); "
            "minimum-norm solution" % decoder.rank
        )
    if decoder.cond > ILL_CONDITIONED:
        print(
            "warning: ILL-CONDITIONED design (cond %.3g > %g); the reconstruction "
            "amplifies the measurement noise" % (decoder.cond, ILL_CONDITIONED)
        )
    paths, residuals = _write_diagnostics(_stem(args.out), res)
    print("wrote %s: rank=%d cond=%.6g max_residual=%.3e sigma_hat=%.4g" % (
        args.out, decoder.rank, decoder.cond, residuals["max"], sigma_hat))
    health = {"rank": decoder.rank, "cond": decoder.cond, "sigma_hat": sigma_hat, **residuals}
    return {"outputs": [args.out] + paths, "seed": src.header.seed, "health": health}


# ------------------------------------------------------------ learn-angles

# TrainingConfig fields a config file sets directly; the ensemble keys
# build its samples, and the trainable columns follow the sensor mode
_CONFIG_FIELDS = tuple(f.name for f in fields(TrainingConfig)
                       if f.name not in ("samples", "trainable"))
_LEARN_KEYS = set(_CONFIG_FIELDS) | {"n_samples", "family_weights", "eval_seed", "n_eval"}


def cmd_learn_angles(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("training config must be a JSON object")
    unknown = sorted(set(raw) - _LEARN_KEYS)
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(unknown))

    seed = check_number(raw.get("seed", 0), "seed", low=0, integer=True)
    n_samples = check_number(raw.get("n_samples", 500), "n_samples", low=1, integer=True)
    eval_seed = check_number(raw.get("eval_seed", seed + 9999), "eval_seed", low=0, integer=True)
    n_eval = check_number(raw.get("n_eval", 200), "n_eval", low=1, integer=True)
    weights = raw.get("family_weights", [0.3, 0.35, 0.35])
    ensemble = generate_ensemble(seed, n_samples, weights=weights)
    kwargs = {key: raw[key] for key in _CONFIG_FIELDS if key in raw}
    kwargs["seed"] = seed
    config = TrainingConfig(samples=ensemble.samples, **kwargs)
    learned = learn(config)
    save_schedule(args.out, learned.schedule)

    eval_samples = generate_ensemble(eval_seed, n_eval, weights=weights).samples
    contenders = [
        ("learned", learned.schedule),
        ("drr_%d_%s" % (config.k, config.sensor_mode),
         drr_schedule(config.k, sensor_mode=config.sensor_mode)),
        ("drr_36_intensity", drr_schedule(36)),
    ]
    stats = [evaluate(sched, eval_samples, config.noise_sigma) for _, sched in contenders]
    table_path = _write_table(
        _stem(args.out) + "_comparison.csv",
        ["schedule", "captures", "rows", "design_rank", "mean_squared_error"],
        ([name, sched.n_captures, sched.n_rows, stat["design_rank"], stat["mean_squared"]]
         for (name, sched), stat in zip(contenders, stats)))

    report_path = _stem(args.out) + "_report.json"
    report = {
        "init_schedule": schedule_to_dict(drr_schedule(config.k, sensor_mode=config.sensor_mode)),
        "learned_schedule": schedule_to_dict(learned.schedule),
        "init_heldout_loss": learned.init_heldout_loss,
        "best_heldout_loss": learned.best_heldout_loss,
        "heldout_iterations": learned.heldout_iters.tolist(),
        "heldout_curve": learned.heldout_curve.tolist(),
        "training_loss_curve": learned.loss_curve.tolist(),
        "config_hash": learned.config_hash,
        "ensemble": {"seed": seed, "n_samples": n_samples, "family_weights": list(weights)},
    }
    _write_json(report_path, report)
    print("wrote %s: held-out loss %.6g -> %.6g" % (
        args.out, learned.init_heldout_loss, learned.best_heldout_loss))
    return {"outputs": [args.out, report_path, table_path], "seed": seed}


# --------------------------------------------------------------- decompose

def cmd_decompose(args):
    # the total-illumination Mueller image per bin
    with _open(args.tensor, "transport") as src:
        if args.bin is not None:
            _index(args.bin, "bin", src.header.n_bins)
        tensor = fold(src)
    decomp = decompose_tensor(tensor, floor_frac=args.floor)
    bins = range(tensor.n_bins) if args.bin is None else [args.bin]
    h, w = tensor.cam_shape
    outputs = []
    for name in ("polarizance", "retardance", "diattenuation"):
        maps = getattr(decomp, name)[:, 0]
        outputs += _save_image("%s_%s" % (args.out, name),
                               [("_t%d" % t, maps[:, t].reshape(h, w)) for t in bins],
                               {"map": name, "bins": list(bins)})
    summary_path = args.out + "_summary.json"
    _write_json(summary_path, {
        "n_blocks": int(decomp.null_mask.size),
        "n_null": decomp.n_null,
        "n_singular": decomp.n_singular,
        "n_negative_det": decomp.n_negative_det,
        "n_unrealisable": decomp.n_unrealisable,
        "floor_frac": args.floor,
        "noise_floor": noise_floor(tensor),
        "bins": list(bins),
    })
    print("wrote %s_*: %d/%d blocks below floor" % (
        args.out, decomp.n_null, decomp.null_mask.size))
    return {"outputs": [summary_path] + outputs}


# --------------------------------------------------------------------- pca

def cmd_pca(args):
    with _open(args.tensor, "transport") as src:
        blocks, _ = lit_blocks(src, args.floor)
    if blocks.shape[0] < 2:
        raise ValueError("fewer than 2 usable Mueller blocks above the floor")
    obs = build_observation(blocks, c=args.c)
    basis = pca(obs.rows)

    sv_path = _write_table(args.out + "_singular_values.csv",
                           ["component", "singular_value", "cumulative_energy"],
                           zip(range(16), basis.singular_values, basis.energy))
    comp_path = args.out + "_components.csv"
    write_csv_grid(comp_path, basis.components)
    mean_path = args.out + "_mean.csv"
    write_csv_grid(mean_path, basis.mean.reshape(1, 16))
    summary_path = args.out + "_summary.json"
    _write_json(summary_path, {
        "n_samples": int(obs.rows.shape[0]),
        "n_skipped": obs.n_skipped,
        "compression": args.c,
        "noise_floor": noise_floor(src.header),
        "components_for_95pct": basis.n_components_for(0.95),
        "n_determined": basis.n_determined,
        "energy": basis.energy.tolist(),
    })
    print("wrote %s_*: %d samples, %d components reach 95%% energy" % (
        args.out, obs.rows.shape[0], basis.n_components_for(0.95)))
    return {"outputs": [summary_path, sv_path, comp_path, mean_path]}


# --------------------------------------------------------------- descatter

def cmd_descatter(args):
    with _open(args.tensor, "transport") as src:
        mask = _pick_mask(src.header, args.mask)
        with warnings.catch_warnings():     # an empty file is the size error below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            target = np.loadtxt(args.target, delimiter=",", ndmin=2)
        if target.size != src.header.n_cam:
            raise ValueError("target has %d values but the tensor has %d camera pixels"
                             % (target.size, src.header.n_cam))
        image = summed_polarimetric_image(src, mask)
    model = fit_descatter(image, target.ravel(), mode=args.mode, method=args.method)
    predicted = apply_descatter(model, image).reshape(src.header.cam_shape)

    model_path = args.out + "_model.json"
    _write_json(model_path, {
        "weights": model.weights.tolist(),
        "offsets": model.offsets.tolist(),
        "mode": model.mode,
        "method": model.method,
        "objective": model.objective,
        "history": list(model.history),
        "converged": model.converged,
    })
    outputs = [model_path]
    outputs += _save_image(args.out + "_prediction", [("", predicted)],
                           {"mode": args.mode, "method": args.method})
    if not model.converged:
        print("warning: L-BFGS stopped before converging (%s)" % model.message)
    print("wrote %s_*: objective %.6g (%s, %s)" % (
        args.out, model.objective, args.mode, args.method))
    return {"outputs": outputs}


# ------------------------------------------------------------------- slice

_SLICE_GRAMMAR = (
    "expected [-][sum_t ][sum_p ][sum_pp ]"
    "T(s|<int>, s|s_e|s_n|<int>, <0-3>|:, <0-3>|:, t|t=<int>|:)"
)


def _int_slot(token, name, prefix=""):
    """The ASCII integer ``-?[0-9]+`` after ``prefix`` in a slot, or a ValueError naming it."""
    m = re.fullmatch(re.escape(prefix) + r"(-?[0-9]+)", token)
    if not m:
        raise ValueError("bad %s slot %r; %s" % (name, token, _SLICE_GRAMMAR))
    return int(m.group(1))


def slice_images(tensor, expr):
    """
    Evaluate a slice expression against a transport source (a tensor or an
    open container of one); returns (suffix, image) pairs. Raises
    ValueError with a grammar hint. Every slot is read before the tensor
    is indexed, so a malformed expression fails the same way on any
    tensor, and every index is checked against the header before a block
    is read: the projector slot, then the camera index and the time bin.

    The projector slot is a probe mask that ``fold`` applies, a rule that
    builds one chunk's rows at a time: the epipolar pair for ``s_e``/``s_n``,
    and for ``s`` and an index the identity and a one-hot column; a coaxial
    tensor's ``s`` is the tensor itself.
    """
    text = expr.strip()
    negate = text.startswith("-")
    if negate:
        text = text[1:].lstrip()
    sums = set()
    while text.startswith("sum_"):
        m = re.match(r"sum_([a-z']+)\s+", text)
        if not m or m.group(1) not in ("t", "p", "pp"):
            raise ValueError("bad sum prefix in %r; %s" % (expr, _SLICE_GRAMMAR))
        sums.add(m.group(1))
        text = text[m.end():]
    m = re.fullmatch(r"T\(%s\)" % ",".join([r"\s*([^,()\s]+)\s*"] * 5), text)
    if not m:
        raise ValueError("cannot parse %r; %s" % (expr, _SLICE_GRAMMAR))
    cam, proj, p, q, t = m.groups()
    if cam != "s":
        cam = _int_slot(cam, "camera")
    if proj not in ("s", "s_e", "s_n"):
        proj = _int_slot(proj, "projector")
    # None enumerates or sums an axis; an int fixes it
    p = None if p == ":" else _index(_int_slot(p, "p"), "p index", 4)
    q = None if q == ":" else _index(_int_slot(q, "p'"), "p' index", 4)
    t = None if t in ("t", ":") else _int_slot(t, "time", "t=")
    for name, index, what in (("t", t, "a fixed time bin"), ("p", p, "a fixed p index"),
                              ("pp", q, "a fixed p' index")):
        if name in sums and index is not None:
            raise ValueError("sum_%s conflicts with %s" % (name, what))

    head = tensor.header
    if proj in ("s_e", "s_n"):
        mask = _pick_mask(head, "epipolar" if proj == "s_e" else "non_epipolar")
        probe_weights(head, mask)   # a coaxial tensor fails here, before an index is checked
    elif proj == "s" and head.coaxial:
        mask = None     # a coaxial tensor's only s' is s: it is its own fold
    elif proj == "s" and head.n_proj != head.n_cam:
        raise ValueError("diagonal slice needs matching camera and projector sizes")
    elif proj != "s" and head.coaxial:
        raise ValueError("a coaxial tensor has no projector axis to index; use 's'")
    elif proj == "s":
        mask = lambda start, n: np.eye(n, head.n_proj, start)
    else:
        index = _index(proj, "projector index", head.n_proj)
        mask = lambda start, n: np.eye(1, head.n_proj, index).repeat(n, axis=0)
    rows = slice(None) if cam == "s" else slice(_index(cam, "camera index", head.n_cam), cam + 1)
    if t is not None:
        _index(t, "time bin", head.n_bins)
    block = fold(tensor, mask).data[rows, 0]

    # block axes 1..3 are p, p', t; each is fixed, summed, or enumerated
    labels = []
    for axis, index, name, label in ((1, p, "p", "_p%d"), (2, q, "pp", "_q%d"),
                                     (3, t, "t", "_t%d")):
        if index is not None:
            block = np.take(block, [index], axis=axis)
        elif name in sums:
            block = block.sum(axis=axis, keepdims=True)
        labels.append(label if index is None and name not in sums else "")

    shape = head.cam_shape if cam == "s" else (1, 1)
    sign = -1.0 if negate else 1.0
    return [("".join(label % i for label, i in zip(labels, idx) if label),
             sign * block[(slice(None),) + idx].reshape(shape))
            for idx in np.ndindex(block.shape[1:])]


def cmd_slice(args):
    with _open(args.tensor, "transport") as src:
        images = slice_images(src, args.expr)
    outputs = _save_image(args.out, images, {"expression": args.expr})
    print("wrote %d image(s) for %r" % (len(images), args.expr))
    return {"outputs": outputs}


# -------------------------------------------------------------- entrypoint

_FLOOR_HELP = ("m00 floor as a fraction of the largest m00; with a stored noise model, "
               "m00 must also exceed %g standard deviations of its noise" % NOISE_Z)


@functools.cache
def build_parser():
    """
    The ``pltt`` parser, built once per process. A command runs as the
    module's ``cmd_<command>`` at the time it runs, looked up by its name.
    """
    parser = _Parser(
        prog="pltt",
        description="Polarized light transport tensors: simulate, probe, "
        "reconstruct, learn, decompose.",
    )
    parser.add_argument("--version", action="version", version="pltt " + __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", parents=[], help="build a transport tensor from a scene file")
    p.add_argument("--scene", required=True, help="scene description (JSON)")
    p.add_argument("--resolution", required=True, help="camera grid as HxW, e.g. 8x8")
    p.add_argument("--bins", type=int, required=True, help="number of time bins")
    p.add_argument("--bin-width", type=float, required=True, help="bin width in seconds")
    p.add_argument("--out", required=True, help="output tensor (.pltt)")

    p = sub.add_parser("capture", help="run an angle schedule against a tensor")
    p.add_argument("--tensor", required=True)
    p.add_argument("--schedule", default="drr", help="'drr' or a schedule JSON path")
    p.add_argument("--k", type=int, default=36, help="captures for the drr schedule")
    p.add_argument("--mode", choices=("intensity", "polarizer_array"), default="intensity")
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian sigma on intensities")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mask", choices=("epipolar", "non_epipolar"), default=None)
    p.add_argument("--split", type=float, default=0.5, help="beamsplitter split (coaxial)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="recover Mueller blocks from measurements")
    p.add_argument("--measurements", required=True)
    p.add_argument("--split", type=float, default=None,
                   help="beamsplitter split; must match the one stored with the measurements")
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn-angles", help="optimize an angle schedule on an ensemble")
    p.add_argument("--config", required=True, help="training config (JSON)")
    p.add_argument("--out", required=True, help="output schedule (JSON)")

    p = sub.add_parser("decompose", help="polar-decompose every Mueller block")
    p.add_argument("--tensor", required=True)
    p.add_argument("--floor", type=float, default=1e-6, help=_FLOOR_HELP)
    p.add_argument("--bin", type=int, default=None, help="restrict to one time bin")
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("pca", help="principal components of the tensor's Mueller blocks")
    p.add_argument("--tensor", required=True)
    p.add_argument("--c", type=float, default=8.0, help="arctan compression factor")
    p.add_argument("--floor", type=float, default=1e-6, help=_FLOOR_HELP)
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("descatter", help="fit the affine scatter-suppression model")
    p.add_argument("--tensor", required=True)
    p.add_argument("--target", required=True, help="ground-truth intensity image (CSV)")
    p.add_argument("--mask", choices=("epipolar", "non_epipolar"), default=None)
    p.add_argument("--mode", choices=("full", "intensity_only"), default="full")
    p.add_argument("--method", choices=("closed_form", "lbfgs"), default="closed_form")
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("slice", help="evaluate a slice expression into images")
    p.add_argument("--tensor", required=True)
    p.add_argument("--expr", required=True, help=_SLICE_GRAMMAR)
    p.add_argument("--out", required=True, help="output prefix")
    return parser


def _config_hash(args):
    canonical = json.dumps(vars(args), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


# the arguments that name a file a command reads: the manifest's inputs
_INPUT_ARGS = ("scene", "tensor", "schedule", "measurements", "config", "target")


def _write_manifest(args, info, duration):
    manifest = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k in _INPUT_ARGS},
        "outputs": info["outputs"],
        "config_hash": _config_hash(args),
        "seed": info.get("seed"),
        "version": __version__,
        "duration_s": round(duration, 6),
        # ru_maxrss is in KiB on Linux, in bytes on macOS
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0), 6),
    }
    if "health" in info:
        manifest["health"] = info["health"]
    _write_json(args.out + ".manifest.json", manifest)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        info = globals()["cmd_" + args.command.replace("-", "_")](args)
    # LinAlgError is a ValueError, so the numerical failures go first
    except (ArithmeticError, RuntimeError, MemoryError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError, struct.error) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _write_manifest(args, info, time.monotonic() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
