"""
Batch command line for the transport-tensor pipeline:

    pltt simulate      scene JSON -> transport tensor (PLTT)
    pltt capture       tensor + angle schedule -> measurement stack
    pltt reconstruct   measurements -> Mueller tensor + diagnostics CSV
    pltt learn-angles  training config -> optimized schedule + report
    pltt decompose     tensor -> polarizance/retardance/diattenuation maps
    pltt pca           tensor -> principal basis of its Mueller blocks
    pltt descatter     tensor + target image -> fitted suppression model
    pltt slice         tensor + slice expression -> signed images

Exit codes: 0 success, 2 usage/validation, 3 numerical failure. Errors
go to stderr as single lines prefixed ``error:``. Every command writes
a JSON manifest next to its primary output.
"""

import argparse
import csv
import hashlib
import json
import os
import re
import struct
import sys
import time
from dataclasses import dataclass, fields

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
    MeasurementSet,
    capture,
    design_matrix,
    drr_schedule,
    load_schedule,
    reconstruct,
    save_schedule,
    schedule_to_dict,
)
from .fileio import read_pltt, write_csv_grid, write_pgm, write_pltt
from .learning import TrainingConfig, evaluate, learn
from .scene import build_transport, generate_ensemble, load_scene
from .tensor import TransportTensor, epipolar_masks, probe


class _Parser(argparse.ArgumentParser):
    """argparse with the machine-readable error prefix and exit code 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "error: %s\n" % message)


def _parse_resolution(text):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise ValueError("resolution must look like HxW (e.g. 8x8), got %r" % (text,))
    h, w = int(m.group(1)), int(m.group(2))
    if h < 1 or w < 1:
        raise ValueError("resolution must be at least 1x1")
    return h, w


def _stem(path):
    root, _ = os.path.splitext(path)
    return root


def _require_transport(obj, path):
    if not isinstance(obj, TransportTensor):
        raise ValueError("%s does not hold a transport tensor" % (path,))
    return obj


def _pick_mask(tensor, which):
    if which is None:
        return None
    if tensor.coaxial:
        raise ValueError(
            "cannot probe a coaxial tensor: its projector axis is virtual"
        )
    epi, non_epi = epipolar_masks(tensor.cam_shape, tensor.proj_shape)
    return epi if which == "epipolar" else non_epi


def _save_image(prefix, image, sidecar_extra):
    """16-bit PGM for looking at, CSV for exact values, JSON sidecar."""
    pgm = prefix + ".pgm"
    csv_path = prefix + ".csv"
    meta = write_pgm(pgm, image, bit_depth=16)
    write_csv_grid(csv_path, image)
    meta.update(sidecar_extra)
    side = prefix + ".json"
    with open(side, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [pgm, csv_path, side]


# ---------------------------------------------------------------- simulate

def cmd_simulate(args):
    scene = load_scene(args.scene)
    resolution = _parse_resolution(args.resolution)
    tensor = build_transport(scene, resolution, args.bins, args.bin_width)
    write_pltt(args.out, tensor, provenance="simulate(%s)" % os.path.basename(args.scene))
    print("wrote %s: %s %s, %d bins" % (
        args.out, scene.geometry_mode, "x".join(str(v) for v in resolution), args.bins))
    return {"inputs": {"scene": args.scene}, "outputs": [args.out]}


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
    tensor = _require_transport(read_pltt(args.tensor), args.tensor)
    schedule = _load_cli_schedule(args)
    mask = _pick_mask(tensor, args.mask)
    meas = capture(
        tensor,
        schedule,
        noise_sigma=args.noise,
        seed=args.seed,
        masks=mask,
        split=args.split,
    )
    write_pltt(args.out, meas, provenance="capture(%s)" % os.path.basename(args.tensor))
    print("wrote %s: %d rows (%s, K=%d)" % (
        args.out, schedule.n_rows, schedule.sensor_mode, schedule.n_captures))
    return {
        "inputs": {"tensor": args.tensor, "schedule": args.schedule},
        "outputs": [args.out],
        "seed": args.seed,
    }


# ------------------------------------------------------------- reconstruct

# design condition number above which pltt reconstruct warns: DRR-36 has
# about 13, the rank-16 DRR-16 about 2.3e5
ILL_CONDITIONED = 1e3


def _write_diagnostics(path, res):
    """
    Residual norms as CSV rows ``cam_index,proj_index,bin,residual_norm``
    in (s, x, t) order, with the csv module's CRLF line ends, one camera
    pixel at a time: its rows' indices go into one format string, and one
    ``%`` fills in the values.
    """
    n_cam, n_proj, n_bins = res.shape
    rows = ["%d,%d,%%.17g" % (x, t) for x in range(n_proj) for t in range(n_bins)]
    with open(path, "w", newline="") as fh:
        fh.write("cam_index,proj_index,bin,residual_norm\r\n")
        for s in range(n_cam):
            cell = "%d," % s
            text = cell + ("\r\n" + cell).join(rows) + "\r\n"
            fh.write(text % tuple(res[s].ravel().tolist()))


def cmd_reconstruct(args):
    meas = read_pltt(args.measurements)
    if not isinstance(meas, MeasurementSet):
        raise ValueError("%s does not hold a measurement set" % (args.measurements,))
    result = reconstruct(meas, split=args.split)
    if result.underdetermined:
        print(
            "warning: UNDERDETERMINED reconstruction (design rank %d < 16); "
            "minimum-norm solution" % result.rank
        )
    if result.cond > ILL_CONDITIONED:
        print(
            "warning: ILL-CONDITIONED design (cond %.3g > %g); the reconstruction "
            "amplifies the measurement noise" % (result.cond, ILL_CONDITIONED)
        )
    write_pltt(
        args.out, result.tensor,
        provenance="reconstruct(%s)" % os.path.basename(args.measurements),
    )
    diag_path = _stem(args.out) + "_diagnostics.csv"
    res = result.residual_norms
    _write_diagnostics(diag_path, res)
    print("wrote %s: rank=%d cond=%.6g max_residual=%.3e sigma_hat=%.4g" % (
        args.out, result.rank, result.cond, float(res.max()), result.sigma_hat))
    return {
        "inputs": {"measurements": args.measurements},
        "outputs": [args.out, diag_path],
        "seed": meas.seed,
    }


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

    seed = int(raw.get("seed", 0))
    n_samples = int(raw.get("n_samples", 500))
    weights = tuple(raw.get("family_weights", (0.3, 0.35, 0.35)))
    ensemble = generate_ensemble(seed, n_samples, weights=weights)
    kwargs = {key: raw[key] for key in _CONFIG_FIELDS if key in raw}
    kwargs["seed"] = seed
    config = TrainingConfig(samples=ensemble.samples, **kwargs)
    learned = learn(config)
    save_schedule(args.out, learned.schedule)

    eval_seed = int(raw.get("eval_seed", seed + 9999))
    n_eval = int(raw.get("n_eval", 200))
    eval_samples = generate_ensemble(eval_seed, n_eval, weights=weights).samples
    contenders = [
        ("learned", learned.schedule),
        ("drr_%d_%s" % (config.k, config.sensor_mode),
         drr_schedule(config.k, sensor_mode=config.sensor_mode)),
        ("drr_36_intensity", drr_schedule(36)),
    ]
    table_path = _stem(args.out) + "_comparison.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schedule", "captures", "rows", "design_rank", "mean_squared_error"])
        for name, sched in contenders:
            design = design_matrix(sched)
            stats = evaluate(sched, eval_samples, config.noise_sigma, seed=eval_seed)
            writer.writerow([
                name, sched.n_captures, sched.n_rows, design.rank,
                "%.17g" % stats["mean_squared"],
            ])

    report_path = _stem(args.out) + "_report.json"
    report = {
        "init_schedule": schedule_to_dict(drr_schedule(config.k, sensor_mode=config.sensor_mode)),
        "learned_schedule": schedule_to_dict(learned.schedule),
        "init_heldout_loss": learned.init_heldout_loss,
        "best_heldout_loss": learned.best_heldout_loss,
        "heldout_iterations": learned.heldout_iters.tolist(),
        "heldout_curve": learned.heldout_curve.tolist(),
        "batch_loss_curve": learned.loss_curve.tolist(),
        "config_hash": learned.config_hash,
        "ensemble": {"seed": seed, "n_samples": n_samples, "family_weights": list(weights)},
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s: held-out loss %.6g -> %.6g" % (
        args.out, learned.init_heldout_loss, learned.best_heldout_loss))
    return {
        "inputs": {"config": args.config},
        "outputs": [args.out, report_path, table_path],
        "seed": seed,
    }


# --------------------------------------------------------------- decompose

def cmd_decompose(args):
    tensor = _require_transport(read_pltt(args.tensor), args.tensor)
    if not tensor.coaxial and tensor.data.shape[1] > 1:
        # fold the projector axis: total-illumination Mueller image per bin;
        # the sum of S_proj independent noises has sqrt(S_proj) times their std
        std = tensor.noise_std
        tensor = TransportTensor(
            tensor.data.sum(axis=1, keepdims=True),
            tensor.cam_shape,
            (1, 1),
            tensor.time_bin_width,
            channel_id=tensor.channel_id,
            coaxial=False,
            noise_std=None if std is None else std * np.sqrt(tensor.data.shape[1]),
        )
    decomp = decompose_tensor(tensor, floor_frac=args.floor)
    bins = range(tensor.n_bins) if args.bin is None else [args.bin]
    h, w = tensor.cam_shape
    outputs = []
    maps = {
        "polarizance": decomp.polarizance,
        "retardance": decomp.retardance,
        "diattenuation": decomp.diattenuation,
    }
    for t in bins:
        if not 0 <= t < tensor.n_bins:
            raise ValueError("bin %d outside 0..%d" % (t, tensor.n_bins - 1))
        for name, grid in maps.items():
            prefix = "%s_%s_t%d" % (args.out, name, t)
            outputs += _save_image(
                prefix, grid[:, 0, t].reshape(h, w), {"map": name, "bin": t}
            )
    summary_path = args.out + "_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "n_blocks": int(decomp.null_mask.size),
                "n_null": decomp.n_null,
                "n_singular": decomp.n_singular,
                "n_negative_det": decomp.n_negative_det,
                "n_reorthogonalized": decomp.n_reorthogonalized,
                "n_clamped": decomp.n_clamped,
                "n_unrealisable": decomp.n_unrealisable,
                "floor_frac": args.floor,
                "noise_floor": noise_floor(tensor),
                "bins": list(bins),
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print("wrote %s_*: %d/%d blocks below floor" % (
        args.out, decomp.n_null, decomp.null_mask.size))
    return {
        "inputs": {"tensor": args.tensor},
        "outputs": [summary_path] + outputs,
        "manifest_base": args.out,
    }


# --------------------------------------------------------------------- pca

def cmd_pca(args):
    tensor = _require_transport(read_pltt(args.tensor), args.tensor)
    blocks, lit = lit_blocks(tensor, args.floor)
    blocks = blocks[lit]
    if blocks.shape[0] < 2:
        raise ValueError("fewer than 2 usable Mueller blocks above the floor")
    obs = build_observation(blocks, c=args.c)
    basis = pca(obs)

    sv_path = args.out + "_singular_values.csv"
    with open(sv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "singular_value", "cumulative_energy"])
        for i in range(16):
            writer.writerow([
                i, "%.17g" % basis.singular_values[i], "%.17g" % basis.energy[i],
            ])
    comp_path = args.out + "_components.csv"
    write_csv_grid(comp_path, basis.components)
    mean_path = args.out + "_mean.csv"
    write_csv_grid(mean_path, basis.mean.reshape(1, 16))
    summary_path = args.out + "_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "n_samples": int(obs.rows.shape[0]),
                "n_skipped": obs.n_skipped,
                "compression": args.c,
                "noise_floor": noise_floor(tensor),
                "components_for_95pct": basis.n_components_for(0.95),
                "energy": basis.energy.tolist(),
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print("wrote %s_*: %d samples, %d components reach 95%% energy" % (
        args.out, obs.rows.shape[0], basis.n_components_for(0.95)))
    return {
        "inputs": {"tensor": args.tensor},
        "outputs": [summary_path, sv_path, comp_path, mean_path],
        "manifest_base": args.out,
    }


# --------------------------------------------------------------- descatter

def cmd_descatter(args):
    tensor = _require_transport(read_pltt(args.tensor), args.tensor)
    mask = _pick_mask(tensor, args.mask)
    image = summed_polarimetric_image(tensor, mask)
    target = np.loadtxt(args.target, delimiter=",", ndmin=2)
    if target.size != image.shape[0]:
        raise ValueError(
            "target has %d values but the tensor has %d camera pixels"
            % (target.size, image.shape[0])
        )
    model = fit_descatter(image, target.ravel(), mode=args.mode, method=args.method)
    predicted = apply_descatter(model, image).reshape(tensor.cam_shape)

    model_path = args.out + "_model.json"
    with open(model_path, "w") as fh:
        json.dump(
            {
                "weights": model.weights.tolist(),
                "offsets": model.offsets.tolist(),
                "mode": model.mode,
                "method": model.method,
                "objective": model.objective,
                "history": list(model.history),
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    outputs = [model_path]
    outputs += _save_image(
        args.out + "_prediction", predicted,
        {"mode": args.mode, "method": args.method},
    )
    print("wrote %s_*: objective %.6g (%s, %s)" % (
        args.out, model.objective, args.mode, args.method))
    return {
        "inputs": {"tensor": args.tensor, "target": args.target},
        "outputs": outputs,
        "manifest_base": args.out,
    }


# ------------------------------------------------------------------- slice

_SLICE_GRAMMAR = (
    "expected [-][sum_t ][sum_p ][sum_pp ]"
    "T(s|<int>, s|s_e|s_n|<int>, <0-3>|:, <0-3>|:, t|t=<int>|:)"
)


@dataclass(frozen=True)
class SliceQuery:
    negate: bool
    sums: frozenset
    cam: object       # "s" or int
    proj: object      # "s", "s_e", "s_n", or int
    p: object         # int or None (enumerate)
    q: object
    t: object         # "keep" or int


def _parse_pol_slot(token, name):
    if token == ":":
        return None
    try:
        value = int(token)
    except ValueError:
        raise ValueError("bad %s slot %r; %s" % (name, token, _SLICE_GRAMMAR))
    if not 0 <= value <= 3:
        raise ValueError("%s index %d outside 0..3" % (name, value))
    return value


def parse_slice_expression(expr):
    """Parse a slice expression; raises ValueError with a grammar hint."""
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
    m = re.fullmatch(
        r"T\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*,"
        r"\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)",
        text,
    )
    if not m:
        raise ValueError("cannot parse %r; %s" % (expr, _SLICE_GRAMMAR))
    cam_tok, proj_tok, p_tok, q_tok, t_tok = m.groups()

    cam = "s" if cam_tok == "s" else None
    if cam is None:
        try:
            cam = int(cam_tok)
        except ValueError:
            raise ValueError("bad camera slot %r; %s" % (cam_tok, _SLICE_GRAMMAR))

    if proj_tok in ("s", "s_e", "s_n"):
        proj = proj_tok
    else:
        try:
            proj = int(proj_tok)
        except ValueError:
            raise ValueError("bad projector slot %r; %s" % (proj_tok, _SLICE_GRAMMAR))

    p = _parse_pol_slot(p_tok, "p")
    q = _parse_pol_slot(q_tok, "p'")

    if t_tok in ("t", ":"):
        t = "keep"
    else:
        tm = re.fullmatch(r"t=(-?\d+)", t_tok)
        if not tm:
            raise ValueError("bad time slot %r; %s" % (t_tok, _SLICE_GRAMMAR))
        t = int(tm.group(1))

    if "t" in sums and t != "keep":
        raise ValueError("sum_t conflicts with a fixed time bin")
    if "p" in sums and p is not None:
        raise ValueError("sum_p conflicts with a fixed p index")
    if "pp" in sums and q is not None:
        raise ValueError("sum_pp conflicts with a fixed p' index")
    return SliceQuery(
        negate=negate, sums=frozenset(sums), cam=cam, proj=proj, p=p, q=q, t=t
    )


def evaluate_slice(tensor, query):
    """Resolve a parsed slice against a tensor; returns (suffix, image) pairs."""
    data = tensor.data
    n_cam = data.shape[0]

    if query.proj == "s":
        if tensor.coaxial:
            block = data[:, 0]
        else:
            if data.shape[1] != n_cam:
                raise ValueError(
                    "diagonal slice needs matching camera and projector sizes"
                )
            block = data[np.arange(n_cam), np.arange(n_cam)]
    elif query.proj in ("s_e", "s_n"):
        label = "epipolar" if query.proj == "s_e" else "non_epipolar"
        mask = _pick_mask(tensor, label)
        block = probe(tensor, mask).data.sum(axis=1)
    else:
        if tensor.coaxial:
            raise ValueError(
                "a coaxial tensor has no projector axis to index; use 's'"
            )
        if not 0 <= query.proj < data.shape[1]:
            raise ValueError(
                "projector index %d outside 0..%d" % (query.proj, data.shape[1] - 1)
            )
        block = data[:, query.proj]

    shape = tensor.cam_shape
    if query.cam != "s":
        if not 0 <= query.cam < n_cam:
            raise ValueError("camera index %d outside 0..%d" % (query.cam, n_cam - 1))
        block = block[query.cam : query.cam + 1]
        shape = (1, 1)

    enum_p = enum_q = enum_t = False
    if query.p is None:
        if "p" in query.sums:
            block = block.sum(axis=1, keepdims=True)
        else:
            enum_p = True
    else:
        block = block[:, query.p : query.p + 1]
    if query.q is None:
        if "pp" in query.sums:
            block = block.sum(axis=2, keepdims=True)
        else:
            enum_q = True
    else:
        block = block[:, :, query.q : query.q + 1]
    if query.t == "keep":
        if "t" in query.sums:
            block = block.sum(axis=3, keepdims=True)
        else:
            enum_t = True
    else:
        if not 0 <= query.t < block.shape[3]:
            raise ValueError(
                "time bin %d outside 0..%d" % (query.t, block.shape[3] - 1)
            )
        block = block[:, :, :, query.t : query.t + 1]

    sign = -1.0 if query.negate else 1.0
    images = []
    for ip in range(block.shape[1]):
        for iq in range(block.shape[2]):
            for it in range(block.shape[3]):
                suffix = ""
                if enum_p:
                    suffix += "_p%d" % ip
                if enum_q:
                    suffix += "_q%d" % iq
                if enum_t:
                    suffix += "_t%d" % it
                images.append((suffix, sign * block[:, ip, iq, it].reshape(shape)))
    return images


def cmd_slice(args):
    tensor = _require_transport(read_pltt(args.tensor), args.tensor)
    query = parse_slice_expression(args.expr)
    images = evaluate_slice(tensor, query)
    outputs = []
    for suffix, image in images:
        outputs += _save_image(
            args.out + suffix, image, {"expression": args.expr, "suffix": suffix}
        )
    print("wrote %d image(s) for %r" % (len(images), args.expr))
    return {
        "inputs": {"tensor": args.tensor},
        "outputs": outputs,
        "manifest_base": args.out,
    }


# -------------------------------------------------------------- entrypoint

_FLOOR_HELP = ("m00 floor as a fraction of the largest m00; with a stored noise model, "
               "m00 must also exceed %g standard deviations of its noise" % NOISE_Z)


def build_parser():
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
    p.set_defaults(func=cmd_simulate)

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
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("reconstruct", help="recover Mueller blocks from measurements")
    p.add_argument("--measurements", required=True)
    p.add_argument("--split", type=float, default=None,
                   help="beamsplitter split; must match the one stored with the measurements")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("learn-angles", help="optimize an angle schedule on an ensemble")
    p.add_argument("--config", required=True, help="training config (JSON)")
    p.add_argument("--out", required=True, help="output schedule (JSON)")
    p.set_defaults(func=cmd_learn_angles)

    p = sub.add_parser("decompose", help="polar-decompose every Mueller block")
    p.add_argument("--tensor", required=True)
    p.add_argument("--floor", type=float, default=1e-6, help=_FLOOR_HELP)
    p.add_argument("--bin", type=int, default=None, help="restrict to one time bin")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pca", help="principal components of the tensor's Mueller blocks")
    p.add_argument("--tensor", required=True)
    p.add_argument("--c", type=float, default=8.0, help="arctan compression factor")
    p.add_argument("--floor", type=float, default=1e-6, help=_FLOOR_HELP)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("descatter", help="fit the affine scatter-suppression model")
    p.add_argument("--tensor", required=True)
    p.add_argument("--target", required=True, help="ground-truth intensity image (CSV)")
    p.add_argument("--mask", choices=("epipolar", "non_epipolar"), default=None)
    p.add_argument("--mode", choices=("full", "intensity_only"), default="full")
    p.add_argument("--method", choices=("closed_form", "lbfgs"), default="closed_form")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_descatter)

    p = sub.add_parser("slice", help="evaluate a slice expression into images")
    p.add_argument("--tensor", required=True)
    p.add_argument("--expr", required=True, help=_SLICE_GRAMMAR)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_slice)
    return parser


def _config_hash(args):
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(args, info, duration):
    base = info.get("manifest_base", info["outputs"][0])
    path = base + ".manifest.json"
    manifest = {
        "command": args.command,
        "inputs": info.get("inputs", {}),
        "outputs": list(info["outputs"]),
        "config_hash": _config_hash(args),
        "seed": info.get("seed"),
        "version": __version__,
        "duration_s": round(duration, 6),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        info = args.func(args)
    # LinAlgError is a ValueError, so the numerical failures go first
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError, struct.error) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _write_manifest(args, info, time.monotonic() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
