"""
PLTT v1 container, plus small grid/image writers for exports.

Layout of a PLTT v1 file:

- 16-byte magic ``PLTT-TENSOR-v001``
- 7 little-endian u32 dims: cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins
- 1 byte coaxial flag (0/1; when 1 the stored projector axis has length 1
  and holds the s' = s diagonal)
- float64 little-endian payload, C order, axes (s, s', p, p', t)
- trailing UTF-8 JSON metadata: at least time_bin_width, channel_id,
  provenance, and a ``kind`` selecting the payload semantics; a
  transport with a noise model adds ``noise_std``, its 16 per-entry
  standard deviations in row-major (p, p') order

One container serves two kinds, each stored as its in-memory array
(header dims in the same seven slots):

- transport:   ``TransportTensor.data``, (S_cam, S_proj|1, 4, 4, n_bins)
- measurement: ``MeasurementSet.intensities``, (S_cam, S_proj|1, K', n_bins),
  with K' in dim_p and dim_q = 1; schedule, noise and beamsplitter split
  metadata ride in the JSON block (a file without ``split`` is read as
  0.5), with a ``geometry_mode`` that repeats the coaxial flag.

``read_pltt`` checks the file length against the header dims, each
kind's fixed header slots (a transport's 4x4 block, a measurement's
dim_q and its K' against its schedule's row count), each kind's required
metadata keys and a measurement's geometry_mode against the coaxial
flag, and raises ValueError naming what is wrong. The writer streams the
payload from its array and the reader reads it straight into a new array
and only reshapes it; neither holds a bytes copy of it.
"""

import json
import os
import struct

import numpy as np

from .ellipsometry import MeasurementSet, schedule_from_dict, schedule_to_dict
from .tensor import TransportTensor, check_number

MAGIC = b"PLTT-TENSOR-v001"
_HEADER = struct.Struct("<7I")
# magic, dims, coaxial flag: the bytes before the payload
_PREFIX = len(MAGIC) + _HEADER.size + 1
_SLOTS = ("cam_w", "cam_h", "proj_w", "proj_h", "dim_p", "dim_q", "n_bins")
# a measurement's geometry_mode metadata, by the header's coaxial flag
_GEOMETRY = {False: "projector_camera", True: "coaxial"}


def _write(path, dims, coaxial, payload, meta):
    """Write the header, the payload's own bytes and the metadata in turn."""
    head = MAGIC + _HEADER.pack(*dims) + struct.pack("<B", 1 if coaxial else 0)
    tail = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(payload, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(memoryview(payload))
        fh.write(tail)


def write_pltt(path, obj, provenance=""):
    """Serialize a transport tensor or a measurement set."""
    if isinstance(obj, TransportTensor):
        dims = (obj.cam_shape[1], obj.cam_shape[0], obj.proj_shape[1], obj.proj_shape[0],
                4, 4, obj.n_bins)
        meta = {"kind": "transport", "time_bin_width": obj.time_bin_width,
                "channel_id": obj.channel_id, "provenance": provenance}
        if obj.noise_std is not None:
            meta["noise_std"] = obj.noise_std.ravel().tolist()
        _write(path, dims, obj.coaxial, obj.data, meta)
    elif isinstance(obj, MeasurementSet):
        dims = (obj.cam_shape[1], obj.cam_shape[0], obj.proj_shape[1], obj.proj_shape[0],
                obj.schedule.n_rows, 1, obj.intensities.shape[3])
        meta = {"kind": "measurement", "time_bin_width": obj.time_bin_width,
                "channel_id": "mono", "provenance": provenance,
                "schedule": schedule_to_dict(obj.schedule),
                "geometry_mode": _GEOMETRY[obj.coaxial],
                "noise_sigma": obj.noise_sigma, "seed": obj.seed, "split": obj.split}
        _write(path, dims, obj.coaxial, obj.intensities, meta)
    else:
        raise TypeError("cannot serialize %r" % type(obj))


# metadata keys each payload kind cannot be read without
_REQUIRED_KEYS = {
    "transport": ("time_bin_width",),
    "measurement": ("time_bin_width", "schedule", "geometry_mode", "noise_sigma", "seed"),
}

# header slots each payload kind fixes; a measurement's dim_p is its
# schedule's row count
_FIXED_SLOTS = {
    "transport": {"dim_p": 4, "dim_q": 4},
    "measurement": {"dim_q": 1},
}


def read_pltt(path):
    """
    Read a PLTT v1 file back into its in-memory object, or raise
    ValueError saying what is malformed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_PREFIX)
        if head[:len(MAGIC)] != MAGIC:
            raise ValueError("not a PLTT v1 file: bad magic")
        if len(head) < _PREFIX:
            raise ValueError("PLTT header is truncated: %d of %d bytes" % (len(head), _PREFIX))
        dims = _HEADER.unpack_from(head, len(MAGIC))
        coaxial = bool(head[-1])
        cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins = dims
        s_proj = 1 if coaxial else proj_w * proj_h
        count = cam_w * cam_h * s_proj * dim_p * dim_q * n_bins
        end = _PREFIX + 8 * count
        if size < end:
            raise ValueError("PLTT payload is truncated: the header dims %r need %d bytes, "
                             "the file has %d" % (dims, end, size))
        payload = np.empty(count, dtype="<f8")
        got = fh.readinto(payload)
        if got != 8 * count:
            raise ValueError("PLTT payload is truncated: read %d of %d bytes" % (got, 8 * count))
        try:
            meta = json.loads(fh.read().decode("utf-8"))
        except ValueError as exc:
            raise ValueError("PLTT metadata is not valid UTF-8 JSON: %s" % exc) from None
    if not isinstance(meta, dict):
        raise ValueError("PLTT metadata must be a JSON object")
    kind = meta.get("kind", "transport")
    if kind not in _REQUIRED_KEYS:
        raise ValueError("unknown PLTT payload kind %r" % (kind,))
    for key in _REQUIRED_KEYS[kind]:
        if key not in meta:
            raise ValueError("PLTT %s metadata lacks the required key %r" % (kind, key))
    std = meta.get("noise_std")
    if std is not None:
        std = check_number(std, "PLTT metadata key 'noise_std'", low=0.0, shape=(16,))
    fixed = dict(_FIXED_SLOTS[kind])
    if kind == "measurement":
        schedule = schedule_from_dict(meta["schedule"])
        fixed["dim_p"] = schedule.n_rows
        if meta["geometry_mode"] != _GEOMETRY[coaxial]:
            raise ValueError("PLTT measurement metadata geometry_mode %r disagrees with the "
                             "header's coaxial flag %d" % (meta["geometry_mode"], coaxial))
    for slot, want in fixed.items():
        value = dims[_SLOTS.index(slot)]
        if value != want:
            raise ValueError("PLTT %s header slot %s is %d, must be %d"
                             % (kind, slot, value, want))
    if kind == "transport":
        return TransportTensor(payload.reshape(cam_w * cam_h, s_proj, 4, 4, n_bins),
                               (cam_h, cam_w), (proj_h, proj_w),
                               meta["time_bin_width"], meta.get("channel_id", "mono"),
                               coaxial, None if std is None else std.reshape(4, 4))
    return MeasurementSet(
        intensities=payload.reshape(cam_w * cam_h, s_proj, dim_p, n_bins),
        schedule=schedule,
        coaxial=coaxial,
        cam_shape=(cam_h, cam_w),
        proj_shape=(proj_h, proj_w),
        time_bin_width=meta["time_bin_width"],
        noise_sigma=meta["noise_sigma"],
        seed=meta["seed"],
        provenance=meta.get("provenance", ""),
        # files written before the split was stored were reconstructed at 0.5
        split=meta.get("split", 0.5),
    )


# ---------------------------------------------------------------------------
# simple exports


def write_pgm(path, image):
    """
    Write a grayscale image as 16-bit binary PGM (P5).

    The image is min/max normalized to the full range; pass the raw
    array and record the range in a sidecar for exact reproduction.
    NaNs map to 0.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("PGM export needs a 2D array, got %r" % (image.shape,))
    maxval = 65535
    finite = np.isfinite(image)
    lo = image[finite].min() if finite.any() else 0.0
    hi = image[finite].max() if finite.any() else 0.0
    span = hi - lo if hi > lo else 1.0
    scaled = np.zeros_like(image)
    scaled[finite] = (image[finite] - lo) / span * maxval
    pix = np.round(scaled).astype(">u2")
    header = ("P5\n%d %d\n%d\n" % (image.shape[1], image.shape[0], maxval)).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pix.tobytes())
    return {"min": float(lo), "max": float(hi), "bit_depth": 16,
            "nan_count": int((~finite).sum())}


def write_csv_grid(path, grid):
    """Write a 2D array as CSV with full float precision."""
    grid = np.asarray(grid, dtype=float)
    np.savetxt(path, grid, delimiter=",", fmt="%.17g")
