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

One container serves four kinds. Axis extents by kind (header dims in
the same seven slots):

- transport:    (S_cam, S_proj|1, 4, 4, n_bins)
- illumination: (1, S_proj, 1, 4, n_bins or 1)
- detected:     (S_cam, 1, 4, 1, n_bins)
- measurement:  (S_cam, S_proj|1, K', 1, n_bins) with the capture index
  in the first polarimetric slot; schedule, noise and beamsplitter
  split metadata ride in the JSON block (a file without ``split`` is
  read as 0.5).

Readers check the file length against the header dims, each kind's
fixed header slots (every literal 1 and 4 above, a steady illumination's
single bin, and a measurement's K' against its schedule's row count) and
each kind's required metadata keys, and raise ValueError naming what is
wrong. The writer streams the payload from its array and the reader
reads it straight into a new array; neither holds a bytes copy of it.
Measurements from ``capture`` or the reader are views of a buffer in
file order, so neither side copies them either.
"""

import json
import os
import struct
import sys

import numpy as np

from .tensor import TransportTensor, IlluminationTensor, DetectedTensor

MAGIC = b"PLTT-TENSOR-v001"
_HEADER = struct.Struct("<7I")
# magic, dims, coaxial flag: the bytes before the payload
_PREFIX = len(MAGIC) + _HEADER.size + 1
_SLOTS = ("cam_w", "cam_h", "proj_w", "proj_h", "dim_p", "dim_q", "n_bins")


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
    """Serialize a transport/illumination/detected/measurement object."""
    from .ellipsometry import MeasurementSet, schedule_to_dict

    if isinstance(obj, TransportTensor):
        dims = (obj.cam_shape[1], obj.cam_shape[0], obj.proj_shape[1], obj.proj_shape[0],
                4, 4, obj.n_bins)
        meta = {"kind": "transport", "time_bin_width": obj.time_bin_width,
                "channel_id": obj.channel_id, "provenance": provenance}
        if obj.noise_std is not None:
            meta["noise_std"] = obj.noise_std.ravel().tolist()
        _write(path, dims, obj.coaxial, obj.data, meta)
    elif isinstance(obj, IlluminationTensor):
        n_bins = obj.data.shape[2] if obj.has_time else 1
        dims = (1, 1, obj.proj_shape[1], obj.proj_shape[0], 1, 4, n_bins)
        payload = obj.data if obj.has_time else obj.data[:, :, None]
        payload = payload[None, :, None, :, :]
        meta = {"kind": "illumination", "time_bin_width": obj.time_bin_width,
                "channel_id": "mono", "provenance": provenance,
                "has_time": obj.has_time}
        _write(path, dims, False, payload, meta)
    elif isinstance(obj, DetectedTensor):
        dims = (obj.cam_shape[1], obj.cam_shape[0], 1, 1, 4, 1, obj.data.shape[2])
        payload = obj.data[:, None, :, None, :]
        meta = {"kind": "detected", "time_bin_width": obj.time_bin_width,
                "channel_id": "mono", "provenance": provenance}
        _write(path, dims, False, payload, meta)
    elif isinstance(obj, MeasurementSet):
        k_rows, s_cam, s_proj, n_bins = obj.intensities.shape
        dims = (obj.cam_shape[1], obj.cam_shape[0], obj.proj_shape[1], obj.proj_shape[0],
                k_rows, 1, n_bins)
        payload = obj.intensities.transpose(1, 2, 0, 3)[:, :, :, None, :]
        coaxial = obj.geometry_mode == "coaxial"
        meta = {"kind": "measurement", "time_bin_width": obj.time_bin_width,
                "channel_id": "mono", "provenance": provenance,
                "schedule": schedule_to_dict(obj.schedule),
                "geometry_mode": obj.geometry_mode,
                "noise_sigma": obj.noise_sigma, "seed": obj.seed, "split": obj.split}
        _write(path, dims, coaxial, payload, meta)
    else:
        raise TypeError("cannot serialize %r" % type(obj))


# metadata keys each payload kind cannot be read without
_REQUIRED_KEYS = {
    "transport": ("time_bin_width",),
    "illumination": (),
    "detected": ("time_bin_width",),
    "measurement": ("time_bin_width", "schedule", "geometry_mode", "noise_sigma", "seed"),
}

# header slots each payload kind fixes; a measurement's dim_p is its
# schedule's row count, and steady illumination has one bin
_FIXED_SLOTS = {
    "transport": {"dim_p": 4, "dim_q": 4},
    "illumination": {"cam_w": 1, "cam_h": 1, "dim_p": 1, "dim_q": 4},
    "detected": {"proj_w": 1, "proj_h": 1, "dim_p": 4, "dim_q": 1},
    "measurement": {"dim_q": 1},
}


def _parse(fh):
    """
    Read a PLTT v1 file from the start of ``fh`` into (dims, coaxial,
    payload, metadata, schedule), or raise ValueError saying what is
    malformed.

    ``payload`` is the flat float64 payload, read straight into its
    array. ``schedule`` is a measurement's parsed schedule, else None.
    """
    from .ellipsometry import schedule_from_dict

    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_PREFIX)
    if head[:len(MAGIC)] != MAGIC:
        raise ValueError("not a PLTT v1 file: bad magic")
    if len(head) < _PREFIX:
        raise ValueError("PLTT header is truncated: %d of %d bytes" % (len(head), _PREFIX))
    dims = _HEADER.unpack_from(head, len(MAGIC))
    coaxial = bool(head[-1])
    cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins = dims
    count = cam_w * cam_h * (1 if coaxial else proj_w * proj_h) * dim_p * dim_q * n_bins
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
    for key in ("time_bin_width", "noise_sigma", "split"):
        value = meta.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError("PLTT metadata key %r must be a number, got %r" % (key, value))
    std = meta.get("noise_std")
    # "<= max" also rejects NaN, inf and integers too large for a float
    if std is not None and not (isinstance(std, list) and len(std) == 16 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and 0.0 <= v <= sys.float_info.max for v in std)):
        raise ValueError("PLTT metadata key 'noise_std' must be a list of 16 finite "
                         "numbers >= 0")
    fixed = dict(_FIXED_SLOTS[kind])
    schedule = None
    if kind == "measurement":
        schedule = schedule_from_dict(meta["schedule"])
        fixed["dim_p"] = schedule.n_rows
    elif kind == "illumination" and not meta.get("has_time", False):
        fixed["n_bins"] = 1
    for slot, want in fixed.items():
        value = dims[_SLOTS.index(slot)]
        if value != want:
            raise ValueError("PLTT %s header slot %s is %d, must be %d"
                             % (kind, slot, value, want))
    return dims, coaxial, payload, meta, schedule


def read_pltt(path):
    """Read a PLTT v1 file back into its in-memory object."""
    from .ellipsometry import MeasurementSet

    with open(path, "rb") as fh:
        dims, coaxial, payload, meta, schedule = _parse(fh)
    cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins = dims
    s_proj = 1 if coaxial else proj_w * proj_h
    payload = payload.reshape(cam_w * cam_h, s_proj, dim_p, dim_q, n_bins)
    kind = meta.get("kind", "transport")
    if kind == "transport":
        std = meta.get("noise_std")
        return TransportTensor(payload, (cam_h, cam_w), (proj_h, proj_w),
                               meta["time_bin_width"], meta.get("channel_id", "mono"),
                               coaxial, None if std is None else np.reshape(std, (4, 4)))
    if kind == "illumination":
        data = payload[0, :, 0]
        if not meta.get("has_time", False):
            data = data[:, :, 0]
        return IlluminationTensor(data, (proj_h, proj_w), meta.get("time_bin_width"))
    if kind == "detected":
        return DetectedTensor(payload[:, 0, :, 0, :], (cam_h, cam_w), meta["time_bin_width"])
    intensities = payload[:, :, :, 0, :].transpose(2, 0, 1, 3)
    return MeasurementSet(
        intensities=intensities,
        schedule=schedule,
        geometry_mode=meta["geometry_mode"],
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


def write_pgm(path, image, bit_depth=16):
    """
    Write a grayscale image as binary PGM (P5).

    The image is min/max normalized to the full range; pass the raw
    array and record the range in a sidecar for exact reproduction.
    NaNs map to 0.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("PGM export needs a 2D array, got %r" % (image.shape,))
    if bit_depth not in (8, 16):
        raise ValueError("bit_depth must be 8 or 16")
    maxval = (1 << bit_depth) - 1
    finite = np.isfinite(image)
    lo = image[finite].min() if finite.any() else 0.0
    hi = image[finite].max() if finite.any() else 0.0
    span = hi - lo if hi > lo else 1.0
    scaled = np.zeros_like(image)
    scaled[finite] = (image[finite] - lo) / span * maxval
    pix = np.round(scaled).astype(">u2" if bit_depth == 16 else "u1")
    header = ("P5\n%d %d\n%d\n" % (image.shape[1], image.shape[0], maxval)).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pix.tobytes())
    return {"min": float(lo), "max": float(hi), "bit_depth": bit_depth,
            "nan_count": int((~finite).sum())}


def write_csv_grid(path, grid, header=""):
    """Write a 2D array as CSV with full float precision."""
    grid = np.asarray(grid, dtype=float)
    np.savetxt(path, grid, delimiter=",", header=header, fmt="%.17g")
