"""
PLTT v1 container, plus small grid/image writers for exports.

Layout of a PLTT v1 file:

- 16-byte magic ``PLTT-TENSOR-v001``
- 7 little-endian u32 dims: cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins
- 1 flag byte: bit 0 the coaxial flag (0/1; when 1 the stored projector
  axis has length 1 and holds the s' = s diagonal), bit 7 a sparse
  payload, the other bits 0
- a sparse payload's index block: the pair count n as a little-endian
  u64, then n little-endian u32 (s, s') pairs (s' = 0 when coaxial),
  distinct and in increasing order
- float64 little-endian payload, C order, axes (s, s', p, p', t); a
  sparse payload holds only its n indexed (p, p', t) blocks, in index order
- trailing UTF-8 JSON metadata: at least time_bin_width, channel_id,
  provenance, and a ``kind`` selecting the payload semantics; a
  transport with a noise model adds ``noise_std``, its 16 per-entry
  standard deviations in row-major (p, p') order

One container serves two kinds, each stored as its in-memory array
(header dims in the same seven slots):

- transport:   ``TransportTensor.data``, (S_cam, S_proj|1, 4, 4, n_bins),
  or a ``SparseTransport``'s ``blocks``, (n, 4, 4, n_bins), after its index
- measurement: ``MeasurementSet.intensities``, (S_cam, S_proj|1, K', n_bins),
  with K' in dim_p and dim_q = 1; schedule, noise and beamsplitter split
  metadata ride in the JSON block (a file without ``split`` is read as
  0.5), with a ``geometry_mode`` that repeats the coaxial flag.

A file holds one ``tensor.Header``, the record that a TransportTensor or
a MeasurementSet keeps beside its array and that alone checks its
values: ``write_pltt`` writes an object's array and header, and
``read_pltt`` builds the object from both, so every value either object
keeps, its provenance too, reads back and writes again byte for byte. This module holds only the record's byte form, the seven header
slots and the JSON block, so the writer writes what the reader checks.

The payload is a run of camera pixels, each one record of the kind's
shape less its first axis, and both directions stream it in those
records. ``PlttReader`` checks everything but the payload before it uses
a payload byte: the coaxial flag, the file length against the header
dims, the JSON block, each kind's required metadata keys, a
measurement's geometry_mode against the coaxial flag, the values of the
Header it builds, and each kind's fixed header slots against that
Header's (a transport's 4x4 block, a measurement's dim_q and its K'
against its schedule's row count); it raises ValueError naming what is
wrong.
It then reads runs of camera pixels at their offsets (``os.preadv``) into
a reused buffer (not ``np.memmap``, whose touched pages count in resident
memory), and checks that a transport's are finite. ``PlttWriter`` writes
the payload chunks (arrays, or the reused buffer its ``slot`` lends) at
their offsets (``os.pwrite``) in a temporary file beside its output, then
the metadata and the header, and renames the file over the output only
when all of it is written, so a command that fails leaves no partial
output. Positional I/O lets the workers of ``tensor.run_spans`` read and
write their spans of one file at once. ``PlttReader.load`` (so
``read_pltt``) and ``write_pltt`` are the one-chunk case: the whole payload
read into a new array, or an array's own bytes written, with no bytes copy.

Only ``SparseTransport`` writes a sparse payload, and only a transport may
hold one. A dense container's bytes are those of a file written before
the sparse form, and such files read as they did. A reader of a sparse
file checks its index (``tensor.check_index``) with the header; its chunks
are dense, filled from the index, its ``pairs`` read only the indexed
blocks, and ``load`` gives the dense TransportTensor.
"""

import json
import math
import os
import struct
import threading

import numpy as np

from .ellipsometry import MeasurementSet, schedule_from_dict, schedule_to_dict
from .tensor import (TRANSPORT_SHAPE, Header, HeaderArray, SparseTransport, TransportTensor,
                     check_index, check_number, chunk_starts, index_pairs, sparse_chunks,
                     whole_pairs)

MAGIC = b"PLTT-TENSOR-v001"
_HEADER = struct.Struct("<7I")
# magic, dims, coaxial flag: the bytes before the payload
_PREFIX = len(MAGIC) + _HEADER.size + 1
_SLOTS = ("cam_w", "cam_h", "proj_w", "proj_h", "dim_p", "dim_q", "n_bins")
# a measurement's geometry_mode metadata, by the header's coaxial flag
_GEOMETRY = {False: "projector_camera", True: "coaxial"}
# the in-memory class of each payload kind
_KINDS = {"transport": TransportTensor, "measurement": MeasurementSet}


def _dims(header):
    """A Header's seven u32 header slots; a measurement's dim_p is its schedule's row count."""
    (cam_h, cam_w), (proj_h, proj_w) = header.cam_shape, header.proj_shape
    dim_p, dim_q = (4, 4) if header.kind == "transport" else (header.schedule.n_rows, 1)
    return cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, header.n_bins


def _meta(header):
    """A Header's JSON block."""
    meta = {"kind": header.kind, "time_bin_width": header.time_bin_width,
            "channel_id": header.channel_id, "provenance": header.provenance}
    if header.noise_std is not None:
        meta["noise_std"] = header.noise_std.ravel().tolist()
    if header.kind == "measurement":
        meta.update(schedule=schedule_to_dict(header.schedule),
                    geometry_mode=_GEOMETRY[header.coaxial], noise_sigma=header.noise_sigma,
                    seed=header.seed, split=header.split)
    return meta


def _payload_start(index):
    """The offset of the payload of a dense file (``index`` None) or of a sparse one."""
    return _PREFIX if index is None else _PREFIX + 8 + 8 * len(index)


class PlttWriter:
    """
    Writes a PLTT file: ``write(chunk, start)`` writes the records of camera
    pixels ``start`` on at their offset in the payload (``os.pwrite``, so
    workers write their chunks at once, in any order), each chunk an array
    or the ``slot`` filled for it, and ``finish(header)`` checks the value
    count, adds the metadata and the header and renames the temporary file
    beside ``path`` over it. Leaving the ``with`` block without finishing
    removes the temporary file. A writer given the (n, 2) ``index`` of a
    ``SparseTransport`` writes a sparse transport: its records are the n
    blocks, ``start`` counts blocks, and ``finish`` adds the index block.
    """

    def __init__(self, path, index=None):
        self._path = os.fspath(path)
        self._temp = self._path + ".tmp"
        self._fh = open(self._temp, "wb", buffering=0)
        self._count = 0
        self._lock = threading.Lock()
        self._index = index
        self._start = _payload_start(index)

    def buffer(self, shape):
        """A new array of ``shape``, whose leading rows a worker's ``slot`` lends."""
        return np.empty(shape)

    def slot(self, start, n, buf):
        """The first ``n`` camera pixels of a ``buffer`` ``buf``, to fill and ``write``."""
        return buf[:n]

    def write(self, chunk, start=0):
        chunk = np.ascontiguousarray(chunk, dtype="<f8")
        if chunk.size:      # a sparse transport may have no block
            _pwrite(self._fh.fileno(), chunk,
                    self._start + 8 * start * math.prod(chunk.shape[1:]))
        with self._lock:
            self._count += chunk.size

    def finish(self, header):
        sparse = self._index is not None
        count = (len(self._index) * math.prod(header.record[1:]) if sparse
                 else header.n_cam * math.prod(header.record))
        if self._count != count:
            raise ValueError("PLTT payload has %d values, its header dims %r need %d"
                             % (self._count, _dims(header), count))
        fd = self._fh.fileno()
        _pwrite(fd, json.dumps(_meta(header), sort_keys=True).encode("utf-8"),
                self._start + 8 * count)
        # the flag byte: bit 0 the coaxial flag, bit 7 a sparse payload
        flag = (1 if header.coaxial else 0) | (0x80 if sparse else 0)
        prefix = MAGIC + _HEADER.pack(*_dims(header)) + struct.pack("<B", flag)
        if sparse:
            prefix += struct.pack("<Q", len(self._index)) + self._index.astype("<u4").tobytes()
        _pwrite(fd, prefix, 0)
        self._fh.close()
        os.replace(self._temp, self._path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        if os.path.exists(self._temp):     # not finished, or failed while finishing
            os.remove(self._temp)


def _pwrite(fd, data, offset):
    """Write all of the bytes of ``data`` at ``offset`` of the file ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def write_pltt(path, obj):
    """
    Serialize a transport tensor or a measurement set, its array and its
    header; a SparseTransport as a sparse transport, its blocks and index.
    """
    if not isinstance(obj, HeaderArray):
        raise TypeError("cannot serialize %r" % type(obj))
    with PlttWriter(path, obj.index if isinstance(obj, SparseTransport) else None) as out:
        out.write(obj.array)
        out.finish(obj.header)


# metadata keys each payload kind cannot be read without
_REQUIRED_KEYS = {
    "transport": ("time_bin_width",),
    "measurement": ("time_bin_width", "schedule", "geometry_mode", "noise_sigma", "seed"),
}


def _read_header(fh):
    """
    A PLTT file's checked Header, read with its metadata, and the (n, 2)
    index of a sparse transport's payload, or None for a dense payload.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_PREFIX)
    if head[:len(MAGIC)] != MAGIC:
        raise ValueError("not a PLTT v1 file: bad magic")
    if len(head) < _PREFIX:
        raise ValueError("PLTT header is truncated: %d of %d bytes" % (len(head), _PREFIX))
    dims = _HEADER.unpack_from(head, len(MAGIC))
    # bit 7 of the flag byte marks a sparse payload; the others hold the coaxial flag
    if head[-1] & 0x7F > 1:
        raise ValueError("PLTT coaxial flag must be 0 or 1, got %d" % head[-1])
    coaxial, sparse = head[-1] & 1 == 1, head[-1] & 0x80 != 0
    cam_w, cam_h, proj_w, proj_h, dim_p, dim_q, n_bins = dims
    s_proj = 1 if coaxial else proj_w * proj_h
    record = dim_p * dim_q * n_bins
    count = cam_w * cam_h * s_proj * record
    index = None
    if sparse:
        raw = fh.read(8)
        n_blocks = struct.unpack("<Q", raw)[0] if len(raw) == 8 else None
        if n_blocks is None or size < _PREFIX + 8 + 8 * n_blocks:
            raise ValueError("PLTT sparse index is truncated: the file has %d bytes" % size)
        index = np.frombuffer(fh.read(8 * n_blocks), dtype="<u4").reshape(n_blocks, 2)
    end = _payload_start(index) + 8 * (count if index is None else len(index) * record)
    if size < end:
        raise ValueError("PLTT payload is truncated: the header dims %r need %d bytes, "
                         "the file has %d" % (dims, end, size))
    fh.seek(end)
    try:
        meta = json.loads(fh.read().decode("utf-8"))
    except ValueError as exc:
        raise ValueError("PLTT metadata is not valid UTF-8 JSON: %s" % exc) from None
    if not isinstance(meta, dict):
        raise ValueError("PLTT metadata must be a JSON object")
    kind = meta.get("kind", "transport")
    if not isinstance(kind, str) or kind not in _REQUIRED_KEYS:
        raise ValueError("unknown PLTT payload kind %r" % (kind,))
    if sparse and kind != "transport":
        raise ValueError("a sparse PLTT payload must hold a transport, not a %s" % kind)
    for key in _REQUIRED_KEYS[kind]:
        if key not in meta:
            raise ValueError("PLTT %s metadata lacks the required key %r" % (kind, key))
    if count == 0:
        raise ValueError("PLTT header dims %r hold no payload" % (dims,))
    std = meta.get("noise_std")
    if isinstance(std, list):     # the file's 16 values are the record's four rows
        std = [std[i:i + 4] for i in range(0, len(std), 4)]
    measured = {}
    if kind == "measurement":
        schedule = schedule_from_dict(meta["schedule"])
        if meta["geometry_mode"] != _GEOMETRY[coaxial]:
            raise ValueError("PLTT measurement metadata geometry_mode %r disagrees with the "
                             "header's coaxial flag %d" % (meta["geometry_mode"], coaxial))
        # files written before the split was stored were reconstructed at 0.5
        measured = dict(schedule=schedule, noise_sigma=meta["noise_sigma"], seed=meta["seed"],
                        split=meta.get("split", 0.5))
    header = Header(kind, (cam_h, cam_w), (proj_h, proj_w), coaxial, n_bins,
                    meta["time_bin_width"], meta.get("channel_id", "mono"),
                    meta.get("provenance", ""), std, **measured)
    # the Header's dims restate the file's but for the slots its kind fixes:
    # a transport's 4x4 block, a measurement's dim_q and its schedule's row count
    for slot, value, want in zip(_SLOTS, dims, _dims(header)):
        if value != want:
            raise ValueError("PLTT %s header slot %s is %d, must be %d"
                             % (kind, slot, value, want))
    return header, None if index is None else check_index(index, header)


def _filled(got, array):
    """``array``, if a read of ``got`` bytes filled it; else the truncated-payload ValueError."""
    if got != array.nbytes:
        raise ValueError("PLTT payload is truncated: read %d of %d bytes" % (got, array.nbytes))
    return array


class PlttReader:
    """
    An open PLTT file whose ``header`` is checked: a source, as the object
    it holds is, whose ``chunks`` read runs of camera pixels at their
    offsets and whose ``load`` reads the payload whole, both by positional
    reads (``os.preadv``). A sparse transport's file keeps its ``index``
    (None for a dense payload): its chunks are dense views filled from the
    index, as ``tensor.SparseTransport``'s, and its ``pairs`` read only the
    indexed blocks.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self.header, self.index = _read_header(self._fh)
        except BaseException:
            self._fh.close()
            raise
        self._start = _payload_start(self.index)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def buffer(self, shape):
        """A new array of ``shape``, to read ``chunks`` into."""
        return np.empty(shape, dtype="<f8")

    def _read(self, values, first):
        """``values`` filled by a positional read of the payload from its value ``first`` on."""
        if values.size:
            _filled(os.preadv(self._fh.fileno(), [values], self._start + 8 * first), values)
        return values

    def _finite(self, values):
        """
        ``values`` of the payload, if they are finite or not a transport's:
        a transport's NaN or inf fails as TransportTensor fails on the whole payload.
        """
        head = self.header
        if head.kind == "transport" and not np.isfinite(values).all():
            # a payload of more than 16 values shows only its shape in the message
            whole = (head.n_cam,) + head.record
            bad = values if values.shape == whole else np.broadcast_to(np.nan, whole)
            check_number(bad, "transport data", shape=TRANSPORT_SHAPE)
        return values

    def _blocks(self, lo, hi, out):
        """Blocks lo..hi of a sparse payload, read into the start of ``out`` or a new array."""
        block = self.header.record[1:]
        size = (hi - lo) * math.prod(block)
        flat = np.empty(size, dtype="<f8") if out is None else out.reshape(-1)[:size]
        return self._finite(self._read(flat, lo * math.prod(block))).reshape((hi - lo,) + block)

    def chunks(self, span=None, buf=None):
        """
        (first camera pixel, records) of the payload, a chunk at each first
        camera pixel of the range ``span`` (``tensor.chunk_starts`` by
        default) up to the next or the span's end, read into the leading
        rows of one ``buffer``, ``buf`` or a new one, so workers read their
        spans of one reader at once.
        """
        head = self.header
        span = chunk_starts(head) if span is None else span
        buf = self.buffer((span.step,) + head.record) if buf is None else buf
        if self.index is not None:
            yield from sparse_chunks(head, self.index, self._blocks, span, buf)
            return
        for start in span:
            yield start, self._finite(self._read(buf[:min(span.step, span.stop - start)],
                                                 start * math.prod(head.record)))

    def pairs(self, span, buf, mask):
        """A transport's pairs for ``CaptureKernel.run``: its indexed ones, or every one."""
        if self.index is None:
            return whole_pairs(self.chunks(span, buf), mask)
        return index_pairs(self.header, self.index, self._blocks, span, buf, mask)

    def load(self):
        """
        The dense object the file holds, its payload read into a new array:
        a dense payload by one positional read, which the object checks, a
        sparse one as one chunk.
        """
        head = self.header
        whole = self.buffer((head.n_cam,) + head.record)
        if self.index is None:
            return _KINDS[head.kind].of(head, self._read(whole, 0))
        (_, array), = self.chunks(range(0, head.n_cam, head.n_cam), whole)
        return TransportTensor.of(head, array)


def read_pltt(path):
    """
    Read a PLTT v1 file back into its in-memory object, or raise
    ValueError saying what is malformed.
    """
    with PlttReader(path) as src:
        return src.load()


# ---------------------------------------------------------------------------
# simple exports


def write_pgm(path, tiles):
    """
    Write an (n, h, w) stack of grayscale images as one 16-bit binary PGM
    (P5) of height n*h, the tiles top to bottom in stack order.

    Each tile is min/max normalized to the full range on its own; pass the
    raw arrays and record the ranges in a sidecar for exact reproduction.
    NaNs map to 0. Returns each tile's ``min``, ``max`` and ``nan_count``.
    """
    tiles = np.asarray(tiles, dtype=float)
    if tiles.ndim != 3:
        raise ValueError("PGM export needs an (n, h, w) stack, got %r" % (tiles.shape,))
    maxval = 65535
    finite = np.isfinite(tiles)
    scaled = np.zeros_like(tiles)
    ranges = []
    for tile, ok, out in zip(tiles, finite, scaled):
        lo = tile[ok].min() if ok.any() else 0.0
        hi = tile[ok].max() if ok.any() else 0.0
        span = hi - lo if hi > lo else 1.0
        out[ok] = (tile[ok] - lo) / span * maxval
        ranges.append({"min": float(lo), "max": float(hi), "nan_count": int((~ok).sum())})
    pix = np.round(scaled).astype(">u2")
    n, h, w = tiles.shape
    with open(path, "wb") as fh:
        fh.write(("P5\n%d %d\n%d\n" % (w, n * h, maxval)).encode("ascii"))
        fh.write(pix.tobytes())
    return ranges


def write_csv_grid(path, grid):
    """
    Write a 2D array as CSV with full float precision, byte for byte as
    ``np.savetxt(path, grid, fmt="%.17g", delimiter=",")`` writes it (a 1D
    array one value per line): one ``%`` fills a template of the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.ndim != 2:
        raise ValueError("Expected 1D or 2D array, got %dD array instead" % grid.ndim)
    rows, cols = grid.shape
    template = (",".join(["%.17g"] * cols) + "\n") * rows
    with open(path, "w") as fh:
        fh.write(template % tuple(grid.ravel().tolist()))
