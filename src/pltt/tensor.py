"""
Spatio-temporal polarimetric transport tensors, dense and block-sparse.

A transport tensor couples every projector pixel s' to every camera
pixel s through a 4x4 Mueller block resolved over time bins t. Storage
is a dense float array indexed ``(s, s', p, p', t)`` where p is the
outgoing (detected) Stokes component and p' the incoming (illumination)
one. Spatial indices are flattened row-major with the 2D shapes kept as
metadata.

Coaxial tensors sample only the s' = s diagonal; they store a projector
axis of length 1 with ``coaxial=True`` and the logical projector shape
equal to the camera shape.
A probe mask weights the (s, s') couplings in [0, 1] (O'Toole et al.,
"Primal-dual coding", SIGGRAPH 2012): a dense array or a ``probe_weights`` rule.

A ``Header`` is the one record of a layout and its stored values: a
TransportTensor, or an ``ellipsometry.MeasurementSet``, is its Header
plus its array, and a PLTT container stores the pair.

A ``SparseTransport`` stores only the blocks of its lit (s, s') pairs and
their sorted index: a light transport matrix is sparse (Sen et al., "Dual
photography", SIGGRAPH 2005; Peers et al., "Compressive light transport
sensing", ACM TOG 28(1), 2009), and a simulated truth couples only the
pixels its scene does.

A source, what the streamed operations read, is such an object or a
``fileio.PlttReader`` open on its container: each has its ``header``,
``chunks`` of its array over runs of camera pixels, dense even where only
the lit blocks are stored, ``buffer`` and ``load``, which gives the dense
object; a transport source also has ``pairs``, each chunk's (s, s')
pairs that capture multiplies and their blocks: a sparse source's indexed
pairs, a dense one's every pair.

Capture and reconstruction split the camera axis into spans and run them
on ``WORKERS`` threads (``run_spans``): numpy's generators, matmul and
einsum and the positional file reads and writes release the GIL.
"""

import concurrent.futures
import functools
import math
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np


# the shape a TransportTensor's data must have
TRANSPORT_SHAPE = (None, None, 4, 4, None)
# bytes of one buffer of camera pixels that a streamed operation fills at once,
# shared by the workers of ``run_spans``
CHUNK_BYTES = 1 << 21
# values of the record that one span of camera pixels holds, about: a span is
# the unit of work of ``run_spans`` and holds one noise stream of a capture
SPAN_VALUES = 1 << 20
# the threads of ``run_spans``: one per CPU this process may run on, so
# ``taskset`` caps them (PLTT_NUM_THREADS caps only the BLAS pools)
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _holds_bool(value):
    """Whether a list nests a bool, which np.asarray would turn into 0 or 1."""
    return isinstance(value, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) or _holds_bool(v) for v in value)


def check_number(value, name, low=-np.inf, high=np.inf, above=-np.inf, below=np.inf,
                 shape=(), integer=False):
    """
    ``value`` as a plain float (int when ``integer``), or as an array of them
    for a ``shape`` other than (), if it is finite numbers of that shape with
    low <= v <= high and above < v < below. A None in ``shape`` matches any
    length >= 1, and shape None any shape. Numpy scalars are accepted; a
    bool (also inside a list or as an array's dtype), a string, None, NaN,
    inf or a value out of range is a one-line ValueError naming ``name``,
    which shows an array of more than 16 values by its shape.
    """
    if shape == () and isinstance(value, (np.integer, np.floating)):
        value = value.item()
    if shape == () and type(value) is (int if integer else float):
        # plain numbers skip numpy: angle learning checks its sigma every step
        ok, arr = low <= value <= high and above < value < below, value
    else:
        try:
            arr = np.asarray(value)
        except ValueError:   # ragged nesting
            arr = np.asarray(None)
        ok = (arr.dtype.kind in ("iu" if integer else "iuf")
              and (shape is None or len(shape) == arr.ndim and all(
                  n == want or (want is None and n > 0) for n, want in zip(arr.shape, shape)))
              and not _holds_bool(value))
        if ok and arr.size:
            # the values pass when their least and greatest do, as plain numbers
            # would: NaN propagates to both, and the strict default bounds reject
            # inf. Two reductions, and no bool array of the values' size.
            lo, hi = arr.min(), arr.max()
            ok = bool(low <= lo and hi <= high and above < lo and hi < below)
    if not ok:
        ends = ["%s %g" % end for end in ((">=", low), (">", above), ("<=", high), ("<", below))
                if abs(end[1]) < np.inf]
        noun = "integer" if integer else "finite number"
        if ends == ["> 0"]:
            noun, ends = "positive " + noun, []
        if shape == ():
            what = ("an " if noun[0] == "i" else "a ") + noun
        elif shape is None or len(shape) > 1:
            what = noun + "s" + ("" if shape is None else " of shape %s" % (shape,))
        elif shape[0] is None:
            what = "a non-empty list of %ss" % noun
        else:
            what = "a list of %d %ss" % (shape[0], noun)
        got = ("an array of shape %s" % (np.shape(arr),) if np.size(arr) > 16
               else repr(value.tolist() if isinstance(value, np.ndarray) else value))
        raise ValueError("%s must be %s, got %s"
                         % (name, (what + " " + " and ".join(ends)).rstrip(), got))
    if shape != ():
        return arr.astype(int if integer else float, copy=False)
    return int(arr) if integer else float(arr)


def check_grid(grid, name):
    """A pixel grid as a (height, width) tuple, if it is two integers >= 1."""
    return tuple(check_number(grid, name, low=1, shape=(2,), integer=True).tolist())


@dataclass(frozen=True, eq=False)
class Header:
    """
    The one record of a layout and its stored parameters: a transport
    tensor's or a measurement set's kind, pixel grids, geometry, bin count
    and width, channel, provenance and noise model, and a measurement's
    schedule, noise sigma, seed and beamsplitter split. A TransportTensor or
    a MeasurementSet is its Header plus its array, and a PLTT container
    stores the same record (``fileio`` holds its byte form), so the per-chunk
    operations read a file's Header as they read a tensor's or a set's.

    Construction checks every value, and no other code does: each grid is
    two integers >= 1 (never a bool, float or string), ``coaxial`` is a bool
    (a numpy bool is stored as one) and a coaxial ``proj_shape`` equals
    ``cam_shape``, ``channel_id`` and ``provenance`` are strings,
    ``time_bin_width`` is above 0, ``noise_std`` is None or (4, 4) values
    >= 0, ``noise_sigma`` is >= 0, ``split`` lies in [0, 1] and ``seed`` is
    None or an integer >= 0. Headers compare by identity, as ``noise_std``
    and ``schedule`` hold arrays.
    """

    kind: str
    cam_shape: tuple
    proj_shape: tuple
    coaxial: bool
    n_bins: int
    time_bin_width: float
    channel_id: str = "mono"
    provenance: str = ""
    noise_std: np.ndarray = None
    schedule: object = None
    noise_sigma: float = 0.0
    seed: int = None
    split: float = 0.5

    def __post_init__(self):
        for name in ("cam_shape", "proj_shape"):
            object.__setattr__(self, name, check_grid(getattr(self, name), name))
        if not isinstance(self.coaxial, (bool, np.bool_)):
            raise ValueError("coaxial must be a bool, got %r" % (self.coaxial,))
        object.__setattr__(self, "coaxial", bool(self.coaxial))
        if self.coaxial and self.proj_shape != self.cam_shape:
            raise ValueError("coaxial tensors must have proj_shape equal to cam_shape")
        for name in ("channel_id", "provenance"):
            if not isinstance(getattr(self, name), str):
                raise ValueError("%s must be a string, got %r" % (name, getattr(self, name)))
        checks = [("time_bin_width", {"above": 0.0}), ("noise_sigma", {"low": 0.0}),
                  ("split", {"low": 0.0, "high": 1.0})]
        if self.noise_std is not None:
            checks.append(("noise_std", {"low": 0.0, "shape": (4, 4)}))
        if self.seed is not None:
            checks.append(("seed", {"low": 0, "integer": True}))
        for name, rule in checks:
            object.__setattr__(self, name, check_number(getattr(self, name), name, **rule))

    @property
    def n_cam(self):
        return math.prod(self.cam_shape)

    @property
    def n_proj(self):
        return math.prod(self.proj_shape)

    @property
    def record(self):
        """One camera pixel's array shape: (S_proj|1, 4, 4, n_bins) or (S_proj|1, K', n_bins)."""
        s_proj = 1 if self.coaxial else self.n_proj
        if self.kind == "transport":
            return s_proj, 4, 4, self.n_bins
        return s_proj, self.schedule.n_rows, self.n_bins

    def check_shape(self, shape):
        """Raise a ValueError naming the first axis of an array ``shape`` not the record's."""
        s_cam, s_proj, rows = shape[:3]
        if s_cam != self.n_cam:
            raise ValueError("camera axis %d does not match cam_shape %r" % (s_cam, self.cam_shape))
        if s_proj != self.record[0]:
            raise ValueError("projector axis %d does not match proj_shape %r (coaxial=%r)"
                             % (s_proj, self.proj_shape, self.coaxial))
        if rows != self.record[1]:     # a transport's data has 4 rows by its own check
            raise ValueError("row count %d does not match the schedule's %d"
                             % (rows, self.record[1]))


def chunk_pixels(n_cam, *records, workers=1):
    """
    Camera pixels per chunk: as many as keep a buffer of each per-pixel
    record shape in ``records`` within a ``workers``-th of ``CHUNK_BYTES``,
    at least 1 and at most ``n_cam``.
    """
    largest = 8 * max(math.prod(r) for r in records)
    return min(n_cam, max(1, CHUNK_BYTES // workers // largest))


def chunk_starts(head):
    """The first camera pixels of the chunks that one thread reads of a source of ``head``."""
    return range(0, head.n_cam, chunk_pixels(head.n_cam, head.record))


@functools.cache
def _pool(workers):
    """The pool of ``workers`` threads, made on first use and kept for the process."""
    return concurrent.futures.ThreadPoolExecutor(workers, thread_name_prefix="pltt-span")


def run_spans(n_cam, records, work, space):
    """
    Run ``work(j, span, ws)`` for each span j of ``n_cam`` camera pixels of
    the per-pixel record shapes ``records``: a span is a range of the first
    camera pixels of its chunks. Span j holds pixels j * P up to (j + 1) * P,
    P as many as hold ``SPAN_VALUES`` values of ``records[0]`` (at least 1),
    so the spans depend on the layout alone. The spans run on
    min(``WORKERS``, spans) threads of a pool kept for the process, the
    calling thread waiting, or in order on the calling thread when that is
    one. Each worker's chunks keep every record within its share of
    ``CHUNK_BYTES``, and ``space(step)`` makes the workspace of each worker
    for chunks of ``step`` pixels on the calling thread, so that no worker's
    allocator arena keeps a buffer. Spans start in order; once one
    fails no other starts, the running ones are waited for, and the error of
    the first failing span in span order is raised.
    """
    per_span = min(n_cam, max(1, SPAN_VALUES // math.prod(records[0])))
    firsts = range(0, n_cam, per_span)
    workers = min(WORKERS, len(firsts))
    step = chunk_pixels(per_span, *records, workers=workers)
    spans = [range(first, min(first + per_span, n_cam), step) for first in firsts]
    if workers == 1:
        ws = space(step)
        for j, span in enumerate(spans):
            work(j, span, ws)
        return
    todo, lock, stop, failed = iter(enumerate(spans)), threading.Lock(), threading.Event(), {}

    def worker(ws):
        while True:
            with lock:
                j, span = (None, None) if stop.is_set() else next(todo, (None, None))
            if span is None:
                return
            try:
                work(j, span, ws)
            except BaseException as exc:
                failed[j] = exc
                stop.set()

    spaces = [space(step) for _ in range(workers)]     # all of them before any span runs
    futures = [_pool(workers).submit(worker, ws) for ws in spaces]
    try:
        concurrent.futures.wait(futures)
    finally:    # an interrupt too starts no further span and waits for the running ones
        stop.set()
        concurrent.futures.wait(futures)
    for future in futures:
        future.result()
    if failed:
        raise failed[min(failed)]


class HeaderArray:
    """
    A checked ``Header`` plus the array it describes: the base of
    TransportTensor and MeasurementSet, frozen dataclasses whose first field
    is the array, whose other arguments are the Header fields of the same
    names and whose ``kind`` names their Header's. Each keeps its ``header``
    and, in those fields, its checked values; ``dataclasses.replace`` builds
    both again. As a source it streams as an open container of it does.
    """

    array = property(lambda self: getattr(self, fields(self)[0].name))
    n_cam = property(lambda self: self.header.n_cam)
    n_proj = property(lambda self: self.header.n_proj)
    n_bins = property(lambda self: self.header.n_bins)

    @classmethod
    def of(cls, header, array):
        """The object holding ``array`` with the values of ``header`` that it has fields for."""
        return cls(array, **{f.name: getattr(header, f.name) for f in fields(cls)[1:] if f.init})

    def chunks(self, span=None, buf=None):
        """(first camera pixel, view) chunks of the array, as ``PlttReader.chunks``."""
        span = chunk_starts(self.header) if span is None else span
        return ((start, self.array[start:min(start + span.step, span.stop)]) for start in span)

    def buffer(self, shape):
        """None: ``chunks`` views the array and reads into no buffer."""
        return None

    def load(self):
        """The object itself, as a container's ``load`` is the object it holds."""
        return self

    def _check_header(self, n_bins):
        """Check this object's Header values for ``n_bins`` bins, keep them checked; the Header."""
        names = [f.name for f in fields(self)[1:]
                 if f.init and f.name in Header.__dataclass_fields__]
        header = Header(self.kind, n_bins=n_bins, **{n: getattr(self, n) for n in names})
        object.__setattr__(self, "header", header)
        for name in names:
            object.__setattr__(self, name, getattr(header, name))
        return header


@dataclass(frozen=True)
class TransportTensor(HeaderArray):
    """
    Dense transport tensor: its ``header`` (``Header`` states and checks the
    layout and values) plus its data.

    data : ndarray, shape (S_cam, S_proj, 4, 4, n_bins)
        For coaxial tensors the projector axis has length 1 and holds
        the diagonal blocks T(s, s, ...).
    cam_shape, proj_shape : (height, width)
        Logical 2D pixel grids, flattened row-major.
    time_bin_width : float
        Seconds per bin.
    noise_std : ndarray, shape (4, 4), or None
        Standard deviation of the zero-mean noise on each block entry
        (p, p'), the same for every block, as estimated by the
        reconstruction that produced the tensor; None when the tensor
        has no noise model (simulated truth, probed tensors).
    provenance : str
        What made the tensor, stored with it in a container.

    ``data`` is kept as a read-only view of the checked array, so it stays
    finite; the caller's own array stays writeable.
    """

    kind = "transport"

    data: np.ndarray = field(repr=False)
    cam_shape: tuple
    proj_shape: tuple
    time_bin_width: float
    channel_id: str = "mono"
    coaxial: bool = False
    noise_std: np.ndarray = field(default=None, repr=False)
    provenance: str = ""
    header: Header = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = check_number(self.data, "transport data", shape=TRANSPORT_SHAPE).view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        self._check_header(data.shape[-1]).check_shape(data.shape)

    def pairs(self, span, buf, mask):
        """The pairs of each chunk that ``CaptureKernel.run`` multiplies: all (``whole_pairs``)."""
        return whole_pairs(self.chunks(span, buf), mask)


def whole_pairs(chunks, mask):
    """
    (first camera pixel, camera pixels, pairs, blocks) of each (first camera
    pixel, blocks) chunk of a dense transport source: every (s, s') pair of
    the chunk, numbered (s - first) * S_proj + s', and its (pairs, 16, T)
    blocks, weighted by their entries of the probe-mask rule ``mask`` if given.
    """
    for start, blocks in chunks:
        n, s_proj = blocks.shape[:2]
        if mask is not None:
            blocks = blocks * mask(start, n)[:, :, None, None, None]
        yield start, n, np.arange(n * s_proj), blocks.reshape(n * s_proj, 16, -1)
        del blocks      # a chunk's weighted blocks go before the next chunk's form


def check_index(index, head):
    """
    A sparse transport's (n, 2) index of (s, s') pairs (s' = 0 if coaxial) as
    int64, if it holds integers that name distinct pairs of the layout
    ``head`` in increasing (s, s') order; else a one-line ValueError.
    """
    index = np.asarray(index)
    s_proj = head.record[0]
    ok = index.ndim == 2 and index.shape[1] == 2 and index.dtype.kind in "iu"
    if ok and len(index):
        index = index.astype(np.int64)
        pairs = index[:, 0] * s_proj + index[:, 1]
        ok = bool(index.min() >= 0 and index[:, 0].max() < head.n_cam
                  and index[:, 1].max() < s_proj and (np.diff(pairs) > 0).all())
    if not ok:
        raise ValueError("a sparse transport index must hold distinct (s, s') pairs of its %d "
                         "camera and %d projector pixels in increasing order"
                         % (head.n_cam, s_proj))
    return index.astype(np.int64)


def sparse_chunks(head, index, read, span, buf):
    """
    (first camera pixel, dense view) chunks of a block-sparse transport of
    layout ``head``, as ``HeaderArray.chunks`` (``span`` None reads them all):
    each chunk of ``buf`` (or a new buffer) holds zeros but at the pairs of
    ``index``, where it holds their blocks, ``read(lo, hi, None)`` giving
    blocks lo..hi of the index order.
    """
    span = chunk_starts(head) if span is None else span
    buf = np.empty((span.step,) + head.record) if buf is None else buf
    rows, s_proj = index[:, 0], head.record[0]
    for start in span:
        n = min(span.step, span.stop - start)
        lo, hi = rows.searchsorted((start, start + n))
        chunk = buf[:n]
        chunk.fill(0.0)
        pairs = chunk.reshape((n * s_proj,) + head.record[1:])
        pairs[(rows[lo:hi] - start) * s_proj + index[lo:hi, 1]] = read(lo, hi, None)
        yield start, chunk


def index_pairs(head, index, read, span, buf, mask):
    """
    The chunks of ``whole_pairs`` of a block-sparse transport, read from its
    index: a chunk's pairs are only its indexed ones, in index order, and its
    blocks only theirs, ``read(lo, hi, buf)``; ``mask`` weights them as it
    weights dense blocks. No other pair's block is read or formed.
    """
    rows, s_proj, n_bins = index[:, 0], head.record[0], head.n_bins
    for start in span:
        n = min(span.step, span.stop - start)
        lo, hi = rows.searchsorted((start, start + n))
        blocks = read(lo, hi, buf).reshape(hi - lo, 16, n_bins)
        s, x = rows[lo:hi] - start, index[lo:hi, 1]
        if mask is not None:
            blocks = blocks * mask(start, n)[s, x][:, None, None]
        yield start, n, s * s_proj + x, blocks
        del blocks


@dataclass(frozen=True)
class SparseTransport(HeaderArray):
    """
    Block-sparse transport tensor: its ``header`` plus the (n, 4, 4, n_bins)
    ``blocks`` of its lit (s, s') pairs and their (n, 2) ``index`` (s' = 0 if
    coaxial), distinct and in increasing (s, s') order (``check_index``);
    every other block is zero. The other fields are TransportTensor's.

    As a source it is its dense ``load()``: ``chunks`` yields the same dense
    chunks, each filled from the index into a ``buffer``, and every streamed
    operation gives the same bytes on either; ``pairs`` forms only the
    indexed blocks. ``data`` is the dense array, built on first access and kept, for
    the callers that index a tensor's array; no streamed operation reads it.
    ``blocks`` and ``index`` are read-only views of their checked arrays.
    """

    kind = "transport"

    blocks: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    cam_shape: tuple
    proj_shape: tuple
    time_bin_width: float
    channel_id: str = "mono"
    coaxial: bool = False
    noise_std: np.ndarray = field(default=None, repr=False)
    provenance: str = ""
    header: Header = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = check_number(self.blocks, "transport blocks", shape=None).view()
        if blocks.ndim != 4 or blocks.shape[1:3] != (4, 4) or not blocks.shape[3]:
            raise ValueError("transport blocks must have shape (n, 4, 4, n_bins), got %r"
                             % (blocks.shape,))
        index = check_index(self.index, self._check_header(blocks.shape[3]))
        if len(index) != len(blocks):
            raise ValueError("a sparse transport index of %d pairs cannot place %d blocks"
                             % (len(index), len(blocks)))
        for name, array in (("blocks", blocks), ("index", index)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _read(self, lo, hi, out):
        return self.blocks[lo:hi]

    def chunks(self, span=None, buf=None):
        """(first camera pixel, dense view) chunks, as its ``load()``'s (``sparse_chunks``)."""
        return sparse_chunks(self.header, self.index, self._read, span, buf)

    def buffer(self, shape):
        """A new array of ``shape``, to fill ``chunks`` in."""
        return np.empty(shape)

    def pairs(self, span, buf, mask):
        """The indexed pairs of each chunk and their blocks (``index_pairs``)."""
        return index_pairs(self.header, self.index, self._read, span, buf, mask)

    def load(self):
        """The dense TransportTensor: zeros, and the blocks at their pairs."""
        head = self.header
        (_, data), = self.chunks(range(0, head.n_cam, head.n_cam),
                                 self.buffer((head.n_cam,) + head.record))
        return TransportTensor.of(head, data)

    @functools.cached_property
    def data(self):
        """The dense array, as ``load()`` holds it."""
        return self.load().data


@dataclass(frozen=True)
class IlluminationTensor:
    """Per-projector-pixel Stokes vectors, optionally time-resolved.

    data is (S_proj, 4) for steady illumination or (S_proj, 4, n_bins)
    for pulsed illumination (then time_bin_width must be set).
    """

    data: np.ndarray = field(repr=False)
    proj_shape: tuple
    time_bin_width: float = None

    def __post_init__(self):
        object.__setattr__(self, "proj_shape", check_grid(self.proj_shape, "proj_shape"))
        shape = (math.prod(self.proj_shape), 4) + (None,) * (np.ndim(self.data) == 3)
        data = check_number(self.data, "illumination data", shape=shape)
        object.__setattr__(self, "data", data)
        if data.ndim == 3 and self.time_bin_width is None:
            raise ValueError("time-resolved illumination needs a time_bin_width")
        if self.time_bin_width is not None:
            object.__setattr__(self, "time_bin_width",
                               check_number(self.time_bin_width, "time_bin_width", above=0.0))

    @property
    def has_time(self):
        return self.data.ndim == 3


@dataclass(frozen=True)
class DetectedTensor:
    """Per-camera-pixel detected Stokes vectors over time bins: (S_cam, 4, n_bins)."""

    data: np.ndarray = field(repr=False)
    cam_shape: tuple
    time_bin_width: float

    def __post_init__(self):
        object.__setattr__(self, "cam_shape", check_grid(self.cam_shape, "cam_shape"))
        object.__setattr__(self, "data", check_number(
            self.data, "detected data", shape=(math.prod(self.cam_shape), 4, None)))
        object.__setattr__(self, "time_bin_width",
                           check_number(self.time_bin_width, "time_bin_width", above=0.0))


# ---------------------------------------------------------------------------
# operations


def _apply_stokes(tensor, pattern):
    """
    sum_{s', p'} T(s, s', p, p', t) P(s', p') for a (S_proj, 4) pattern P;
    coaxial tensors use only the s' = s diagonal.
    """
    if tensor.coaxial:
        return np.einsum("spqt,sq->spt", tensor.data[:, 0], pattern)
    return np.einsum("sxpqt,xq->spt", tensor.data, pattern)


def contract(tensor, illum):
    """
    Contract a transport tensor with steady illumination.

    I(s, p, t) = sum_{s', p'} T(s, s', p, p', t) P(s', p')

    For coaxial tensors only the diagonal s' = s contributes.
    """
    if illum.has_time:
        raise ValueError("contract needs steady illumination; use convolve_time")
    if illum.proj_shape != tensor.proj_shape:
        raise ValueError("illumination grid %r does not match tensor projector grid %r"
                         % (illum.proj_shape, tensor.proj_shape))
    return DetectedTensor(_apply_stokes(tensor, illum.data), tensor.cam_shape,
                          tensor.time_bin_width)


def convolve_time(tensor, illum):
    """
    Contract with pulsed illumination by temporal convolution.

    I(s, p, t) = sum_{s', p', t'} T(s, s', p, p', t - t') P(s', p', t')

    Zero-padded and non-circular; the output keeps the tensor's bin
    count, so energy past the last bin is truncated.
    """
    if not illum.has_time:
        raise ValueError("convolve_time needs time-resolved illumination; use contract")
    if illum.proj_shape != tensor.proj_shape:
        raise ValueError("illumination grid %r does not match tensor projector grid %r"
                         % (illum.proj_shape, tensor.proj_shape))
    if illum.time_bin_width != tensor.time_bin_width:
        raise ValueError("time bin widths differ: tensor %r vs illumination %r"
                         % (tensor.time_bin_width, illum.time_bin_width))
    n_bins = tensor.n_bins
    out = np.zeros((tensor.n_cam, 4, n_bins))
    for t_in in range(min(illum.data.shape[2], n_bins)):
        # contract the full tensor, then shift-and-truncate: keeping the
        # einsum shape fixed per iteration makes delaying the pulse by a
        # bin shift the output bitwise-exactly
        part = _apply_stokes(tensor, illum.data[:, :, t_in])
        out[:, :, t_in:] += part[:, :, :n_bins - t_in]
    return DetectedTensor(out, tensor.cam_shape, tensor.time_bin_width)


def slice_spatial(tensor):
    """Spatial transport matrix: sum over time of the (p=0, p'=0) entry."""
    return tensor.data[:, :, 0, 0, :].sum(axis=2)


def slice_temporal(tensor, s=None, s_prime=None):
    """
    Temporal profile of the (p=0, p'=0) entry.

    With no indices, sums over all pixel pairs (the backward-compatible
    aggregate); with indices, returns the single-pair profile. For
    coaxial tensors ``s_prime`` must be omitted or equal ``s``.
    """
    if s is None and s_prime is None:
        return tensor.data[:, :, 0, 0, :].sum(axis=(0, 1))
    if s is None:
        raise ValueError("s must be given when s_prime is")
    s = check_number(s, "s", low=0, high=tensor.n_cam - 1, integer=True)
    if s_prime is not None:
        s_prime = check_number(s_prime, "s_prime", low=0, high=tensor.n_proj - 1, integer=True)
    if tensor.coaxial:
        if s_prime not in (None, s):
            raise ValueError("coaxial tensors only hold the s' = s diagonal")
        return tensor.data[s, 0, 0, 0, :]
    if s_prime is None:
        return tensor.data[s, :, 0, 0, :].sum(axis=0)
    return tensor.data[s, s_prime, 0, 0, :]


def slice_polarimetric(tensor):
    """Aggregate Mueller block: sum over pixels, pixel pairs, and time."""
    return tensor.data.sum(axis=(0, 1, 4))


def probe_weights(tensor, mask):
    """
    A probe mask of ``tensor`` (a tensor or a container Header), which takes
    none if coaxial, as its rule ``rows(start, n)``: the (n, S_proj) weights of
    camera pixels start..start + n, finite and in [0, 1] (bools weigh 0 and 1):
    a dense (S_cam, S_proj) array is checked once and sliced, a rule each call.
    """
    if tensor.coaxial:
        raise ValueError("cannot probe a coaxial tensor: masks require projector_camera geometry")

    def checked(weight, n):
        weight = np.asarray(weight)
        return check_number(weight.astype(float) if weight.dtype == bool else weight,
                            "probe mask (weights in [0, 1])", low=0.0, high=1.0,
                            shape=(n, tensor.n_proj))

    if callable(mask):
        return lambda start, n: checked(mask(start, n), n)
    weight = checked(mask, tensor.n_cam)
    return lambda start, n: weight[start:start + n]


def probe(tensor, mask):
    """
    Keep only the pixel couplings selected by a probe mask (``probe_weights``).

    T'(s, s', ...) = mask[s, s'] T(s, s', ...)
    """
    data = tensor.data * probe_weights(tensor, mask)(0, tensor.n_cam)[:, :, None, None, None]
    return TransportTensor(data, tensor.cam_shape, tensor.proj_shape,
                           tensor.time_bin_width, tensor.channel_id, False)


def fold(source, mask=None):
    """
    F(s, 0, p, p', t) = sum_{s'} mask[s, s'] T(s, s', p, p', t), with proj_shape (1, 1),
    of a transport source: a TransportTensor or an open container of one.

    ``mask`` is a probe mask of a projector-camera source, checked by
    ``probe_weights`` before any block is read: a dense (S_cam, S_proj) array
    or a rule ``rows(start, n)``, such as the identity's or ``epipolar_rows``'.
    A coaxial tensor, whose only s' is s, is its own fold, ``source.load()``
    (an in-memory tensor itself, a file's payload read once), and takes no
    mask. Without a mask the sum of S_proj independent noises has
    sqrt(S_proj) times their std; a masked fold carries no noise model.
    Besides its (S_cam, 1, 4, 4, T) output the fold holds one chunk of
    blocks, and of mask rows, at a time. A masked chunk multiplies only the
    columns from the first to the last its rows weight: a diagonal or one-hot
    fold's cost is a chunk's width per camera pixel, not S_proj.
    """
    head = source.header
    if mask is None and head.coaxial:
        return source.load()
    rows = None if mask is None else probe_weights(head, mask)

    def operands(start, blocks):
        if rows is None:
            return np.ones((len(blocks), head.n_proj)), blocks
        weight = rows(start, len(blocks))
        cols = np.flatnonzero(weight.any(axis=0))
        span = slice(cols[0], cols[-1] + 1) if cols.size else slice(0, 0)
        return weight[:, span], blocks[:, span]

    data = np.empty((head.n_cam, 1, 4, 4, head.n_bins))
    for start, blocks in source.chunks():
        # each pixel's sum runs over s' in order, dropping only zero weights, so
        # chunks and spans change no bit; a chunk's rows go before the next's
        np.einsum("sx,sxpqt->spqt", *operands(start, blocks),
                  out=data[start:start + len(blocks), 0])
    std = None
    if mask is None and head.noise_std is not None:
        std = head.noise_std * np.sqrt(head.n_proj)
    return TransportTensor(data, head.cam_shape, (1, 1), head.time_bin_width, head.channel_id,
                           False, std)


def epipolar_rows(cam_shape, proj_shape):
    """
    Complementary (epipolar, non-epipolar) probe-mask rules ``rows(start, n)``
    for rectified row-aligned camera and projector grids.

    Camera row i couples only to projector row i in the epipolar mask;
    the non-epipolar mask holds exactly the complementary couplings, so
    the two probes partition any tensor.
    """
    cam_h, cam_w = check_grid(cam_shape, "cam_shape")
    proj_h, proj_w = check_grid(proj_shape, "proj_shape")
    if cam_h != proj_h:
        raise ValueError("rectified geometry needs equal row counts, got %d vs %d"
                         % (cam_h, proj_h))
    proj_row = np.arange(proj_h * proj_w) // proj_w
    epi = lambda start, n: (np.arange(start, start + n)[:, None] // cam_w == proj_row) * 1.0
    return epi, lambda start, n: 1.0 - epi(start, n)


def epipolar_masks(cam_shape, proj_shape):
    """The dense (S_cam, S_proj) arrays of the ``epipolar_rows`` pair."""
    return tuple(rows(0, math.prod(cam_shape)) for rows in epipolar_rows(cam_shape, proj_shape))
