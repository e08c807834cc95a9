"""File ingestion and artifact output.

Feature views are CSV with rows = feature dimensions and columns =
instances; dissimilarity matrices are square CSV.  ``dataset_files`` owns
the dataset layout that ``robustmv synth`` and the recipes write:
ground-truth files first, then ``view1.csv``, ``view2.csv``, ... and
``labels.csv``.  The CSV reader runs numpy's C parser and falls back to a
line-by-line parser only to report exactly where a file is malformed.
Writers use full-precision ``%.17g`` so a write/read round trip is exact;
``write_matrix_csv`` formats each value of a symmetric matrix near its
diagonal once and writes the same bytes as ``np.savetxt`` would.

One fork helper, ``_forked``, spreads independent work across the usable
cores: the calling process does one share, forked children do the others
and hand their parts back in unnamed temporary files.  It serves three
callers.  A large file is read in contiguous byte ranges, one per core,
the calling process taking the first.  A run's matrices are written in one
call: their row blocks are laid end to end and cut into ranges of about
equal numbers of cells, one per core, so two equal views on two cores go
whole, one to each process, while a single large matrix is split by rows.
``fork_map`` runs a recipe's independent fits, every k-th item to one
process, and the children pickle their results; it maps concurrently only
when BLAS runs one thread, since k processes of multi-threaded BLAS would
oversubscribe the cores.  In every case a failed part makes the caller redo
the whole call in-process, so results and errors do not depend on the
split.

Each file's sha256 is taken where its bytes are already in hand.  A writer
process hashes each file its range holds whole as it writes it, and the
calling process hashes every other file from the parts it writes and
appends; a read asked for its digest hashes the file in the calling
process while the workers parse their ranges.  ``write_run`` hashes only
the inputs it neither wrote nor was handed a digest for.

JSON artifacts are strict JSON: a NaN or infinity in one is an error, not
a ``NaN`` token.  ``write_run`` is the one writer of a run's output
directory: every CLI command and recipe hands it its artifacts and its
``run.json`` record.
"""

import contextlib
import hashlib
import json
import os
import pickle
import signal
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .embedding import DissimilarityViews
from .features import MultiViewFeatureSet
from .trace import SolverTrace

__all__ = [
    "fork_map",
    "read_matrix_csv",
    "write_matrix_csv",
    "dataset_files",
    "read_labels",
    "write_labels",
    "ingest_features",
    "ingest_uci_directory",
    "ingest_dissimilarities",
    "write_json",
    "write_run",
    "write_trace_csv",
    "file_sha256",
]

_FMT = "%.17g"
# The symmetric writer works in blocks of _BLOCK rows and tiles of _BLOCK
# columns, and keeps the tiles of the next _BAND column blocks past the
# diagonal: about (_BAND * _BLOCK)**2 / 2 formatted cells at most, whatever N.
_BLOCK = 64
_BAND = 8
# A matrix is split across processes only when every part formats at least
# _SPLIT_CELLS cells (writer) or parses at least _SPLIT_BYTES bytes (reader):
# about 0.1 s of work at either size, far more than a fork costs.
_SPLIT_CELLS = 1 << 18
_SPLIT_BYTES = 1 << 22


def read_matrix_csv(path, delimiter=",", digest=False):
    """Parse a numeric matrix, one row per non-blank line.

    Cells are split on ``delimiter`` (``None``: runs of whitespace) and may
    carry surrounding whitespace; blank lines, and lines of whitespace
    alone, are skipped and ``nan``, ``inf`` and ``-inf`` cells are
    accepted.  ``#`` comment lines, empty cells, ragged rows and files
    without a data row are rejected.  numpy's C parser reads the file;
    whatever it refuses is parsed again line by line, so every error names
    the file, the line and, for a bad cell, the column.  A large file is
    parsed in byte ranges that end at a newline, one per usable core; the
    workers write their rows to temporary files in the default temporary
    directory, and the parts are stacked.  A part that is refused, holds no
    row, is cut short or disagrees with the first on width makes the whole
    file be read again in-process.  With ``digest=True`` the result is
    ``(matrix, sha256 hex digest of the file)``; the calling process hashes
    the file once it has parsed its own range, while the workers parse
    theirs.
    """
    path = Path(path)
    if not path.is_file():
        problem = "is not a file" if path.exists() else "missing input file"
        raise ValueError(f"{problem}: {path}")
    parts = _part_count(path.stat().st_size, _SPLIT_BYTES)
    read = _read_parts(path, delimiter, parts, digest)
    if read is None and parts > 1:
        read = _read_parts(path, delimiter, 1, digest)
    if read is None:
        read = _read_matrix_lines(path, delimiter), (file_sha256(path) if digest else None)
    return read if digest else read[0]


def _workers():
    # Processes a large CSV is split across, and at most as many for
    # fork_map: the usable cores, or 1 where fork is missing or another
    # Python thread runs (a fork copies only the calling thread).
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fit_workers():
    # Processes fork_map spreads its items across: _workers() when BLAS is
    # pinned to one thread (OpenBLAS reads OPENBLAS_NUM_THREADS before
    # OMP_NUM_THREADS), else 1.
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return _workers() if blas == "1" else 1


def _part_count(size, minimum):
    # Parts for work of ``size``: one per worker, each at least ``minimum``.
    return max(1, min(_workers(), size // minimum))


@contextlib.contextmanager
def _forked(work, tasks, directory=None):
    """Run ``work(fd, *task)`` for each task in a forked child; yield ``collect``.

    Each child gets its own unnamed temporary file in ``directory`` (the
    default temporary directory when None), open as ``fd``, and writes its
    part there.  It leaves through ``os._exit`` (status 0 when ``work``
    returned), so it never flushes the stdio buffers it inherited or runs
    exit handlers.  ``collect()`` reaps every child and returns their files,
    rewound, in the order of ``tasks``, or None when a child failed.  When
    no temporary file or process could be had for some task, the block gets
    None in place of ``collect`` and should return at once: its own share
    is no longer wanted.  Leaving the block kills the children still
    running, whose parts are no longer wanted, reaps them and closes the
    files.
    """
    pids, files = [], []

    def collect():
        statuses = [os.waitpid(pids.pop(), 0)[1] for _ in range(len(pids))]
        if any(statuses):
            return None
        for spill in files:
            spill.seek(0)
        return files

    with contextlib.ExitStack() as spills:
        try:
            with contextlib.suppress(OSError):  # no temporary file or process to be had
                for task in tasks:
                    spill = spills.enter_context(tempfile.TemporaryFile(dir=directory))
                    pid = os.fork()
                    if pid == 0:
                        try:
                            work(spill.fileno(), *task)
                            os._exit(0)
                        finally:
                            os._exit(1)
                    pids.append(pid)
                    files.append(spill)
            yield collect if len(pids) == len(tasks) else None
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            collect()


def fork_map(fn, items):
    """``[fn(x) for x in items]``, the items shared across the usable cores.

    With k workers the calling process maps items 0, k, 2k, ... and forked
    children the shares that start at items 1 to k - 1; each child pickles
    its results into its temporary file.  Interleaved shares balance a
    lineup whose slow fits come first.  k is ``_fit_workers()``: above 1
    only when BLAS runs one thread, fork exists, no other Python thread
    runs and more than one core is usable.  A child that fails or cannot be
    started, a part that cannot be read back, or an exception in the
    caller's own share makes the whole map run again in-process, so the
    results and the first error are those of the plain list comprehension.
    """
    items = list(items)
    k = min(_fit_workers(), len(items))
    if k > 1:
        with contextlib.suppress(Exception):  # any failure: redone below, where it surfaces
            if (results := _map_shares(fn, items, k)) is not None:
                return results
    return [fn(x) for x in items]


def _map_shares(fn, items, k):
    # fork_map's k interleaved shares, all but the first in forked children;
    # None when a child failed or could not be started.
    results = [None] * len(items)
    with _forked(_send_results, [(fn, items[j::k]) for j in range(1, k)]) as collect:
        if collect is None:
            return None
        results[::k] = [fn(x) for x in items[::k]]
        spills = collect()
        if spills is None:
            return None
        for j, spill in enumerate(spills, start=1):
            results[j::k] = pickle.load(spill)
    return results


def _send_results(fd, fn, share):
    # A fork_map worker: its share's results, pickled into the temporary
    # file ``fd``, left open.
    with open(fd, "wb", closefd=False) as out:
        pickle.dump([fn(x) for x in share], out, protocol=pickle.HIGHEST_PROTOCOL)


def _read_parts(path, delimiter, parts, digest):
    # (array, sha256 hex or None) of the file parsed in ``parts`` byte
    # ranges, all but the first in forked workers; None when a part is
    # refused, holds no row, is cut short or has another width than the
    # first.  The digest, when asked for, is taken while the workers parse.
    bounds = _line_bounds(path, parts)
    tasks = [(path, delimiter, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    with _forked(_send_part, tasks) as collect:
        if collect is None:
            return None
        first = _load(_byte_lines(path, *bounds[:2]), delimiter)
        if first is None:
            return None
        sha = file_sha256(path) if digest else None
        if (spills := collect()) is None:
            return None
        if not spills:
            return first, sha
        shapes = np.zeros((len(spills), 2), dtype=np.int64)  # a header cut short has width 0
        for spill, shape in zip(spills, shapes):
            spill.readinto(shape)
        if np.any(shapes[:, 1] != first.shape[1]):
            return None
        ends = np.cumsum([len(first), *shapes[:, 0]])
        data = np.empty((ends[-1], first.shape[1]))
        blocks = np.split(data, ends[:-1])
        blocks[0][...] = first
        del first
        for spill, block in zip(spills, blocks[1:]):
            if spill.readinto(block) < block.nbytes:
                return None
    return data, sha


def _line_bounds(path, parts):
    # Byte offsets 0 < ... < size that cut the file into about equal ranges,
    # each of them ending just after a newline.
    size = path.stat().st_size
    bounds = [0]
    with open(path, "rb") as fh:
        for j in range(1, parts):
            fh.seek(max(j * size // parts - 1, bounds[-1]))
            while (piece := fh.readline(1 << 16)) and not piece.endswith(b"\n"):
                pass
            if bounds[-1] < fh.tell() < size:
                bounds.append(fh.tell())
    return [*bounds, size]


def _byte_lines(path, start, end):
    # The lines in bytes [start, end) of the file, which begin and end there,
    # without those of whitespace alone: np.loadtxt refuses a line such as
    # " ", which the line parser skips as blank.
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < end and (line := fh.readline(end - start)):
            start += len(line)
            if line.strip():
                yield line


def _load(source, delimiter):
    # np.loadtxt of byte lines; None when it refuses them or finds no data.
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            data = np.loadtxt(
                source, delimiter=delimiter, comments=None, ndmin=2, encoding="utf-8"
            )
    except ValueError:
        return None
    return data if data.size else None


def _send_part(fd, path, delimiter, start, end):
    # A reader worker: parse bytes [start, end) and write the shape, then the
    # values, to the temporary file ``fd``, left open.  It writes nothing
    # when it finds no data or is refused.
    with open(fd, "wb", closefd=False) as out:
        data = _load(_byte_lines(path, start, end), delimiter)
        if data is not None:
            out.write(np.array(data.shape, dtype=np.int64))
            out.write(np.ascontiguousarray(data))


def _read_matrix_lines(path, delimiter):
    # The reference parser: read_matrix_csv's result on every file it accepts,
    # and the source of its file:line[:column] messages.
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(delimiter) if delimiter else line.split()
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(i for i, c in enumerate(cells, start=1) if not _is_float(c))
                raise ValueError(
                    f"{path}:{lineno}: non-numeric value in column {bad}"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_matrix_csv(path, matrix):
    """Write a 1-D or 2-D array as CSV, one ``%.17g`` line per row.

    The file is byte-identical to ``np.savetxt(path, matrix, fmt="%.17g",
    delimiter=",")``.  A square matrix that equals its transpose bit for bit
    (so ``-0.0`` against ``0.0``, or two NaN payloads, make it asymmetric)
    is written with each cell in a band beside the diagonal formatted once:
    each block of rows formats its diagonal tile and the tiles of the next
    few column blocks, and keeps the latter to transpose into those blocks'
    rows.  Cells outside the band, on either side, are formatted one call
    per row, so the kept text stays a few MB whatever the matrix size.  This
    is the one-file case of the writer ``write_run`` gives all of a run's
    matrices to, which splits a large matrix across the usable cores by
    rows.
    """
    _write_matrices({path: matrix})


def _write_matrices(files):
    # Write {path: array} as CSV and return {path: sha256 hex}.  The files'
    # row blocks are laid end to end and cut into ranges of about equal
    # numbers of cells, one per usable core, so equal matrices go whole to
    # separate processes and a single large one is split by rows.
    if not files:
        return {}
    runs = []  # (path, matrix, whether it is symmetric, row blocks)
    for path, array in files.items():
        m = np.atleast_2d(np.asarray(array, dtype=float))
        runs.append((Path(path), m, _is_symmetric(m), max(1, -(-len(m) // _BLOCK))))
    parts = _part_count(sum(m.size for _, m, _, _ in runs), _SPLIT_CELLS)
    digests = _write_parts(runs, parts)
    return _write_parts(runs, 1) if digests is None else digests


def _ranges(files, parts):
    # Up to ``parts`` ranges of the files' row blocks laid end to end, cut
    # at the first block boundary at or past each equal share of the cells;
    # each range is its segments (file index, first block, end block).
    blocks = [(f, b) for f, (_, _, _, count) in enumerate(files) for b in range(count)]
    cells = np.cumsum([0] + [files[f][1][b * _BLOCK:(b + 1) * _BLOCK].size for f, b in blocks])
    cuts = np.searchsorted(cells, cells[-1] * np.arange(1, parts) / parts)
    bounds = sorted({0, *cuts.tolist(), len(blocks)})
    ranges = []
    for lo, hi in zip(bounds, bounds[1:]):
        segments = {}
        for f, b in blocks[lo:hi]:
            segments.setdefault(f, []).append(b)
        ranges.append([(f, b[0], b[-1] + 1) for f, b in segments.items()])
    return ranges


# A writer worker's temporary file starts with one record per segment of its
# range: the bytes its part of a file takes there, or the sha256 of a file it
# wrote whole.
_HEADER = np.dtype([("size", "<i8"), ("sha256", "S64")])


def _write_parts(files, parts):
    # Write the files in _ranges(files, parts), all but the first range in
    # forked workers, whose temporary files in the first file's directory
    # carry the parts of the files that ranges share, appended here in
    # order; {path: sha256 hex}, or None when a worker failed or could not
    # be started.
    ranges = _ranges(files, parts)
    digests, own = {}, {}  # own: file index -> (open file, sha256) this process writes
    with contextlib.ExitStack() as stack:
        tasks = [(files, segments) for segments in ranges[1:]]
        collect = stack.enter_context(_forked(_spill, tasks, files[0][0].parent))
        if collect is None:
            return None
        for f, lo, hi in ranges[0]:
            fh, sha = stack.enter_context(open(files[f][0], "wb")), hashlib.sha256()
            _emit(fh, _segment_lines(files[f], lo, hi), sha)
            own[f] = fh, sha
        spills = collect()
        if spills is None:
            return None
        for spill, segments in zip(spills, ranges[1:]):
            head = np.zeros(len(segments), _HEADER)
            if spill.readinto(head.view(np.uint8)) < head.nbytes:
                return None
            for (f, lo, hi), (size, sha256) in zip(segments, head.tolist()):
                if (lo, hi) == (0, files[f][3]):
                    digests[files[f][0]] = sha256.decode()
                    continue
                if f not in own:
                    own[f] = stack.enter_context(open(files[f][0], "wb")), hashlib.sha256()
                if not _append(spill, *own[f], size):
                    return None
        for f, (_, sha) in own.items():
            digests[files[f][0]] = sha.hexdigest()
    return digests


def _spill(fd, files, segments):
    # A writer worker: each file its range holds whole goes to its path, and
    # the rest to the temporary file ``fd``, left open, after the header.
    head = np.zeros(len(segments), _HEADER)
    with open(fd, "wb", closefd=False) as out:
        out.seek(head.nbytes)
        for (f, lo, hi), record in zip(segments, head):
            if (lo, hi) == (0, files[f][3]):
                with open(files[f][0], "wb") as fh:
                    sha = hashlib.sha256()
                    _emit(fh, _segment_lines(files[f], lo, hi), sha)
                record["sha256"] = sha.hexdigest()
            else:
                record["size"] = _emit(out, _segment_lines(files[f], lo, hi))
        out.seek(0)
        out.write(head.tobytes())


def _segment_lines(file, lo, hi):
    # The lines of row blocks [lo, hi) of one of _write_matrices' files.
    _, matrix, symmetric, _ = file
    return (_symmetric_lines if symmetric else _row_lines)(matrix, lo, hi)


def _emit(out, lines, sha=None):
    # Write each line and a newline to the binary file ``out``, feeding
    # ``sha`` when given; returns the bytes written.
    size = 0
    for line in lines:
        data = (line + "\n").encode()
        if sha is not None:
            sha.update(data)
        size += out.write(data)
    return size


def _append(spill, out, sha, size):
    # Copy the next ``size`` bytes of ``spill`` to ``out``, feeding ``sha``;
    # False when the spill holds fewer.
    while size:
        chunk = spill.read(min(size, 1 << 20))
        if not chunk:
            return False
        sha.update(chunk)
        out.write(chunk)
        size -= len(chunk)
    return True


def _row_lines(matrix, lo, hi):
    # The lines of row blocks [lo, hi).
    for i in range(lo * _BLOCK, min(hi * _BLOCK, len(matrix)), _BLOCK):
        yield from _lines(matrix[i:i + _BLOCK])


def _lines(block):
    # Each row of a 2-D block as its CSV line, without the newline.
    fmt = ",".join([_FMT] * block.shape[1])
    return [fmt % tuple(row) for row in block.tolist()]


def _is_symmetric(matrix):
    n = matrix.shape[0]
    if matrix.shape[1] != n:
        return False
    # Bitwise, so -0.0 against 0.0 or two NaN payloads count as asymmetric.
    bits = matrix.view(np.uint64)
    return all(
        np.array_equal(bits[i:i + _BLOCK], bits[:, i:i + _BLOCK].T) for i in range(0, n, _BLOCK)
    )


def _symmetric_lines(matrix, lo, hi):
    # The lines of row blocks [lo, hi).  Row block b formats its diagonal
    # tile and the tiles of the next _BAND column blocks c, which it keeps in
    # kept[c] when c < hi: transposed, they are the cells of block c's rows
    # left of its diagonal tile.  Cells beyond the band, on either side, and
    # cells left of the band's part that lies in the range (blocks before
    # lo keep nothing here) are formatted in one call per row.
    n = len(matrix)
    count = -(-n // _BLOCK)
    kept = {b: [] for b in range(lo, hi)}
    for b in range(lo, hi):
        stripe = matrix[b * _BLOCK:(b + 1) * _BLOCK]
        tiles = [
            [",".join(cells) for cells in zip(*[line.split(",") for line in tile])]
            for tile in kept.pop(b)
        ]
        for c in range(b, min(b + _BAND + 1, count)):
            tiles.append(_lines(stripe[:, c * _BLOCK:(c + 1) * _BLOCK]))
            if b < c < hi:
                kept[c].append(tiles[-1])
        left, right = max(b - _BAND, lo) * _BLOCK, (b + _BAND + 1) * _BLOCK
        for k, parts in enumerate(zip(*tiles)):
            row = stripe[k:k + 1]
            far_left = _lines(row[:, :left]) if left else []
            far_right = _lines(row[:, right:]) if right < n else []
            yield ",".join([*far_left, *parts, *far_right])


def read_labels(path):
    """One integer label per line: a file of one column."""
    raw = read_matrix_csv(path)
    if raw.shape[1] != 1:
        raise ValueError(f"{path}: labels must be one integer per line, got shape {raw.shape}")
    flat = raw[:, 0]
    labels = flat.astype(int)
    if np.any(labels != flat):
        raise ValueError(f"{path}: labels must be integers")
    return labels


def write_labels(path, labels):
    """One integer per line, as ``np.savetxt(path, labels, fmt="%d")``; returns its sha256."""
    return _write_bytes(path, "".join("%d\n" % v for v in np.asarray(labels, dtype=int).tolist()))


def dataset_files(views, labels=None, truth=None):
    """A dataset's files in the order they are written, as ``{file name: array}``.

    ``truth`` maps file names to ground-truth matrices, which come first;
    then come ``view1.csv``, ``view2.csv``, ... and, when ``labels`` is
    given, ``labels.csv``.
    """
    files = {**(truth or {}), **{f"view{v}.csv": z for v, z in enumerate(views, start=1)}}
    if labels is not None:
        files["labels.csv"] = np.asarray(labels, dtype=int)
    return files


def ingest_features(paths):
    """Load one CSV per view (rows = dims, columns = instances).

    Giving one file twice yields two identical views, the
    dimension-reduction baseline of the multi-view solvers.
    """
    paths = [Path(p) for p in paths]
    views = [read_matrix_csv(p) for p in paths]
    counts = [z.shape[1] for z in views]
    if len(set(counts)) > 1:
        pairs = ", ".join(f"{p} ({c} instances)" for p, c in zip(paths, counts))
        raise ValueError(f"views disagree on instance count: {pairs}")
    return MultiViewFeatureSet(views)


def ingest_uci_directory(directory, view_names):
    """Load the views ``view_names`` from a multiple-features style directory.

    Files are named ``mfeat-<name>``, whitespace separated, one instance per
    row; they are transposed into the rows-=-dims layout used here.
    """
    directory = Path(directory)
    views = [read_matrix_csv(directory / f"mfeat-{name}", delimiter=None).T for name in view_names]
    counts = {z.shape[1] for z in views}
    if len(counts) > 1:
        raise ValueError(f"{directory}: views disagree on instance count {sorted(counts)}")
    return MultiViewFeatureSet(views)


def ingest_dissimilarities(paths, square=False):
    """Load, repair and validate dissimilarity matrices.

    ``square=True`` squares raw-distance inputs first; a ``nan`` or ``inf``
    cell, or a square that overflows, is rejected.  Each input is then
    symmetrized via A/2 + A'/2, its diagonal zeroed and negative entries
    clamped to 0.  Returns ``(views, report)`` where the per-view report
    records how much correction was applied.  Each matrix is repaired in
    place, one pair of mirrored tiles at a time, so a view costs the matrix
    read plus a tile.
    """
    paths = [Path(p) for p in paths]
    deltas = []
    report = []
    for p in paths:
        m = read_matrix_csv(p)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{p}: matrix is not square ({m.shape[0]}x{m.shape[1]})")
        if square:
            with np.errstate(over="ignore"):  # an overflow is rejected below
                np.multiply(m, m, out=m)
        if not np.all(np.isfinite(m)):
            after = " after squaring" if square else ""
            raise ValueError(f"{p}: matrix contains a non-finite value (nan or inf){after}")
        # Halving first keeps finite cells near the float maximum finite;
        # for normal floats the result equals (m - m.T) / 2 and (m + m.T) / 2.
        m /= 2.0
        asym = _symmetrize_halves(m)
        diag = float(np.max(np.abs(np.diag(m)))) if m.size else 0.0
        np.fill_diagonal(m, 0.0)
        negatives = int(np.sum(m < 0))
        most_negative = float(m.min()) if negatives else 0.0
        np.maximum(m, 0.0, out=m)
        deltas.append(m)
        report.append(
            {
                "file": str(p),
                "max_asymmetry": asym,
                "max_diagonal": diag,
                "negative_entries_clamped": negatives,
                "most_negative": most_negative,
            }
        )
    return DissimilarityViews(deltas), report


def _symmetrize_halves(m):
    # Replace the square matrix m by m + m.T in place, tile pair by tile
    # pair, and return max |m - m.T| as it was.  Both mirrored tiles get the
    # same sums, since IEEE addition commutes.
    asym = 0.0
    for i in range(0, len(m), _BLOCK):
        for j in range(i, len(m), _BLOCK):
            upper, lower = m[i:i + _BLOCK, j:j + _BLOCK], m[j:j + _BLOCK, i:i + _BLOCK]
            asym = max(asym, float(np.max(np.abs(upper - lower.T))))
            both = upper + lower.T
            upper[...] = both
            lower[...] = both.T
    return asym


def _json_text(path, payload):
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, payload):
    """Write strict JSON and return its sha256; a NaN or infinity raises before the file is opened."""
    return _write_bytes(path, _json_text(path, payload) + "\n")


def _writer(artifact):
    # Looked up when called, like every module global, so a patched writer
    # runs; None for a matrix, which goes with the run's other matrices.
    if isinstance(artifact, SolverTrace):
        return write_trace_csv
    if isinstance(artifact, dict):
        return write_json
    array = np.asarray(artifact)
    labels = array.ndim == 1 and np.issubdtype(array.dtype, np.integer)
    return write_labels if labels else None


def write_run(directory, files, record, inputs, digests=None):
    """Write a run's artifacts and its ``run.json`` into ``directory``; returns the echo.

    ``files`` maps paths relative to ``directory`` to artifacts; each
    artifact's type picks its writer: a ``SolverTrace`` goes to
    ``write_trace_csv``, a dict to ``write_json`` and a 1-D integer array to
    ``write_labels``, each in the order given; every other array is a
    matrix, and all of them then go to one call of the CSV writer, which
    spreads their rows across the usable cores as ``write_matrix_csv``
    would a single matrix's.  Every JSON document, ``record`` included, is
    rendered before anything is created, so a NaN or infinity in one leaves
    no directory, and a directory that cannot be created (the path names a
    file, say) is a ``ValueError`` too.  ``run.json`` comes last: ``record``
    plus the package version, the sha256 of every ``{key: path}`` entry of
    ``inputs`` under its key, and an ``environment`` block: the numpy
    version, the core count, the number of processes a large CSV is read or
    written across (``io_workers``), the number a recipe's fits are spread
    across (``fit_workers``) and the BLAS thread settings (``None`` when the
    variable is unset), so timings and traces from different machines can
    be read side by side.  An input's digest is taken from ``digests``
    (``{key: sha256 hex}``, for files the caller read with
    ``read_matrix_csv(..., digest=True)``), else from the write when this
    call wrote the file, else by hashing the file.  Nothing else in the
    package creates an output directory.
    """
    directory = Path(directory)
    for name, artifact in [*files.items(), ("run.json", record)]:
        if isinstance(artifact, dict):
            _json_text(directory / name, artifact)
    try:
        for folder in dict.fromkeys([directory, *((directory / name).parent for name in files)]):
            folder.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path that names a file, for instance
        raise ValueError(f"cannot create directory {exc.filename}: {exc.strerror}") from None
    written, matrices = {}, {}
    for name, artifact in files.items():
        if (writer := _writer(artifact)) is None:
            matrices[directory / name] = artifact
        else:
            written[directory / name] = writer(directory / name, artifact)
    written.update(_write_matrices(matrices))
    digests = digests or {}
    payload = {
        **record,
        "package_version": __version__,
        "inputs": {
            key: digests.get(key) or written.get(Path(path)) or file_sha256(path)
            for key, path in inputs.items()
        },
        "environment": {
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "io_workers": _workers(),
            "fit_workers": _fit_workers(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    write_json(directory / "run.json", payload)
    return payload


def write_trace_csv(path, trace):
    """``iteration,objective`` CSV, one line per iteration; returns its sha256."""
    rows = "".join(f"{i},{val:.17g}\n" for i, val in enumerate(trace.objective, start=1))
    return _write_bytes(path, "iteration,objective\n" + rows)


def _write_bytes(path, text):
    # Write ``text`` as UTF-8 and return the sha256 hex digest of its bytes.
    data = text.encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
