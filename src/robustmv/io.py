"""File ingestion and artifact output.

Feature views are CSV with rows = feature dimensions and columns =
instances; dissimilarity matrices are square CSV.  ``write_dataset`` owns
the dataset layout that ``robustmv synth`` and the recipes write:
ground-truth files first, then ``view1.csv``, ``view2.csv``, ... and
``labels.csv``.  The CSV reader runs numpy's C parser and falls back to a
line-by-line parser only to report exactly where a file is malformed.
Writers use full-precision ``%.17g`` so a write/read round trip is exact,
and JSON artifacts are strict JSON: a NaN or infinity in one is an error,
not a ``NaN`` token.
"""

import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .embedding import DissimilarityViews
from .features import MultiViewFeatureSet

__all__ = [
    "read_matrix_csv",
    "write_matrix_csv",
    "write_dataset",
    "read_labels",
    "write_labels",
    "ingest_features",
    "ingest_uci_directory",
    "ingest_dissimilarities",
    "write_json",
    "write_run_json",
    "write_trace_csv",
    "file_sha256",
]

_FMT = "%.17g"


def read_matrix_csv(path, delimiter=","):
    """Parse a numeric matrix, one row per non-blank line.

    Cells are split on ``delimiter`` (``None``: runs of whitespace) and may
    carry surrounding whitespace; blank lines are skipped and ``nan``,
    ``inf`` and ``-inf`` cells are accepted.  ``#`` comment lines, empty
    cells, ragged rows and files without a data row are rejected.  numpy's
    C parser reads the file; whatever it refuses is parsed again line by
    line, so every error names the file, the line and, for a bad cell, the
    column.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"missing input file: {path}")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            data = np.loadtxt(
                path, delimiter=delimiter, comments=None, ndmin=2, encoding="utf-8"
            )
    except ValueError:
        data = None
    if data is None or data.size == 0:
        return _read_matrix_lines(path, delimiter)
    return data


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
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    np.savetxt(path, matrix, fmt=_FMT, delimiter=",")


def read_labels(path):
    raw = read_matrix_csv(path)
    flat = raw.ravel()
    labels = flat.astype(int)
    if np.any(labels != flat):
        raise ValueError(f"{path}: labels must be integers")
    return labels


def write_labels(path, labels):
    np.savetxt(path, np.asarray(labels, dtype=int)[:, None], fmt="%d")


def write_dataset(directory, views, labels=None, truth=None):
    """Write a dataset into the existing ``directory``; returns the paths in order.

    ``truth`` maps file names to ground-truth matrices, written first; then
    come ``view1.csv``, ``view2.csv``, ... and, when ``labels`` is given,
    ``labels.csv``.
    """
    directory = Path(directory)
    matrices = {**(truth or {}), **{f"view{v}.csv": z for v, z in enumerate(views, start=1)}}
    for name, matrix in matrices.items():
        write_matrix_csv(directory / name, matrix)
    paths = [directory / name for name in matrices]
    if labels is not None:
        write_labels(directory / "labels.csv", labels)
        paths.append(directory / "labels.csv")
    return paths


def ingest_features(paths):
    """Load one CSV per view (rows = dims, columns = instances).

    Giving one file twice yields two identical views, the
    dimension-reduction baseline of the multi-view solvers.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("no view files given")
    views = [read_matrix_csv(p) for p in paths]
    counts = [z.shape[1] for z in views]
    if len(set(counts)) > 1:
        pairs = ", ".join(f"{p} ({c} instances)" for p, c in zip(paths, counts))
        raise ValueError(f"views disagree on instance count: {pairs}")
    return MultiViewFeatureSet(views)


def ingest_uci_directory(directory, view_names=("pix", "zer")):
    """Load views from a multiple-features style directory.

    Files are named ``mfeat-<name>``, whitespace separated, one instance per
    row; they are transposed into the rows-=-dims layout used here.
    """
    directory = Path(directory)
    views = []
    for name in view_names:
        path = directory / f"mfeat-{name}"
        views.append(read_matrix_csv(path, delimiter=None).T)
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
    records how much correction was applied.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("no view files given")
    deltas = []
    report = []
    for p in paths:
        m = read_matrix_csv(p)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{p}: matrix is not square ({m.shape[0]}x{m.shape[1]})")
        if square:
            with np.errstate(over="ignore"):  # an overflow is rejected below
                m = m * m
        if not np.all(np.isfinite(m)):
            after = " after squaring" if square else ""
            raise ValueError(f"{p}: matrix contains a non-finite value (nan or inf){after}")
        # Halving first keeps finite cells near the float maximum finite;
        # for normal floats the result equals (m - m.T) / 2 and (m + m.T) / 2.
        half = m / 2.0
        asym = float(np.max(np.abs(half - half.T))) if m.size else 0.0
        m = half + half.T
        diag = float(np.max(np.abs(np.diag(m)))) if m.size else 0.0
        np.fill_diagonal(m, 0.0)
        negatives = int(np.sum(m < 0))
        most_negative = float(m.min()) if negatives else 0.0
        m = np.maximum(m, 0.0)
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


def write_json(path, payload):
    """Write strict JSON; a NaN or infinity raises before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_run_json(directory, record, inputs):
    """Write ``run.json`` into ``directory`` and return its payload.

    The payload is ``record`` plus the package version, the sha256 of every
    ``{key: path}`` entry of ``inputs`` under its key, and an ``environment``
    block: the numpy version, the core count and the BLAS thread settings
    (``None`` when the variable is unset), so timings and traces from
    different machines can be read side by side.
    """
    payload = {
        **record,
        "package_version": __version__,
        "inputs": {key: file_sha256(path) for key, path in inputs.items()},
        "environment": {
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    write_json(Path(directory) / "run.json", payload)
    return payload


def write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for i, val in enumerate(trace.objective, start=1):
            fh.write(f"{i},{val:.17g}\n")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
