"""File ingestion, artifact round trips and the command-line surface."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import robustmv.cli
import robustmv.io
import robustmv.recipes
from robustmv.cli import main
from robustmv.datagen import (
    NoiseSpec,
    corrupt_instances,
    corrupt_pixels,
    gen_cluster_retrieval_views,
    gen_labeled_multiview,
)
from robustmv.embedding import EmbedConfig, median_kernel_size
from robustmv.evaluation import seeded_split
from robustmv.features import CmvConfig, MultiViewFeatureSet, normalize_views
from robustmv.io import (
    dataset_files,
    file_sha256,
    ingest_dissimilarities,
    ingest_features,
    ingest_uci_directory,
    read_labels,
    read_matrix_csv,
    write_json,
    write_labels,
    write_matrix_csv,
    write_run,
    write_trace_csv,
)
from robustmv.recipes import FEATURE_METHODS, run_recipe
from robustmv.trace import NumericalError, SolverTrace


def _check_environment(env):
    # The test sets OPENBLAS_NUM_THREADS to 1 and unsets OMP_NUM_THREADS, so
    # a recipe's fits are spread across as many processes as a large CSV.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert env == {
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "io_workers": cores,
        "fit_workers": cores,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None,
    }


class TestMatrixCsv:
    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-12, 12, size=(7, 5))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)

    def test_non_numeric_cell_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"bad.csv:2: non-numeric value in column 2"):
            read_matrix_csv(path)

    def test_ragged_rows_diagnosed(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match=r"ragged.csv:2: expected 2 columns"):
            read_matrix_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="missing input file"):
            read_matrix_csv(tmp_path / "nope.csv")

    def test_directory_is_not_a_file(self, tmp_path):
        with pytest.raises(ValueError, match=f"is not a file: {re.escape(str(tmp_path))}$"):
            read_matrix_csv(tmp_path)


def _symmetric(n, seed=0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def _one_cell(m, i, j, value):
    m = m.copy()
    m[i, j] = value
    return m


def _one_ulp_apart(n):
    m = _symmetric(n)
    return _one_cell(m, 5, 90, np.nextafter(m[5, 90], np.inf))


def _non_finite(n):
    m = _symmetric(n)
    for (i, j), value in {(1, n - 3): np.nan, (2, 3): np.inf, (n - 5, 10): -np.inf}.items():
        m[i, j] = m[j, i] = value
    return m


# (matrix, whether the writer takes its symmetric path)
_WRITER_CASES = {
    **{f"symmetric-{n}": (_symmetric(n), True) for n in (1, 2, 63, 64, 65, 130)},
    # 700 > (_BAND + 1) * _BLOCK, so cells outside the band are formatted per row.
    "symmetric-700": (_symmetric(700), True),
    "zero-and-negative-zero": (_one_cell(np.zeros((130, 130)), 100, 3, -0.0), False),
    "one-ulp-apart": (_one_ulp_apart(130), False),
    "symmetric-nan-inf": (_non_finite(700), True),
    "fortran-order": (np.asfortranarray(_symmetric(130)), True),
    "transposed": (_symmetric(700)[::-1, ::-1].T, True),
    "rectangular": (np.random.default_rng(1).standard_normal((70, 130)), False),
    "one-row": (np.random.default_rng(2).standard_normal(9), False),
}


class TestMatrixCsvWriter:
    """write_matrix_csv writes what np.savetxt(fmt="%.17g", delimiter=",") writes.

    A 1-D array is written as one row, as ``np.atleast_2d`` shapes it.
    """

    @pytest.mark.parametrize("case", list(_WRITER_CASES))
    def test_bytes_match_savetxt(self, tmp_path, case):
        matrix, symmetric = _WRITER_CASES[case]
        matrix2d = np.atleast_2d(matrix)
        assert robustmv.io._is_symmetric(matrix2d) is symmetric
        want = io.BytesIO()
        np.savetxt(want, matrix2d, fmt="%.17g", delimiter=",")
        write_matrix_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == want.getvalue()

    def test_symmetric_peak_memory_is_bounded(self, tmp_path):
        # The formatted text kept for the lower triangle is bounded by the
        # band.  At N 1000 the banded writer peaked at 4.3 MB, nearly all of
        # it kept tiles, and a writer that keeps every tile at 6.3 MB; at
        # N 1500 they read 4.4 and 12.9 MB.
        x = np.random.default_rng(3).standard_normal((1000, 5))
        d = np.sum((x[:, None] - x[None]) ** 2, axis=2)
        assert robustmv.io._is_symmetric(d)
        tracemalloc.start()
        try:
            write_matrix_csv(tmp_path / "d.csv", d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * 2**20


_RNG_ROWS = np.random.default_rng(11).standard_normal((6, 5)) * 10.0 ** np.arange(-40, 60, 20)
_PARITY_CASES = {
    "blank-lines": ("\n1,2\n\n3,4\n\n", ","),
    "spaces-around-cells": (" 1 , 2\t\n3 ,4  \n", ","),
    "crlf": ("1,2\r\n3,4\r\n", ","),
    "nan-inf": ("nan,inf\n-inf,1\nNaN,-0\n", ","),
    "one-row": ("1,2,3,4\n", ","),
    "one-column": ("1\n2\n3\n", ","),
    "uci-whitespace": ("  1   2\t3\n4 5 6\n\n", None),
    "full-precision": (
        "\n".join(",".join("%.17g" % x for x in row) for row in _RNG_ROWS) + "\n", ","
    ),
}


class TestReaderParity:
    """numpy's parser reads every well-formed file exactly as the line parser does."""

    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_fast_path_matches_line_parser(self, tmp_path, monkeypatch, case):
        text, delimiter = _PARITY_CASES[case]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        want = robustmv.io._read_matrix_lines(path, delimiter)

        def refuse(*args):
            raise AssertionError("well-formed file fell back to the line parser")

        monkeypatch.setattr(robustmv.io, "_read_matrix_lines", refuse)
        got = read_matrix_csv(path, delimiter=delimiter)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        if case == "full-precision":
            assert np.array_equal(got, _RNG_ROWS)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n3\n", ":2: expected 2 columns, found 1"),
            ("1,2\n# a,b\n3,4\n", ":2: non-numeric value in column 1"),
            ("# header\n1,2\n", ":1: non-numeric value in column 1"),
            ("1,2,\n3,4,\n", ":1: non-numeric value in column 3"),
            ("1,,2\n", ":1: non-numeric value in column 2"),
            ("", ": no data rows"),
            ("\n  \n\n", ": no data rows"),
        ],
        ids=["ragged", "comment-line", "comment-first", "trailing-comma", "empty-cell",
             "empty-file", "blank-file"],
    )
    def test_errors_keep_their_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                read_matrix_csv(path)
        assert str(exc.value) == f"{path}{message}"
        assert caught == []

    def test_uci_whitespace_rejects_commas(self, tmp_path):
        path = tmp_path / "mfeat-pix"
        path.write_text("1 2\n3,4 5\n")
        with pytest.raises(ValueError, match=r"mfeat-pix:2: non-numeric value in column 1"):
            read_matrix_csv(path, delimiter=None)


class _Split:
    """The part count a split test asks for and the forks made in this process."""

    def __init__(self, parts):
        self.parts = parts
        self.forks = 0
        self.whole_file_loads = 0


@pytest.fixture(params=[2, 3], ids=["2-parts", "3-parts"])
def split(request, monkeypatch):
    """Split every CSV read and write of more than one line or row block.

    The size constants drop to 1 and the worker count is the parameter,
    whatever the host's cores.  ``os.fork`` and whole-file parses by the
    calling process (the byte range from 0 to the file's size) are counted.
    Afterwards no child may be left unreaped.
    """
    state = _Split(request.param)
    fork, byte_lines = os.fork, robustmv.io._byte_lines

    def counted_fork():
        state.forks += 1
        return fork()

    def counted_byte_lines(path, start, end):
        state.whole_file_loads += (start, end) == (0, path.stat().st_size)
        return byte_lines(path, start, end)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(robustmv.io, "_byte_lines", counted_byte_lines)
    monkeypatch.setattr(robustmv.io, "_SPLIT_CELLS", 1)
    monkeypatch.setattr(robustmv.io, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(robustmv.io, "_workers", lambda: request.param)
    yield state
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitWriter:
    """A write split into row ranges gives np.savetxt's bytes."""

    @pytest.mark.parametrize(
        "case",
        ["symmetric-130", "symmetric-700", "symmetric-nan-inf", "transposed", "rectangular",
         "zero-and-negative-zero"],
    )
    def test_bytes_match_savetxt(self, tmp_path, split, case):
        matrix, _ = _WRITER_CASES[case]
        want = io.BytesIO()
        np.savetxt(want, matrix, fmt="%.17g", delimiter=",")
        write_matrix_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == want.getvalue()
        blocks = -(-len(matrix) // robustmv.io._BLOCK)
        assert split.forks == min(split.parts, blocks) - 1

    @pytest.mark.parametrize("rows", [200, 257])
    def test_rectangular_rows_not_a_block_multiple(self, tmp_path, split, rows):
        matrix = np.random.default_rng(rows).standard_normal((rows, 90))
        want = io.BytesIO()
        np.savetxt(want, matrix, fmt="%.17g", delimiter=",")
        write_matrix_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == want.getvalue()
        assert split.forks == split.parts - 1

    def test_failed_worker_is_redone_in_process(self, tmp_path, split, monkeypatch):
        def fail(fd, lines):
            raise OSError("no space left on device")

        monkeypatch.setattr(robustmv.io, "_spill", fail)
        matrix = _symmetric(700)
        want = io.BytesIO()
        np.savetxt(want, matrix, fmt="%.17g", delimiter=",")
        write_matrix_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == want.getvalue()
        assert split.forks == split.parts - 1


def _fixed_rows(count, width=5, seed=0):
    # CSV lines of equal length, so the split points are easy to predict.
    values = 1.0 + np.random.default_rng(seed).random((count, width))
    return [",".join("%.15f" % x for x in row) for row in values]


def _part_starts(path, parts):
    # The 1-based line numbers at which parts 2.. of a split read begin.
    data = path.read_bytes()
    return [data[:b].count(b"\n") + 1 for b in robustmv.io._line_bounds(path, parts)[1:-1]]


class TestSplitReader:
    """A read split into byte ranges gives the line parser's array or message."""

    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_parity_cases(self, tmp_path, split, monkeypatch, case):
        text, delimiter = _PARITY_CASES[case]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        want = robustmv.io._read_matrix_lines(path, delimiter)

        def refuse(*args):
            raise AssertionError("well-formed file fell back to the line parser")

        monkeypatch.setattr(robustmv.io, "_read_matrix_lines", refuse)
        got = read_matrix_csv(path, delimiter=delimiter)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert (split.forks > 0) == (len(text.strip().splitlines()) > 1)

    @pytest.mark.parametrize(
        "layout",
        ["blank-lines-at-split", "crlf", "nan-inf", "trailing-blank-lines", "whitespace-line"],
    )
    def test_well_formed(self, tmp_path, split, monkeypatch, layout):
        rows = _fixed_rows(24)
        if layout == "nan-inf":
            for i, cell in zip(range(0, 24, 5), ["nan", "inf", "-inf", "NaN", "-0"]):
                rows[i] = ",".join([cell, *rows[i].split(",")[1:]])
        if layout == "whitespace-line":
            rows.insert(12, " ")  # blank to the line parser, refused by np.loadtxt
        end = {"blank-lines-at-split": "\n\n\n", "crlf": "\r\n"}.get(layout, "\n")
        text = end.join(rows) + end
        if layout == "trailing-blank-lines":
            text += "\n" * (4 * len(text))  # the last parts hold no row
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        want = robustmv.io._read_matrix_lines(path, ",")

        def refuse(*args):
            raise AssertionError("well-formed file fell back to the line parser")

        monkeypatch.setattr(robustmv.io, "_read_matrix_lines", refuse)
        got = read_matrix_csv(path)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert split.forks == split.parts - 1
        # A part without rows makes the whole file be read again, in-process.
        assert split.whole_file_loads == (layout == "trailing-blank-lines")

    @pytest.mark.parametrize(
        "flaw", ["ragged-after-split", "narrow-part", "wide-part", "bad-cell-in-last-part"]
    )
    def test_errors_keep_their_messages(self, tmp_path, split, flaw):
        path = tmp_path / "m.csv"
        rows = _fixed_rows(24)
        path.write_text("\n".join(rows) + "\n")
        at = _part_starts(path, split.parts)[-1] - 1
        # Narrow and wide rows keep their length, so the parts stay put.
        narrow = [row.rsplit(",", 1)[0].ljust(len(row)) for row in rows]
        wide = [row.rsplit(",", 1)[0] + ",1.1234567,1.12345" for row in rows]
        if flaw == "ragged-after-split":
            rows[at] = narrow[at]
        elif flaw == "narrow-part":
            rows[at:] = narrow[at:]
        elif flaw == "wide-part":
            rows[at:] = wide[at:]
        else:
            rows[-1] = rows[-1].replace(rows[-1].split(",")[2], "oops")
        path.write_text("\n".join(rows) + "\n")
        assert _part_starts(path, split.parts)[-1] - 1 == at
        with pytest.raises(ValueError) as want:
            robustmv.io._read_matrix_lines(path, ",")
        with pytest.raises(ValueError) as got:
            read_matrix_csv(path)
        assert str(got.value) == str(want.value)
        line = len(rows) if flaw == "bad-cell-in-last-part" else at + 1
        problem = "non-numeric value in column 3" if line == len(rows) else "expected 5 columns"
        assert str(got.value).startswith(f"{path}:{line}: {problem}")
        assert split.forks == split.parts - 1

    def test_failed_worker_is_redone_in_process(self, tmp_path, split, monkeypatch):
        def fail(*args):
            raise MemoryError

        monkeypatch.setattr(robustmv.io, "_send_part", fail)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(_fixed_rows(24)) + "\n")
        got = read_matrix_csv(path)
        assert np.array_equal(got, robustmv.io._read_matrix_lines(path, ","))
        assert split.forks == split.parts - 1
        assert split.whole_file_loads == 1

    @pytest.mark.parametrize("cut", ["in-header", "in-values"])
    def test_part_cut_short_is_redone_in_process(self, tmp_path, split, monkeypatch, cut):
        send = robustmv.io._send_part

        def cut_short(fd, *args):
            send(fd, *args)
            os.ftruncate(fd, 8 if cut == "in-header" else os.fstat(fd).st_size - 8)

        monkeypatch.setattr(robustmv.io, "_send_part", cut_short)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(_fixed_rows(24)) + "\n")
        got = read_matrix_csv(path)
        assert np.array_equal(got, robustmv.io._read_matrix_lines(path, ","))
        assert split.forks == split.parts - 1
        assert split.whole_file_loads == 1


class TestSplitTransport:
    """Workers hand their parts back in temporary files, in either direction."""

    @pytest.mark.parametrize("direction", ["read", "write"])
    def test_failing_caller_kills_and_reaps_its_workers(
        self, tmp_path, split, monkeypatch, direction
    ):
        worker, lines = {"read": ("_send_part", "_byte_lines"),
                         "write": ("_spill", "_row_lines")}[direction]
        own = getattr(robustmv.io, lines)

        def stall(*args):
            time.sleep(60)

        def fail_first_range(source, lo, hi):
            if lo == 0:  # the calling process's own range
                raise RuntimeError("injected failure")
            return own(source, lo, hi)

        path = tmp_path / "m.csv"
        path.write_text("\n".join(_fixed_rows(24)) + "\n")
        monkeypatch.setattr(robustmv.io, worker, stall)
        monkeypatch.setattr(robustmv.io, lines, fail_first_range)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected failure"):
            if direction == "read":
                read_matrix_csv(path)
            else:
                write_matrix_csv(path, np.zeros((300, 4)))
        assert time.perf_counter() - start < 30
        assert split.forks == split.parts - 1

    @pytest.mark.parametrize("direction", ["read", "write"])
    @pytest.mark.parametrize("unavailable", ["temporary-file", "fork"])
    def test_no_temporary_file_or_process_keeps_the_work_in_process(
        self, tmp_path, split, monkeypatch, direction, unavailable
    ):
        # The last worker's temporary file or fork raises OSError; with three
        # parts, one worker has started by then.
        module, name = {"temporary-file": (tempfile, "TemporaryFile"),
                        "fork": (os, "fork")}[unavailable]
        made, calls = getattr(module, name), []

        def refuse(*args, **kwargs):
            calls.append(name)
            if len(calls) == split.parts - 1:
                raise OSError("resource unavailable")
            return made(*args, **kwargs)

        monkeypatch.setattr(module, name, refuse)
        path = tmp_path / "m.csv"
        if direction == "read":
            path.write_text("\n".join(_fixed_rows(24)) + "\n")
            got = read_matrix_csv(path)
            assert np.array_equal(got, robustmv.io._read_matrix_lines(path, ","))
            assert split.whole_file_loads == 1
        else:
            matrix = _symmetric(700)
            want = io.BytesIO()
            np.savetxt(want, matrix, fmt="%.17g", delimiter=",")
            write_matrix_csv(path, matrix)
            assert path.read_bytes() == want.getvalue()
        assert len(calls) == split.parts - 1
        assert split.forks == split.parts - 2


def _run_files():
    # Two equal symmetric views, an asymmetric matrix and labels: at two or
    # three parts every range shares a file with the next.
    return {
        "view1.csv": _symmetric(130, seed=1),
        "view2.csv": _symmetric(130, seed=2),
        "data/asymmetric.csv": np.random.default_rng(4).standard_normal((70, 130)),
        "labels.csv": np.arange(130) % 3,
    }


def _savetxt_bytes(matrix):
    want = io.BytesIO()
    np.savetxt(want, np.atleast_2d(matrix), fmt="%.17g", delimiter=",")
    return want.getvalue()


class TestRunWriter:
    """write_run writes a run's matrices in one split call and hashes what it writes."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The paths io.file_sha256 reads, and the parts the calling process appends."""
        calls = {"file_sha256": [], "_append": 0}
        sha, append = robustmv.io.file_sha256, robustmv.io._append

        def counted_sha(path):
            calls["file_sha256"].append(Path(path))
            return sha(path)

        def counted_append(*args):
            calls["_append"] += 1
            return append(*args)

        monkeypatch.setattr(robustmv.io, "file_sha256", counted_sha)
        monkeypatch.setattr(robustmv.io, "_append", counted_append)
        return calls

    @staticmethod
    def _check(run, files, echo, hashed):
        for name, artifact in files.items():
            if name == "labels.csv":
                want = "".join(f"{v}\n" for v in artifact).encode()
            else:
                want = _savetxt_bytes(artifact)
            assert (run / name).read_bytes() == want, name
        assert echo["inputs"] == {name: file_sha256(run / name) for name in files}
        assert json.loads((run / "run.json").read_text())["inputs"] == echo["inputs"]
        assert hashed["file_sha256"] == []  # every input was written here

    def _write(self, tmp_path):
        files = _run_files()
        run = tmp_path / "run"
        echo = write_run(run, files, {}, {name: run / name for name in files})
        return run, files, echo

    def test_split_write_matches_savetxt_and_hashes_in_hand(self, tmp_path, split, hashed):
        run, files, echo = self._write(tmp_path)
        self._check(run, files, echo, hashed)
        assert split.forks == split.parts - 1
        # Cut after view1 and a block of view2 (two parts), or inside view1
        # and inside view2 (three), whose second range holds two file parts.
        assert hashed["_append"] == {2: 1, 3: 3}[split.parts]

    @pytest.mark.parametrize("split", [2], indirect=True)
    def test_two_equal_views_go_whole_side_by_side(self, tmp_path, split, hashed):
        files = _run_files()
        del files["data/asymmetric.csv"]
        run = tmp_path / "run"
        echo = write_run(run, files, {}, {name: run / name for name in files})
        self._check(run, files, echo, hashed)
        assert split.forks == 1 and hashed["_append"] == 0

    def test_one_large_matrix_splits_by_rows(self, tmp_path, split, hashed):
        matrix = _symmetric(700)
        run = tmp_path / "run"
        echo = write_run(run, {"m.csv": matrix}, {}, {"m": run / "m.csv"})
        assert (run / "m.csv").read_bytes() == _savetxt_bytes(matrix)
        assert echo["inputs"] == {"m": file_sha256(run / "m.csv")}
        assert hashed["file_sha256"] == []
        assert split.forks == split.parts - 1
        assert hashed["_append"] == split.parts - 1

    def test_one_worker_writes_in_process(self, tmp_path, monkeypatch, hashed):
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(robustmv.io, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(robustmv.io, "_workers", lambda: 1)
        run, files, echo = self._write(tmp_path)
        self._check(run, files, echo, hashed)
        assert forks == [] and hashed["_append"] == 0

    @pytest.mark.parametrize("flaw", ["worker-fails", "part-cut-short", "fork", "temporary-file"])
    def test_failed_part_is_redone_in_process(self, tmp_path, split, monkeypatch, hashed, flaw):
        spill = robustmv.io._spill
        if flaw == "worker-fails":
            def worker(fd, *args):
                raise OSError("no space left on device")
            monkeypatch.setattr(robustmv.io, "_spill", worker)
        elif flaw == "part-cut-short":
            def worker(fd, *args):
                spill(fd, *args)
                os.ftruncate(fd, os.fstat(fd).st_size - 8)
            monkeypatch.setattr(robustmv.io, "_spill", worker)
        else:
            module, name = {"fork": (os, "fork"), "temporary-file": (tempfile, "TemporaryFile")}[flaw]
            made = getattr(module, name)

            def refuse(*args, **kwargs):  # the last worker's start fails
                refuse.calls += 1
                if refuse.calls == split.parts - 1:
                    raise OSError("resource unavailable")
                return made(*args, **kwargs)

            refuse.calls = 0
            monkeypatch.setattr(module, name, refuse)
        run, files, echo = self._write(tmp_path)
        self._check(run, files, echo, hashed)
        started = split.parts - (2 if flaw in ("fork", "temporary-file") else 1)
        assert split.forks == started

    @pytest.mark.parametrize("parts", ["split", "one-part"])
    def test_eval_records_the_digest_of_what_it_read(self, tmp_path, monkeypatch, hashed, parts):
        labels, views = gen_cluster_retrieval_views(classes=3, per_class=20, seed=0)
        data = tmp_path / "data"
        write_run(data, dataset_files(views.deltas, labels), {}, {})
        monkeypatch.setattr(robustmv.io, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(robustmv.io, "_workers", lambda: 2 if parts == "split" else 1)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        view = data / "view1.csv"
        assert main(["eval", "--task", "retrieval", "--k", "3", "--labels",
                     str(data / "labels.csv"), "--distances", str(view),
                     "--out", str(tmp_path / "eval")]) == 0
        inputs = json.loads((tmp_path / "eval" / "run.json").read_text())["inputs"]
        assert inputs == {str(p): file_sha256(p) for p in (view, data / "labels.csv")}
        assert len(forks) == (2 if parts == "split" else 0)  # labels, then the view
        # The view was hashed once, by its read; write_run hashed the labels.
        assert hashed["file_sha256"] == [view, data / "labels.csv"]

    def test_one_part_read_skips_a_whitespace_line(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("one-part read fell back to the line parser")

        path = tmp_path / "m.csv"
        rows = _fixed_rows(8)
        path.write_text("\n".join(rows[:4] + [" "] + rows[4:]) + "\n")
        want = robustmv.io._read_matrix_lines(path, ",")
        monkeypatch.setattr(robustmv.io, "_workers", lambda: 1)
        monkeypatch.setattr(robustmv.io, "_read_matrix_lines", refuse)
        got, digest = read_matrix_csv(path, digest=True)
        assert np.array_equal(got, want) and got.shape == (8, 5)
        assert digest == file_sha256(path)


def _item(x):
    # A fork_map result that pickles: arrays, a dict and a SolverTrace.
    trace = SolverTrace()
    trace.record(x / 3.0)
    return {"x": x, "squares": np.arange(x) ** 2.5, "trace": trace}


def _same_items(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a["x"] == b["x"] and a["trace"] == b["trace"]
        assert np.array_equal(a["squares"], b["squares"])


class TestForkMap:
    """fork_map gives the list comprehension's results and errors."""

    @pytest.fixture
    def pinned(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_results_in_order(self, split, pinned, count):
        own = []

        def fn(x):
            own.append(x)  # in the calling process only
            return _item(x)

        items = list(range(10, 10 + count))
        _same_items(robustmv.io.fork_map(fn, items), [_item(x) for x in items])
        workers = min(split.parts, count)
        assert split.forks == workers - 1
        assert own == items[::workers]

    @pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}], ids=["1", "2", "1-and-2"])
    def test_first_error_is_the_callers_own(self, split, pinned, capfd, failing):
        # Item 1 runs in a child, item 2 in the calling process (2 workers) or
        # a child (3); the in-process redo raises what item order gives first.
        def fn(x):
            if x in failing:
                raise {1: KeyError, 2: ValueError}[x](f"item {x} failed")
            return _item(x)

        capfd.readouterr()
        error = KeyError if 1 in failing else ValueError
        with pytest.raises(error) as exc:
            robustmv.io.fork_map(fn, range(5))
        assert str(exc.value) == str(error(f"item {min(failing)} failed"))
        assert split.forks == split.parts - 1
        assert capfd.readouterr() == ("", "")  # no child printed its traceback

    @pytest.mark.parametrize("blas", [
        {}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "4"},
        {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"},
    ], ids=["unset", "openblas-2", "omp-4", "openblas-4-omp-1"])
    def test_threaded_blas_maps_in_process(self, monkeypatch, blas):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        for var, value in blas.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        self._check_in_process(monkeypatch)

    @pytest.mark.parametrize("blocker", ["one-core", "second-thread"])
    def test_one_core_or_a_second_thread_maps_in_process(self, monkeypatch, pinned, blocker):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        cores = {0} if blocker == "one-core" else {0, 1, 2}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        if blocker == "one-core":
            self._check_in_process(monkeypatch)
            return
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            self._check_in_process(monkeypatch)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()

    @staticmethod
    def _check_in_process(monkeypatch):
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert robustmv.io._fit_workers() == 1
        _same_items(robustmv.io.fork_map(_item, range(5)), [_item(x) for x in range(5)])
        assert forks == []

    @pytest.mark.parametrize("split", [3], indirect=True)
    def test_no_process_kills_started_children_and_skips_own_share(
        self, split, pinned, monkeypatch
    ):
        # The second fork raises OSError: the first child, which would sleep
        # for 60 s, is killed at once, and the calling process maps every
        # item once, in the in-process redo, not its own share first.
        fork, forks, own = os.fork, [], []

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise OSError("resource unavailable")
            return fork()

        def fn(x):
            if os.getpid() != caller:
                time.sleep(60)
            own.append(x)
            return _item(x)

        caller = os.getpid()
        monkeypatch.setattr(os, "fork", second_fails)
        start = time.perf_counter()
        items = list(range(6))
        _same_items(robustmv.io.fork_map(fn, items), [_item(x) for x in items])
        assert time.perf_counter() - start < 30
        assert len(forks) == 2
        assert own == items


class TestWorkerCount:
    def test_one_core_or_a_second_thread_keeps_the_work_in_process(self, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert robustmv.io._part_count(10**9, 1) == 3
        assert robustmv.io._part_count(5, 2) == 2
        assert robustmv.io._part_count(1, 2) == 1
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert robustmv.io._part_count(10**9, 1) == 1
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert robustmv.io._part_count(10**9, 1) == 1

    def test_piped_synth_prints_one_json_line(self, tmp_path):
        # With stdout a pipe the text written before synth stays in the
        # interpreter's buffer while the views are written; a worker that
        # flushed the buffer it inherited would print it a second time.
        script = (
            "import os, sys\n"
            "from robustmv.cli import main\n"
            "forks = []\n"
            "fork = os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "sys.stdout.write('start\\n')\n"
            "code = main(sys.argv[1:])\n"
            "print(len(forks), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        # N 728: the two views hold 4 * _SPLIT_CELLS cells or more, enough for
        # four parts, written in one call across the usable cores.
        params = {"classes": 8, "per_class": 91, "corrupt_per_view": 10}
        src = Path(robustmv.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = subprocess.run(
            [sys.executable, "-c", script, "synth", "--kind", "clusters",
             "--params", json.dumps(params), "--out", str(tmp_path / "c")],
            env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
        )
        first, line = done.stdout.splitlines()
        assert first == "start"
        assert _strict_json(line)["written"][-1] == str(tmp_path / "c" / "labels.csv")
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert int(done.stderr) == min(cores, 4) - 1


class TestWriteJson:
    def test_nan_rejected_before_writing(self, tmp_path):
        path = tmp_path / "scores.json"
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scores.json"):
                write_json(path, {"accuracy": bad})
            assert not path.exists()

    def test_finite_payload_written(self, tmp_path):
        path = tmp_path / "ok.json"
        write_json(path, {"b": 1.5, "a": [1, 2]})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1.5\n}\n'


class TestDatasetFiles:
    def test_layout_and_order(self, tmp_path):
        views = [np.eye(2), np.arange(6.0).reshape(3, 2)]
        truth = {"points.csv": np.full((2, 2), 0.5)}
        files = dataset_files(views, labels=[0, 1], truth=truth)
        assert list(files) == ["points.csv", "view1.csv", "view2.csv", "labels.csv"]
        write_run(tmp_path, files, {}, {})
        np.testing.assert_array_equal(read_matrix_csv(tmp_path / "points.csv"), truth["points.csv"])
        np.testing.assert_array_equal(read_matrix_csv(tmp_path / "view2.csv"), views[1])
        np.testing.assert_array_equal(read_labels(tmp_path / "labels.csv"), [0, 1])
        assert list(dataset_files(views[:1])) == ["view1.csv"]


class TestWriteRun:
    def test_each_artifact_type_matches_its_writer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        trace = SolverTrace()
        for value in (3.5, 1.25, 0.1):
            trace.record(value)
        # Paths relative to the run directory, and each artifact's own writer.
        artifacts = {
            "matrix.csv": (np.arange(6.0).reshape(2, 3) / 7.0, write_matrix_csv),
            "eigenvalues.csv": (np.array([2.5, 1.0, 1e-17]), write_matrix_csv),
            "labels.csv": (np.array([0, 2, 1]), write_labels),
            "nested/deeper/scores.json": ({"b": [1, 2], "a": 0.5}, write_json),
            "traces/fit.csv": (trace, write_trace_csv),
        }
        run = tmp_path / "run"
        echo = write_run(run, {name: a for name, (a, _) in artifacts.items()},
                         {"command": "test"}, {"labels": run / "labels.csv"})
        reference = tmp_path / "reference"
        for name, (artifact, writer) in artifacts.items():
            (reference / name).parent.mkdir(parents=True, exist_ok=True)
            writer(reference / name, artifact)
            assert (run / name).read_bytes() == (reference / name).read_bytes(), name
        assert (run / "eigenvalues.csv").read_text().count("\n") == 1  # one row
        assert _tree(run) == {*artifacts, "run.json"}
        assert json.loads((run / "run.json").read_text()) == echo
        assert echo["command"] == "test" and echo["package_version"] == robustmv.__version__
        assert echo["inputs"] == {"labels": file_sha256(run / "labels.csv")}
        _check_environment(echo["environment"])

    @pytest.mark.parametrize("where", ["artifact", "record"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_json_leaves_no_directory(self, tmp_path, where, bad):
        files = {"view1.csv": np.eye(2), "scores.json": {"accuracy": 0.5}}
        record = {"params": {"sigma": 1.0}}
        if where == "artifact":
            files["scores.json"]["accuracy"] = bad
            name = "scores.json"
        else:
            record["params"]["sigma"] = bad
            name = "run.json"
        with pytest.raises(ValueError, match=name):
            write_run(tmp_path / "out" / "run", files, record, {})
        assert not (tmp_path / "out").exists()


class TestIngestFeatures:
    def test_instance_count_mismatch_names_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(a, np.zeros((2, 4)))
        write_matrix_csv(b, np.zeros((3, 5)))
        with pytest.raises(ValueError) as err:
            ingest_features([a, b])
        msg = str(err.value)
        assert "a.csv" in msg and "b.csv" in msg and "4" in msg and "5" in msg

    def test_uci_layout_transposed(self, tmp_path):
        # multiple-features layout: whitespace separated, rows = instances
        rng = np.random.default_rng(1)
        pix = rng.standard_normal((10, 6))  # 10 instances, 6 dims
        zer = rng.standard_normal((10, 3))
        np.savetxt(tmp_path / "mfeat-pix", pix, fmt="%.17g")
        np.savetxt(tmp_path / "mfeat-zer", zer, fmt="%.17g")
        fs = ingest_uci_directory(tmp_path, view_names=["pix", "zer"])
        assert fs.view_dims == [6, 3]
        assert fs.n_instances == 10
        np.testing.assert_allclose(fs.views[0], pix.T)


class TestIngestDissimilarities:
    def test_clean_input_zero_correction(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 2))
        d = np.sum((x[:, None] - x[None]) ** 2, axis=2)
        f = tmp_path / "d.csv"
        write_matrix_csv(f, d)
        views, report = ingest_dissimilarities([f])
        np.testing.assert_array_equal(views.deltas[0], d)
        assert report[0]["max_asymmetry"] == 0.0
        assert report[0]["negative_entries_clamped"] == 0

    def test_repairs_are_reported(self, tmp_path):
        m = np.array([[0.5, 1.0, 2.0], [3.0, 0.0, -0.1], [2.0, -0.1, 0.0]])
        f = tmp_path / "d.csv"
        write_matrix_csv(f, m)
        views, report = ingest_dissimilarities([f])
        d = views.deltas[0]
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert np.all(d >= 0)
        assert d[0, 1] == pytest.approx(2.0)  # (1 + 3) / 2
        assert report[0]["max_asymmetry"] == pytest.approx(1.0)
        assert report[0]["negative_entries_clamped"] == 2
        assert report[0]["max_diagonal"] == pytest.approx(0.5)

    def test_non_square_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_matrix_csv(f, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="not square"):
            ingest_dissimilarities([f])

    def test_peak_memory_in_square_floats(self, tmp_path):
        # Each view is repaired in place, so the peak is the first repaired
        # view plus the second being parsed: 2.3 N^2 floats for two N 600
        # views.  Repairing through whole-matrix temporaries peaked at 5.0.
        _, views = gen_cluster_retrieval_views(
            classes=10, per_class=60, corrupt_per_view=60, seed=0
        )
        files = [tmp_path / "view1.csv", tmp_path / "view2.csv"]
        for path, delta in zip(files, views.deltas):
            write_matrix_csv(path, delta)
        tracemalloc.start()
        try:
            repaired, _ = ingest_dissimilarities(files)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for got, want in zip(repaired.deltas, views.deltas):
            assert np.array_equal(got, want)
        assert peak / (600 * 600 * 8) < 3.0

    def test_views_of_different_sizes_rejected(self, tmp_path):
        files = [tmp_path / "a.csv", tmp_path / "b.csv"]
        write_matrix_csv(files[0], np.ones((3, 3)) - np.eye(3))
        write_matrix_csv(files[1], np.ones((4, 4)) - np.eye(4))
        with pytest.raises(ValueError, match=r"views disagree on size: \[3, 4\]"):
            ingest_dissimilarities(files)


class TestCli:
    def test_synth_fit_eval_pipeline(self, tmp_path):
        data = tmp_path / "data"
        assert main([
            "synth", "--kind", "labeled", "--out", str(data), "--seed", "3",
            "--params", '{"classes": 4, "per_class": 8, "view_dims": [10, 5], "latent_dim": 3}',
        ]) == 0
        assert not (data / "manifest.json").exists()
        config = tmp_path / "cfg.json"
        config.write_text('{"latent_dim": 3, "max_outer": 8}')
        fit = tmp_path / "fit"
        assert main([
            "fit-mv", "--solver", "cmv", "--views", str(data / "view1.csv"),
            str(data / "view2.csv"), "--out", str(fit), "--seed", "3", "--config", str(config),
        ]) == 0
        assert (fit / "X.csv").exists() and (fit / "trace.csv").exists()
        run = json.loads((fit / "run.json").read_text())
        assert run["params"]["config"]["latent_dim"] == 3
        assert len(run["inputs"]) == 2
        ev = tmp_path / "eval"
        assert main([
            "eval", "--task", "knn", "--features", str(fit / "X.csv"),
            "--labels", str(data / "labels.csv"), "--out", str(ev), "--seed", "3",
        ]) == 0
        scores = json.loads((ev / "scores.json").read_text())
        assert 0.0 <= scores["accuracy"] <= 1.0

    def test_embed_pipeline_and_retrieval(self, tmp_path):
        data = tmp_path / "clusters"
        assert main([
            "synth", "--kind", "clusters", "--out", str(data), "--seed", "4",
            "--params", '{"classes": 4, "per_class": 5, "corrupt_per_view": 2}',
        ]) == 0
        emb = tmp_path / "emb"
        assert main([
            "embed", "--solver", "mvree",
            "--views", str(data / "view1.csv"), str(data / "view2.csv"),
            "--out", str(emb), "--seed", "4",
            "--config", '{"target_dim": 4, "step": 0.02, "max_iter": 40}',
        ]) == 0
        assert (emb / "configuration.csv").exists()
        assert read_matrix_csv(emb / "configuration.csv").shape == (20, 4)
        ev = tmp_path / "ret"
        assert main([
            "eval", "--task", "retrieval", "--configuration", str(emb / "configuration.csv"),
            "--labels", str(data / "labels.csv"), "--k", "4", "--out", str(ev),
        ]) == 0
        scores = json.loads((ev / "scores.json").read_text())
        assert scores["total_correct"] <= scores["max_possible"]

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        code = main(["embed", "--solver", "cmds", "--views", str(bad), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_exit_code(self, tmp_path):
        z = np.full((3, 4), 1e200)
        f = tmp_path / "v.csv"
        write_matrix_csv(f, z)
        code = main([
            "fit-mv", "--solver", "l2mv", "--views", str(f), str(f),
            "--out", str(tmp_path / "out"), "--config", '{"latent_dim": 2, "max_outer": 2}',
        ])
        assert code == 3

    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError; it must still exit 3, not 2.
        def failing_solver(fs, cfg):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(robustmv.cli, "cmv_fit", failing_solver)
        f = tmp_path / "v.csv"
        write_matrix_csv(f, np.arange(12.0).reshape(3, 4))
        code = main([
            "fit-mv", "--solver", "cmv", "--views", str(f), str(f),
            "--out", str(tmp_path / "out"), "--config", '{"latent_dim": 2}',
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"

    @pytest.mark.parametrize("solver, code", [
        ("cmds", 0), ("ree", 0), ("mvree", 0), ("cmvree", 2),
    ])
    def test_embed_one_point(self, tmp_path, capsys, solver, code):
        # cmvree's default kernel size is the median off-diagonal entry, and
        # one point has none: one validation line, no numpy warning.
        f = tmp_path / "d.csv"
        write_matrix_csv(f, np.zeros((1, 1)))
        out = tmp_path / "emb"
        capsys.readouterr()
        assert main([
            "embed", "--solver", solver, "--views", str(f), "--out", str(out),
            "--config", '{"target_dim": 1}',
        ]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == [] and (out / "configuration.csv").exists()
        else:
            assert len(err) == 1 and _strict_json(err[0]) == {
                "error": "validation",
                "message": "median kernel size needs at least two points, got 1",
            }
            assert not out.exists()

    def test_embed_records_stop_reason(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 2))
        f = tmp_path / "d.csv"
        write_matrix_csv(f, np.sum((x[:, None] - x[None]) ** 2, axis=2))
        out = tmp_path / "emb"
        capsys.readouterr()
        assert main([
            "embed", "--solver", "cmvree", "--views", str(f), str(f), "--out", str(out),
            "--config", '{"sigma": 1.0, "step": 1e12, "max_iter": 10}',
        ]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["reason"] == "no ascent step" and echo["converged"] is True
        assert echo["iterations"] == 0 and echo["final_objective"] is None
        run = json.loads((out / "run.json").read_text())["summary"]
        assert run["reason"] == "no ascent step" and run["converged"] is True
        assert not (out / "meta.json").exists()

    def test_fit_records_stop_reason(self, tmp_path, capsys):
        f = tmp_path / "v.csv"
        write_matrix_csv(f, np.random.default_rng(6).standard_normal((4, 9)))
        capsys.readouterr()
        assert main([
            "fit-mv", "--solver", "cemv", "--views", str(f), str(f),
            "--out", str(tmp_path / "out"),
            "--config", '{"latent_dim": 2, "max_outer": 2, "rel_tol": 0}',
        ]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["reason"] == "max_outer reached" and echo["converged"] is False

    @pytest.mark.parametrize("command", ["fit-mv", "embed"])
    def test_run_json_records_solver_summary(self, tmp_path, capsys, command):
        rng = np.random.default_rng(7)
        f = tmp_path / "v.csv"
        if command == "fit-mv":
            write_matrix_csv(f, rng.standard_normal((4, 9)))
            argv = ["fit-mv", "--solver", "cmv", "--config", '{"latent_dim": 2, "max_outer": 3}']
        else:
            x = rng.standard_normal((6, 2))
            write_matrix_csv(f, np.sum((x[:, None] - x[None]) ** 2, axis=2))
            argv = ["embed", "--solver", "cmvree", "--config", '{"max_iter": 6}']
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--views", str(f), str(f), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        recorded = json.loads((out / "run.json").read_text())["summary"]
        assert recorded == printed
        assert recorded["reason"] == printed["reason"] != ""

    @pytest.mark.parametrize("solver", ["cmvree", "mvree", "cemv", "cmv"])
    def test_run_json_records_resolved_settings(self, tmp_path, solver):
        rng = np.random.default_rng(7)
        out = tmp_path / "out"
        if solver in ("cemv", "cmv"):
            files = [tmp_path / "a.csv", tmp_path / "b.csv"]
            write_matrix_csv(files[0], rng.standard_normal((4, 9)))
            write_matrix_csv(files[1], rng.standard_normal((9, 9)))
            argv = ["fit-mv", "--config", '{"latent_dim": 2, "max_outer": 3}']
            want = dataclasses.asdict(CmvConfig(latent_dim=2, max_outer=3))
            if solver == "cemv":
                want["view_sigmas"] = [0.5 / 2.0, 0.5 / 3.0]
        else:
            x = rng.standard_normal((6, 2))
            files = [tmp_path / "d.csv"] * 2
            write_matrix_csv(files[0], np.sum((x[:, None] - x[None]) ** 2, axis=2))
            argv = ["embed", "--config", '{"max_iter": 6}']
            want = dataclasses.asdict(EmbedConfig(max_iter=6))
            if solver == "cmvree":
                want["sigma"] = median_kernel_size(ingest_dissimilarities(files)[0])
        argv += ["--solver", solver, "--views", *map(str, files), "--out", str(out)]
        assert main(argv) == 0
        params = json.loads((out / "run.json").read_text())["params"]
        assert params["resolved"] == want

    def test_cli_import_loads_no_scipy(self):
        src = Path(robustmv.cli.__file__).parents[1]
        code = "import sys, robustmv.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_run_json_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        x = np.random.default_rng(9).standard_normal((5, 2))
        f = tmp_path / "d.csv"
        write_matrix_csv(f, np.sum((x[:, None] - x[None]) ** 2, axis=2))
        out = tmp_path / "o"
        assert main(["embed", "--solver", "cmds", "--views", str(f), "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["inputs"] == {str(f): file_sha256(f)}
        _check_environment(run["environment"])

    @pytest.mark.parametrize("sources", [("--views", "--uci-dir"), ()], ids=["views-uci", "none"])
    def test_fit_mv_takes_exactly_one_source(self, tmp_path, capsys, sources):
        data = tmp_path / "data"
        assert main([
            "synth", "--kind", "labeled", "--out", str(data),
            "--params", '{"classes": 3, "per_class": 4, "view_dims": [5, 4], "latent_dim": 2}',
        ]) == 0
        uci = tmp_path / "uci"
        uci.mkdir()
        for name in ("pix", "zer"):
            np.savetxt(uci / f"mfeat-{name}", np.arange(24.0).reshape(12, 2) % 5, fmt="%g")
        values = {
            "--views": [str(data / "view1.csv"), str(data / "view2.csv")],
            "--uci-dir": [str(uci)],
        }
        argv = ["fit-mv", "--solver", "cmv", "--config", '{"latent_dim": 2, "max_outer": 2}']
        for flag in sources:
            argv += [flag, *values[flag]]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "fit")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0]) == {
            "error": "validation",
            "message": "give exactly one of --views and --uci-dir",
        }
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("kind, code", [
        ("pixel_replacement", 0), ("distance_salt_pepper", 2),
    ])
    def test_synth_corruption_kind(self, tmp_path, capsys, kind, code):
        capsys.readouterr()
        assert main([
            "synth", "--kind", "labeled", "--out", str(tmp_path / "syn"),
            "--params", '{"classes": 3, "per_class": 4, "view_dims": [5, 4], "latent_dim": 2}',
            "--corrupt", json.dumps({"kind": kind, "fraction": 0.5}),
        ]) == code
        if code:
            err = _strict_json(capsys.readouterr().err)
            assert err["error"] == "validation" and "unknown noise kind" in err["message"]

    @pytest.mark.parametrize("field, fields", [
        ("view", {"view": 1.7}),
        ("view", {"view": True}),
        ("view", {"view": "1"}),
        ("seed", {"seed": 2.5}),
        ("seed", {"seed": False}),
        ("fraction", {"fraction": True}),
        ("magnitude", {"magnitude": True}),
    ])
    def test_synth_corrupt_rejects_coerced_fields(self, tmp_path, capsys, field, fields):
        # No silent int()/float() coercion: each bad field is a validation error,
        # raised before the output directory is made.
        out = tmp_path / "syn"
        capsys.readouterr()
        assert main([
            "synth", "--kind", "labeled", "--out", str(out),
            "--params", '{"classes": 3, "per_class": 4, "view_dims": [5, 4], "latent_dim": 2}',
            "--corrupt", json.dumps({"kind": "instance_replacement", "fraction": 0.5, **fields}),
        ]) == 2
        err = _strict_json(capsys.readouterr().err)
        assert err["error"] == "validation" and err["message"].startswith(f"{field} must be")
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag, fields, message", [
        # A pinned corruption subset: the subset is always drawn from the seed.
        pytest.param(
            "labeled", "--corrupt", {"kind": "instance_replacement", "indices": [0, 1]},
            "unexpected keyword argument 'indices'", id="indices",
        ),
        # A pinned point layout: the layout is always drawn from the seed.
        pytest.param(
            "pointset", "--params",
            {"points": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]],
             "view1_points": [0, 1], "view2_points": [3, 4]},
            "unexpected keyword argument 'points'", id="points",
        ),
        # The observation noise level, cluster separation and spread, and the
        # planted view count are fixed: the count is len(view_dims).
        pytest.param(
            "labeled", "--params", {"observation_noise": [0.01, 0.02]},
            "unexpected keyword argument 'observation_noise'", id="observation_noise",
        ),
        pytest.param(
            "clusters", "--params", {"separation": 5}, "unexpected keyword argument 'separation'",
            id="separation",
        ),
        pytest.param(
            "clusters", "--params", {"spread": 2.0}, "unexpected keyword argument 'spread'",
            id="spread",
        ),
        pytest.param(
            "planted", "--params", {"n_views": 2}, "unexpected keyword argument 'n_views'",
            id="planted-n_views",
        ),
    ])
    def test_synth_rejects_removed_forms(self, tmp_path, capsys, kind, flag, fields, message):
        out = tmp_path / "syn"
        capsys.readouterr()
        assert main(["synth", "--kind", kind, "--out", str(out), flag, json.dumps(fields)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = _strict_json(lines[0])
        assert err["error"] == "validation" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e300", "1e200"])
    def test_embed_huge_step_overflows_to_zero_kernel(self, tmp_path, capsys, step):
        # The L1 warm start lands at distances whose squared error overflows;
        # the kernel there is 0, so the run ends cleanly instead of warning.
        data = tmp_path / "pointset"
        assert main(["synth", "--kind", "pointset", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main([
            "embed", "--solver", "cmvree", "--config", f'{{"step": {step}}}',
            "--views", str(data / "view1.csv"), str(data / "view2.csv"),
            "--out", str(tmp_path / "emb"),
        ])
        assert code in (0, 3)
        if code == 3:
            err = _strict_json(capsys.readouterr().err)
            assert err["error"] == "numerical"

    @pytest.mark.parametrize("alpha", [1.5, 2, 3])
    def test_cmvree_drops_an_overflowing_outlier(self, tmp_path, capsys, alpha):
        # The outlier pair's kernel is 0 at every alpha, so its derivative is
        # 0 rather than inf times 0, and the run ends cleanly.
        views = _outlier_views(tmp_path, outlier=True)
        out = tmp_path / "emb"
        capsys.readouterr()
        assert main([
            "embed", "--solver", "cmvree", "--views", *views,
            "--config", json.dumps({"alpha": alpha, "max_iter": 40}), "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(read_matrix_csv(out / "configuration.csv")))

    def test_fit_mv_normalize_fits_the_normalized_views(self, tmp_path, capsys):
        # --normalize fits exactly what normalize_views makes of the inputs.
        rng = np.random.default_rng(8)
        fs = MultiViewFeatureSet([3.0 * rng.standard_normal((5, 12)),
                                  rng.standard_normal((4, 12))])
        raw, pre = [], []
        for v, (z, z_norm) in enumerate(zip(fs.views, normalize_views(fs).views)):
            raw.append(tmp_path / f"raw{v}.csv")
            pre.append(tmp_path / f"pre{v}.csv")
            write_matrix_csv(raw[-1], z)
            write_matrix_csv(pre[-1], z_norm)
        argv = ["fit-mv", "--solver", "cmv", "--config", '{"latent_dim": 2, "max_outer": 3}']
        assert main(argv + ["--normalize", "--views", *map(str, raw),
                            "--out", str(tmp_path / "norm")]) == 0
        assert main(argv + ["--views", *map(str, pre), "--out", str(tmp_path / "pre")]) == 0
        assert main(argv + ["--views", *map(str, raw), "--out", str(tmp_path / "raw")]) == 0
        fitted = {d: read_matrix_csv(tmp_path / d / "X.csv") for d in ("norm", "pre", "raw")}
        assert np.array_equal(fitted["norm"], fitted["pre"])
        assert not np.array_equal(fitted["norm"], fitted["raw"])
        run = json.loads((tmp_path / "norm" / "run.json").read_text())
        assert run["params"]["normalize"] is True

    @pytest.mark.parametrize("kind", ["planted", "labeled", "pointset", "clusters"])
    def test_synth_rejects_unknown_params_key(self, tmp_path, capsys, kind):
        # A misspelled key is an error, not a silently ignored setting.
        out = tmp_path / "syn"
        capsys.readouterr()
        assert main(["synth", "--kind", kind, "--out", str(out),
                     "--params", '{"bogus": 1}']) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = _strict_json(lines[0])
        assert err["error"] == "validation"
        assert "unexpected keyword argument 'bogus'" in err["message"]
        assert not out.exists()

    def test_labels_with_more_than_one_column_are_rejected(self, tmp_path, capsys):
        data = tmp_path / "clusters"
        assert main(["synth", "--kind", "clusters", "--out", str(data)]) == 0
        labels = data / "labels.csv"
        write_matrix_csv(labels, read_labels(labels).reshape(33, 3))
        capsys.readouterr()
        out = tmp_path / "ev"
        assert main(["eval", "--task", "retrieval", "--distances", str(data / "view1.csv"),
                     "--labels", str(labels), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0])["message"] == (
            f"{labels}: labels must be one integer per line, got shape (33, 3)"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["planted", "pointset", "clusters"])
    def test_synth_corrupt_only_for_labeled(self, tmp_path, capsys, kind):
        out = tmp_path / "syn"
        capsys.readouterr()
        assert main([
            "synth", "--kind", kind, "--out", str(out),
            "--corrupt", json.dumps({"kind": "instance_replacement", "fraction": 0.5}),
        ]) == 2
        err = _strict_json(capsys.readouterr().err)
        assert err["error"] == "validation" and f"--kind {kind}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", [
        {"kind": "pixel_replacement", "fraction": 0.5},
        {"fraction": 0.25, "magnitude": 2.0, "view": 1, "seed": 11},
    ])
    def test_synth_run_json_rebuilds_corrupted_views(self, tmp_path, corrupt):
        out = tmp_path / "syn"
        assert main([
            "synth", "--kind", "labeled", "--out", str(out), "--seed", "5",
            "--params", '{"classes": 3, "per_class": 4, "view_dims": [5, 4], "latent_dim": 2}',
            "--corrupt", json.dumps(corrupt),
        ]) == 0
        run = json.loads((out / "run.json").read_text())
        params = run["params"]
        spec = dict(params["corrupt"])
        assert spec == {"view": 0, "kind": "instance_replacement", "seed": 5, **corrupt}
        # Rebuild the views from the echo alone.
        view = spec.pop("view")
        _, clean = gen_labeled_multiview(seed=params["seed"], **params["params"])
        apply = corrupt_instances if spec["kind"] == "instance_replacement" else corrupt_pixels
        rebuilt, _ = apply(clean, view, NoiseSpec(**spec))
        for v, (z, z_clean) in enumerate(zip(rebuilt.views, clean.views)):
            path = tmp_path / f"rebuilt{v}.csv"
            write_matrix_csv(path, z)
            assert file_sha256(path) == run["inputs"][str(out / f"view{v + 1}.csv")]
            assert np.array_equal(z, z_clean) == (v != view)

    def test_synth_planted_records_its_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "syn"
        capsys.readouterr()
        assert main(["synth", "--kind", "planted", "--out", str(out)]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        truth = ["true_latents.csv", "true_map1.csv", "true_map2.csv"]
        assert [Path(f).name for f in written] == truth + ["view1.csv", "view2.csv"]
        inputs = json.loads((out / "run.json").read_text())["inputs"]
        assert set(inputs) == set(written)
        for f in written:
            assert inputs[f] == file_sha256(f)

    # Flags point at files that do not exist: the flags are checked first.
    @pytest.mark.parametrize("task, flags, named", [
        ("knn", ["--features"], "--labels"),
        ("knn", ["--labels"], "--features, --configuration, --distances"),
        ("knn", ["--labels", "--features", "--distances"], "exactly one of"),
        ("retrieval", ["--distances"], "--labels"),
        ("retrieval", ["--labels"], "--configuration, --distances"),
        ("retrieval", ["--labels", "--configuration", "--distances"], "exactly one of"),
        ("retrieval", ["--labels", "--features"], "--configuration, --distances"),
        ("procrustes", ["--reference"], "--estimate"),
        ("procrustes", ["--estimate"], "--reference"),
        ("confusion", ["--labels"], "--predictions"),
        ("confusion", ["--predictions"], "--labels"),
    ], ids=[
        "knn-no-labels", "knn-no-matrix", "knn-two-matrices", "retrieval-no-labels",
        "retrieval-no-matrix", "retrieval-two-matrices", "retrieval-features",
        "procrustes-no-estimate", "procrustes-no-reference", "confusion-no-predictions",
        "confusion-no-labels",
    ])
    def test_eval_flags_checked_before_any_read(self, tmp_path, capsys, task, flags, named):
        argv = ["eval", "--task", task, "--out", str(tmp_path / "ev")]
        for flag in flags:
            argv += [flag, str(tmp_path / f"{flag[2:]}.csv")]
        capsys.readouterr()
        assert main(argv) == 2
        err = _strict_json(capsys.readouterr().err)
        assert err["error"] == "validation" and named in err["message"]
        assert not (tmp_path / "ev").exists()

    @staticmethod
    def _unread_eval_message(tmp_path, capsys, task, extra):
        """The one-line message of an eval run given the files ``task`` needs plus ``extra``."""
        points = tmp_path / "points.csv"
        write_matrix_csv(points, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]))
        labels = tmp_path / "labels.csv"
        write_labels(labels, [0, 0, 1, 1])
        needed = {
            "procrustes": ["--estimate", points, "--reference", points],
            "confusion": ["--predictions", labels, "--labels", labels],
            "knn": ["--configuration", points, "--labels", labels],
            "retrieval": ["--configuration", points, "--labels", labels],
        }[task]
        argv = ["eval", "--task", task, *map(str, needed), *extra]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "ev")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert not (tmp_path / "ev").exists()
        err = _strict_json(lines[0])
        assert err["error"] == "validation"
        return err["message"]

    # The files each task needs exist, so only the extra flag can reject the run.
    @pytest.mark.parametrize("task, extra", [
        ("procrustes", ["--labels"]),
        ("procrustes", ["--predictions", "--features"]),
        ("confusion", ["--estimate"]),
        ("confusion", ["--distances"]),
        ("knn", ["--reference"]),
        ("retrieval", ["--predictions"]),
    ])
    def test_eval_rejects_file_flags_the_task_does_not_read(self, tmp_path, capsys, task, extra):
        argv = []
        for flag in extra:
            argv += [flag, str(tmp_path / "unread.csv")]
        message = self._unread_eval_message(tmp_path, capsys, task, argv)
        assert message == f"eval --task {task} does not read {', '.join(extra)}"

    # Likewise, only the unread option can reject the run.
    @pytest.mark.parametrize("task, extra, named", [
        ("confusion", ["--k", "5", "--subset", "1", "--train-fraction", "3"],
         "--k, --train-fraction, --subset"),
        ("procrustes", ["--k", "1"], "--k"),
        ("procrustes", ["--labels", "unread.csv", "--train-fraction", "0.5"],
         "--labels, --train-fraction"),
        ("retrieval", ["--train-fraction", "0.5"], "--train-fraction"),
        ("knn", ["--subset", "0"], "--subset"),
    ])
    def test_eval_rejects_options_the_task_does_not_read(
        self, tmp_path, capsys, task, extra, named
    ):
        message = self._unread_eval_message(tmp_path, capsys, task, extra)
        assert message == f"eval --task {task} does not read {named}"

    def test_eval_options_not_given_keep_their_defaults(self, tmp_path):
        # k 1 for knn and retrieval, a 0.5 split for knn, no subset for procrustes.
        points = tmp_path / "points.csv"
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0], [5.0, 5.0], [4.0, 6.0]])
        write_matrix_csv(points, pts)
        labels = tmp_path / "labels.csv"
        write_labels(labels, [0, 0, 0, 1, 1, 1])
        common = ["--labels", str(labels), "--configuration", str(points), "--seed", "3"]
        assert main(["eval", "--task", "knn", *common, "--out", str(tmp_path / "knn")]) == 0
        assert main(["eval", "--task", "retrieval", *common, "--out", str(tmp_path / "r")]) == 0
        assert main([
            "eval", "--task", "procrustes", "--estimate", str(points), "--reference",
            str(points), "--out", str(tmp_path / "p"),
        ]) == 0
        split = seeded_split(read_labels(labels), 0.5, seed=3)
        knn = json.loads((tmp_path / "knn" / "scores.json").read_text())
        assert knn["k"] == 1 and knn["test_count"] == split.test_idx.size
        assert read_labels(tmp_path / "knn" / "test_labels.csv").tolist() == (
            split.labels[split.test_idx].tolist()
        )
        assert json.loads((tmp_path / "r" / "scores.json").read_text())["k"] == 1
        assert json.loads((tmp_path / "p" / "scores.json").read_text())["subset"] is None

    def test_confusion_names_an_unknown_prediction_plainly(self, tmp_path, capsys):
        predictions, labels = tmp_path / "p.csv", tmp_path / "l.csv"
        write_labels(predictions, [0, 7])
        write_labels(labels, [0, 1])
        capsys.readouterr()
        assert main([
            "eval", "--task", "confusion", "--predictions", str(predictions),
            "--labels", str(labels), "--out", str(tmp_path / "ev"),
        ]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0])["message"] == "prediction 7 is not a known class"
        assert not (tmp_path / "ev").exists()

    def test_fit_mv_rejects_uci_views_without_uci_dir(self, tmp_path, capsys):
        capsys.readouterr()
        assert main([
            "fit-mv", "--solver", "cmv", "--views", "v1.csv", "v2.csv", "--uci-views", "nope",
            "--out", str(tmp_path / "fit"),
        ]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0]) == {
            "error": "validation", "message": "--uci-views applies to --uci-dir only",
        }
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("matrix", ["--features", "--distances"])
    def test_confusion_on_knn_outputs_reproduces_knn_confusion(self, tmp_path, matrix):
        data = tmp_path / "data"
        kind = "labeled" if matrix == "--features" else "clusters"
        params = {"classes": 4, "per_class": 3}
        if kind == "labeled":
            params.update(view_dims=[6, 4], latent_dim=2)
        else:
            params.update(corrupt_per_view=2)
        assert main([
            "synth", "--kind", kind, "--out", str(data), "--params", json.dumps(params),
        ]) == 0
        knn, conf = tmp_path / "knn", tmp_path / "confusion"
        assert main([
            "eval", "--task", "knn", matrix, str(data / "view1.csv"),
            "--labels", str(data / "labels.csv"), "--out", str(knn), "--seed", "5",
        ]) == 0
        assert main([
            "eval", "--task", "confusion", "--predictions", str(knn / "predictions.csv"),
            "--labels", str(knn / "test_labels.csv"), "--out", str(conf),
        ]) == 0
        want = json.loads((knn / "scores.json").read_text())
        got = json.loads((conf / "scores.json").read_text())
        assert (got["classes"], got["matrix"]) == (want["classes"], want["confusion"])
        assert sum(map(sum, got["matrix"])) == want["test_count"]

    def test_confusion_rejects_knn_prediction_of_a_training_only_class(self, tmp_path, capsys):
        # Class 0 has one instance, so it is always in the training split, and
        # it is the nearest training point of either class-1 test instance.
        labels = tmp_path / "labels.csv"
        write_labels(labels, [0, 1, 1])
        feats = tmp_path / "f.csv"
        write_matrix_csv(feats, np.array([[0.0, -1.0, 1.5]]))
        knn = tmp_path / "knn"
        assert main([
            "eval", "--task", "knn", "--features", str(feats), "--labels", str(labels),
            "--out", str(knn),
        ]) == 0
        assert read_labels(knn / "predictions.csv").tolist() == [0]
        assert read_labels(knn / "test_labels.csv").tolist() == [1]
        capsys.readouterr()
        code = main([
            "eval", "--task", "confusion", "--predictions", str(knn / "predictions.csv"),
            "--labels", str(knn / "test_labels.csv"), "--out", str(tmp_path / "confusion"),
        ])
        assert code == 2
        assert "not a known class" in json.loads(capsys.readouterr().err)["message"]

    def test_long_inline_config_is_json_not_a_path(self, tmp_path):
        # Longer than a file name may be, and without a "/".
        params = '{"classes": 3, "per_class": 4, "view_dims": [5, 4], "latent_dim": 2' + (
            " " * 400 + "}"
        )
        assert len(params) > 400 and "/" not in params
        out = tmp_path / "syn"
        assert main(["synth", "--kind", "labeled", "--out", str(out), "--params", params]) == 0
        assert json.loads((out / "run.json").read_text())["params"]["params"]["per_class"] == 4

    def test_config_file_path_still_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"classes": 3, "per_class": 5, "view_dims": [5, 4], "latent_dim": 2}')
        out = tmp_path / "syn"
        assert main(["synth", "--kind", "labeled", "--out", str(out), "--params", str(cfg)]) == 0
        assert read_matrix_csv(out / "view1.csv").shape == (5, 15)

    @pytest.mark.parametrize("raw, problem", [
        ("{oops", "is not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"seed": NaN}', "is not valid JSON: NaN is not a finite number"),
        ('{"seed": -Infinity}', "is not valid JSON: -Infinity is not a finite number"),
        ('{"seed": 1e400}', "is not valid JSON: 1e400 is not a finite number"),
    ])
    @pytest.mark.parametrize("flag", ["--config", "--params", "--corrupt"])
    def test_json_error_names_its_flag(self, tmp_path, capsys, flag, raw, problem):
        if flag == "--config":
            f = tmp_path / "v.csv"
            write_matrix_csv(f, np.ones((4, 4)) - np.eye(4))
            argv = ["embed", "--solver", "cmds", "--views", str(f)]
        else:
            argv = ["synth", "--kind", "labeled"]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out"), flag, raw]) == 2
        err = _strict_json(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(f"{flag} {problem}")

    @pytest.mark.parametrize("command, field, value", [
        ("fit-mv", "view_sigmas", [1.0, 1.0]),
        ("embed", "schedule", "fixed"),
    ])
    def test_unknown_config_field_is_validation_error(
        self, tmp_path, capsys, command, field, value
    ):
        f = tmp_path / "v.csv"
        if command == "fit-mv":
            write_matrix_csv(f, np.random.default_rng(8).standard_normal((4, 9)))
            argv = ["fit-mv", "--solver", "cemv", "--views", str(f), str(f)]
            config = {"latent_dim": 2, field: value}
        else:
            write_matrix_csv(f, np.ones((4, 4)) - np.eye(4))
            argv = ["embed", "--solver", "ree", "--views", str(f)]
            config = {"max_iter": 4, field: value}
        capsys.readouterr()
        code = main(argv + ["--out", str(tmp_path / "out"), "--config", json.dumps(config)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = _strict_json(lines[0])
        assert err["error"] == "validation" and field in err["message"]

    @pytest.mark.parametrize("task", ["retrieval", "knn"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["fewer-labels", "more-labels"])
    def test_label_count_must_match_instances(self, tmp_path, capsys, task, extra):
        data = tmp_path / "clusters"
        assert main(["synth", "--kind", "clusters", "--out", str(data)]) == 0
        labels = read_labels(data / "labels.csv")
        assert labels.size == 99
        bad = tmp_path / "labels.csv"
        write_labels(bad, labels[:-1] if extra < 0 else np.append(labels, labels[0]))
        capsys.readouterr()
        code = main([
            "eval", "--task", task, "--distances", str(data / "view1.csv"),
            "--labels", str(bad), "--out", str(tmp_path / "ev"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "one row per label" in err["message"]
        assert not (tmp_path / "ev" / "scores.json").exists()

    def test_knn_prediction_of_class_absent_from_test_split(self, tmp_path, capsys):
        # One instance of class 0, so it lands in the training split, and the
        # nearest training neighbour of a class-1 test instance may be it.
        labels = tmp_path / "labels.csv"
        write_labels(labels, np.array([0, 1, 1]))
        feats = tmp_path / "f.csv"
        write_matrix_csv(feats, np.array([[0.0, 1.0, 5.0]]))
        capsys.readouterr()
        code = main([
            "eval", "--task", "knn", "--features", str(feats), "--labels", str(labels),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 0, capsys.readouterr().err
        scores = json.loads((tmp_path / "ev" / "scores.json").read_text())
        assert scores["classes"] == [0, 1]
        assert np.sum(scores["confusion"]) == scores["test_count"]

    def test_knn_without_test_items_is_validation_error(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        write_labels(labels, np.arange(6))
        dist = tmp_path / "d.csv"
        write_matrix_csv(dist, np.ones((6, 6)) - np.eye(6))
        capsys.readouterr()
        code = main([
            "eval", "--task", "knn", "--distances", str(dist), "--labels", str(labels),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 2
        assert "empty test set" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "ev" / "scores.json").exists()

    @pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
    def test_extreme_kernel_size_is_validation_error(self, tmp_path, capsys, sigma):
        data = tmp_path / "pts"
        assert main(["synth", "--kind", "pointset", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main([
            "embed", "--solver", "cmvree", "--views", str(data / "view1.csv"),
            str(data / "view2.csv"), "--out", str(tmp_path / "emb"),
            "--config", '{"sigma": %s, "max_iter": 4}' % sigma,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "use a size between 1.05e-154 and 9.48e+153" in err["message"]

    @pytest.mark.parametrize("config, field", [
        (EmbedConfig, "step"), (EmbedConfig, "alpha"),
        (CmvConfig, "c1"), (CmvConfig, "c2"), (CmvConfig, "rel_tol"),
    ])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_settings_rejected(self, config, field, value):
        base = {"latent_dim": 2} if config is CmvConfig else {"sigma": 1.0}
        with pytest.raises(ValueError, match=f"{field}.* must be finite"):
            config(**{**base, field: value})

    def test_extreme_feature_kernel_sizes_rejected(self):
        for sigma in (1e-300, 1e300):
            with pytest.raises(ValueError, match="out of range"):
                CmvConfig(latent_dim=2, sigma=sigma)
        with pytest.raises(ValueError, match="alpha=1.5"):
            EmbedConfig(sigma=1e300, alpha=1.5)
        EmbedConfig(sigma=1e-150)
        CmvConfig(latent_dim=2, sigma=1e150)

    @pytest.mark.parametrize("value", [2.5, "3", True])
    @pytest.mark.parametrize("config, field", [
        (CmvConfig, "latent_dim"),
        (CmvConfig, "max_outer"),
        (CmvConfig, "max_inner"),
        (CmvConfig, "seed"),
        (EmbedConfig, "target_dim"),
        (EmbedConfig, "max_iter"),
        (EmbedConfig, "seed"),
    ])
    def test_integer_config_fields_reject_non_integers(self, config, field, value):
        base = {"latent_dim": 2} if config is CmvConfig else {}
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=message):
            config(**{**base, field: value})

    def test_integral_float_config_fields_become_ints(self):
        cfg = CmvConfig(latent_dim=3.0, max_outer=4.0)
        assert (cfg.latent_dim, cfg.max_outer) == (3, 4)
        assert type(cfg.latent_dim) is int and type(EmbedConfig(seed=7.0).seed) is int

    def test_bool_is_not_an_integer(self, tmp_path, capsys):
        for name in ("latent_dim", "max_outer", "max_inner", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                CmvConfig(**{"latent_dim": 2, name: True})
        for name in ("target_dim", "max_iter", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                EmbedConfig(**{name: True})
        data = tmp_path / "pts"
        assert main(["synth", "--kind", "pointset", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main([
            "embed", "--solver", "mvree", "--views", str(data / "view1.csv"),
            "--out", str(tmp_path / "emb"), "--config", '{"max_iter": true}',
        ])
        assert code == 2
        assert "max_iter must be an integer" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("cell,flags", [("inf", []), ("nan", []), ("1e200", ["--square"])])
    def test_non_finite_dissimilarity_is_validation_error(self, tmp_path, capsys, cell, flags):
        f = tmp_path / "X.csv"
        f.write_text(f"0,1,{cell}\n1,0,2\n{cell},2,0\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "embed", "--solver", "cmds", "--views", str(f), "--out", str(tmp_path / "o"),
                *flags,
            ])
        assert code == 2
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validation"
        assert str(f) in err["message"] and "non-finite" in err["message"]

    def test_asymmetry_near_float_max_does_not_overflow(self, tmp_path, capsys):
        # m - m.T on these cells is 2e308 = inf; halving first keeps it finite.
        f = tmp_path / "X.csv"
        f.write_text("0,1e308,1\n-1e308,0,2\n1,2,0\n")
        out = tmp_path / "o"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["embed", "--solver", "cmds", "--views", str(f), "--out", str(out)])
        assert code == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        report = json.loads((out / "run.json").read_text())["ingest_report"][0]
        assert report["max_asymmetry"] == 1e308
        views, _ = ingest_dissimilarities([f])
        np.testing.assert_array_equal(
            views.deltas[0], [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
        )

    @pytest.mark.parametrize("argv", [
        ["fit-mv", "--solver", "cmv", "--views", "MISSING"],
        ["fit-mv", "--solver", "cmv", "--views", "VIEW", "VIEW",
         "--config", '{"latent_dim": 2.5}'],
        ["embed", "--solver", "cmds", "--views", "MISSING"],
        ["embed", "--solver", "cmds", "--views", "DIST", "--config", '{"target_dim": 2.5}'],
        ["embed", "--solver", "ree", "--views", "DIST", "--config", '{"seed": "x"}'],
        ["eval", "--task", "retrieval", "--distances", "MISSING", "--labels", "LABELS"],
        ["eval", "--task", "retrieval", "--distances", "DIST", "--labels", "VIEW"],
        # An input path that names a directory.
        ["fit-mv", "--solver", "cmv", "--views", "DIR", "DIR"],
        ["embed", "--solver", "cmds", "--views", "DIR"],
        ["eval", "--task", "retrieval", "--distances", "DIR", "--labels", "LABELS"],
        # An empty flag is given, not absent.
        ["synth", "--kind", "labeled", "--corrupt", ""],
        ["eval", "--task", "retrieval", "--distances", "DIST", "--labels", "LABELS",
         "--configuration", ""],
        ["eval", "--task", "procrustes", "--estimate", "VIEW", "--reference", "VIEW",
         "--labels", ""],
        ["fit-mv", "--solver", "cmv", "--views", "VIEW", "VIEW", "--uci-dir", "",
         "--config", '{"latent_dim": 2}'],
        # A generator without latent dimensions.
        ["synth", "--kind", "planted", "--params", '{"latent_dim": 0}'],
        ["synth", "--kind", "labeled", "--params", '{"latent_dim": 0}'],
    ])
    def test_rejected_run_leaves_no_output_directory(self, tmp_path, capsys, argv):
        files = {name: tmp_path / f"{name.lower()}.csv" for name in ("MISSING", "VIEW", "DIST")}
        write_matrix_csv(files["VIEW"], np.arange(1.0, 13.0).reshape(3, 4))
        write_matrix_csv(files["DIST"], np.ones((4, 4)) - np.eye(4))
        files["DIR"] = tmp_path / "inputs"
        files["DIR"].mkdir()
        files["LABELS"] = tmp_path / "labels.csv"
        write_labels(files["LABELS"], [0, 0, 1, 1])
        capsys.readouterr()
        argv = [str(files.get(a, a)) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out" / "run")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and _strict_json(lines[0])["error"] == "validation"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--kind", "pointset"], ["--config", "{}"]),
        (["eval", "--task", "confusion"], ["--config", "{}"]),
        (["recipe", "--name", "pointset-25"], ["--config", "{}"]),
        (["fit-mv", "--solver", "cmv", "--views", "a.csv"], ["--duplicate"]),
        (["fit-mv", "--solver", "cmv"], ["--manifest", "manifest.json"]),
    ])
    def test_options_nothing_reads_are_usage_errors(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fit_mv_reads_uci_directory(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        np.savetxt(tmp_path / "mfeat-fou", rng.standard_normal((12, 5)), fmt="%.17g")
        np.savetxt(tmp_path / "mfeat-kar", rng.standard_normal((12, 3)), fmt="%.17g")
        out = tmp_path / "fit"
        assert main([
            "fit-mv", "--solver", "cmv", "--uci-dir", str(tmp_path), "--uci-views", "fou,kar",
            "--out", str(out), "--config", '{"latent_dim": 2, "max_outer": 3}',
        ]) == 0
        assert read_matrix_csv(out / "X.csv").shape == (2, 12)
        files = [tmp_path / f"mfeat-{name}" for name in ("fou", "kar")]
        run = json.loads((out / "run.json").read_text())
        assert run["inputs"] == {str(f): file_sha256(f) for f in files}

    @pytest.mark.parametrize("subset, message", [
        ("99", "subset must hold row indices in [0, 25), got [99]"),
        ("-1", "subset must hold row indices in [0, 25), got [-1]"),
        ("0,x", "--subset takes comma-separated row indices, not '0,x'"),
        ("", "--subset takes comma-separated row indices, not ''"),
    ])
    def test_procrustes_subset_is_validated(self, tmp_path, capsys, subset, message):
        data = tmp_path / "pts"
        assert main(["synth", "--kind", "pointset", "--out", str(data)]) == 0
        points = str(data / "points.csv")
        capsys.readouterr()
        code = main([
            "eval", "--task", "procrustes", "--estimate", points, "--reference", points,
            "--subset", subset, "--out", str(tmp_path / "ev"),
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and _strict_json(lines[0])["message"] == message
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--kind", "pointset"],
        ["fit-mv", "--solver", "cmv", "--views", "VIEW", "VIEW", "--config", '{"latent_dim": 2}'],
        ["embed", "--solver", "cmds", "--views", "DIST"],
        ["eval", "--task", "retrieval", "--distances", "DIST", "--labels", "LABELS"],
        ["recipe", "--name", "pointset-25"],
    ])
    def test_out_naming_a_file_is_validation_error(self, tmp_path, capsys, argv):
        files = {"VIEW": tmp_path / "view.csv", "DIST": tmp_path / "dist.csv"}
        write_matrix_csv(files["VIEW"], np.arange(1.0, 13.0).reshape(3, 4))
        write_matrix_csv(files["DIST"], np.ones((4, 4)) - np.eye(4))
        files["LABELS"] = tmp_path / "labels.csv"
        write_labels(files["LABELS"], [0, 0, 1, 1])
        out = tmp_path / "taken"
        out.write_text("keep\n")
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main([str(files.get(a, a)) for a in argv] + ["--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and _strict_json(lines[0])["error"] == "validation"
        assert str(out) in lines[0]
        assert out.read_text() == "keep\n" and _tree(tmp_path) == before

    def test_overflowing_procrustes_error_is_numerical(self, tmp_path, capsys):
        # Finite points near 1e300 whose cross-covariance and squared error overflow.
        rng = np.random.default_rng(0)
        estimate, reference = tmp_path / "estimate.csv", tmp_path / "reference.csv"
        write_matrix_csv(estimate, rng.standard_normal((6, 2)) * 1e300)
        write_matrix_csv(reference, rng.standard_normal((6, 2)) * 1e300)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--task", "procrustes", "--estimate", str(estimate),
                         "--reference", str(reference), "--out", str(tmp_path / "ev")])
        assert code == 3 and caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and _strict_json(lines[0])["error"] == "numerical"
        assert not (tmp_path / "ev").exists()

    def test_cmds_requires_single_view(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 2))
        d = np.sum((x[:, None] - x[None]) ** 2, axis=2)
        f = tmp_path / "d.csv"
        write_matrix_csv(f, d)
        assert main(["embed", "--solver", "cmds", "--views", str(f), str(f),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["embed", "--solver", "cmds", "--views", str(f),
                     "--out", str(tmp_path / "o"),
                     "--config", '{"target_dim": 2}']) == 0


class TestRecipes:
    def test_pointset_recipe_is_deterministic(self, tmp_path):
        s1 = run_recipe("pointset-25", seed=9, out_dir=tmp_path / "r1")
        s2 = run_recipe("pointset-25", seed=9, out_dir=tmp_path / "r2")
        j1 = (tmp_path / "r1" / "summary.json").read_text()
        j2 = (tmp_path / "r2" / "summary.json").read_text()
        assert j1 == j2
        assert s1["results"]["mvree"]["rmse_all"] == s2["results"]["mvree"]["rmse_all"]
        for method in ("ree-view1", "ree-view2", "mvree", "cmvree"):
            assert (tmp_path / "r1" / "configurations" / f"{method}.csv").exists()
            assert (tmp_path / "r1" / "traces" / f"{method}.csv").exists()

    def test_unknown_recipe(self, tmp_path):
        with pytest.raises(ValueError, match="unknown recipe"):
            run_recipe("nope", out_dir=tmp_path)

    @pytest.mark.parametrize("name", ["pointset-25", "cluster-retrieval"])
    def test_full_scale_only_for_uci_noise(self, tmp_path, capsys, name):
        capsys.readouterr()
        assert main(["recipe", "--name", name, "--full", "--out", str(tmp_path / "r")]) == 2
        err = _strict_json(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "uci-noise-1" in err["message"] and "uci-noise-2" in err["message"]
        assert not (tmp_path / "r").exists()

    def test_uci_noise_recipe_emits_six_methods_and_weight_curves(self, tmp_path):
        summary = run_recipe("uci-noise-1", seed=1, out_dir=tmp_path / "u1")
        rows = summary["results"]
        assert [row["fraction"] for row in rows] == [0.0, 0.125, 0.25, 0.5]
        for row in rows:
            assert set(row["accuracy"]) == {
                "view1", "view2", "concat", "l2mv", "cmv", "cemv",
            }
            assert set(row["stop"]) == set(row["accuracy"])
            for stop in row["stop"].values():
                _check_stop(stop)
        quarter = rows[2]["weights"]["cmv"]
        assert quarter["view1_clean"] > quarter["view1_noisy"]
        run = json.loads((tmp_path / "u1" / "run.json").read_text())
        assert set(run["inputs"]) == {"view1.csv", "view2.csv", "labels.csv"}
        assert (tmp_path / "u1" / "latent" / "m1_f0.5_cmv.csv").exists()

    def test_cluster_retrieval_recipe_cli(self, tmp_path):
        out = tmp_path / "r"
        argv = ["recipe", "--name", "cluster-retrieval", "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        lineup = ("ree-view1", "ree-view2", "mvree", "cmvree")
        assert _tree(out) == {
            "run.json", "summary.json", "data/view1.csv", "data/view2.csv", "data/labels.csv",
            *(f"{d}/{m}.csv" for d in ("configurations", "traces") for m in lineup),
        }
        summary = json.loads((out / "summary.json").read_text())
        results = summary["results"]
        assert set(results) == {"raw-view1", "raw-view2", "hadamard", *lineup}
        for method in lineup[:3]:
            assert results[method]["converged"] is False
            assert results[method]["reason"] == "max_iter reached"
        _check_stop(results["cmvree"])
        max_score = summary["run"]["params"]["max_score"]
        for result in results.values():
            assert 0 <= result["total_correct"] <= max_score

    def test_uci_noise_2_recipe_cli(self, tmp_path):
        out = tmp_path / "r"
        assert main(["recipe", "--name", "uci-noise-2", "--seed", "0", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["results"]
        assert [(row["magnitude"], row["fraction"]) for row in rows] == [
            (m, f) for m in (1.0, 3.0) for f in (0.0, 0.25, 0.5, 0.75)
        ]
        tags = [
            f"m{row['magnitude']:g}_f{row['fraction']:g}_{method}"
            for row in rows
            for method in FEATURE_METHODS
        ]
        assert _tree(out) == {
            "run.json", "summary.json", "data/view1.csv", "data/view2.csv", "data/labels.csv",
            *(f"{d}/{tag}.csv" for d in ("latent", "traces") for tag in tags),
        }
        for row in rows:
            assert set(row["accuracy"]) == set(row["stop"]) == set(FEATURE_METHODS)
            for acc in row["accuracy"].values():
                assert 0.0 <= acc <= 1.0
            for stop in row["stop"].values():
                _check_stop(stop)
            assert set(row["weights"]) == {"cemv_pixels"}

    @pytest.mark.parametrize("name, target", [
        ("pointset-25", "ree_fit"), ("uci-noise-1", "fit_feature_method"),
    ])
    @pytest.mark.parametrize("error, code, kind", [
        (NumericalError, 3, "numerical"), (ValueError, 2, "validation"),
    ])
    def test_failed_fit_creates_no_out(
        self, tmp_path, capsys, monkeypatch, name, target, error, code, kind
    ):
        # The third fit of the lineup fails after two have succeeded; the
        # recipe writes nothing, not even its data.  With threaded BLAS the
        # fits run in-process, where the calls are counted.
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        real = getattr(robustmv.recipes, target)
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise error("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(robustmv.recipes, target, third_fails)
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["recipe", "--name", name, "--out", str(out)]) == code
        assert len(calls) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert _strict_json(err[0]) == {"error": kind, "message": "injected failure"}
        assert not out.exists()

    @pytest.mark.parametrize("name, target", [
        ("pointset-25", "ree_fit"), ("uci-noise-1", "fit_feature_method"),
    ])
    @pytest.mark.parametrize("error, code, kind", [
        (NumericalError, 3, "numerical"), (ValueError, 2, "validation"),
    ])
    def test_failed_forked_fit_creates_no_out(
        self, tmp_path, capfd, monkeypatch, name, target, error, code, kind
    ):
        # Two fit processes, whatever the host.  The fourth entry of the
        # lineup fails: cmvree in the child (pointset-25), or every cell's
        # l2mv, in both processes (uci-noise-1).  The recipe redoes its fits
        # in-process, fails with the same error and writes nothing.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(robustmv.io, "_workers", lambda: 2)
        real, fork, forks = getattr(robustmv.recipes, target), os.fork, []

        def entry_fails(*args, **kwargs):
            if kwargs.get("loss") == "correntropy" or args[0] == "l2mv":
                raise error("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(robustmv.recipes, target, entry_fails)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        capfd.readouterr()
        out = tmp_path / "r"
        assert main(["recipe", "--name", name, "--out", str(out)]) == code
        assert forks == [1]
        out_text, err_text = capfd.readouterr()
        assert out_text == ""
        err = err_text.splitlines()
        assert len(err) == 1
        assert _strict_json(err[0]) == {"error": kind, "message": "injected failure"}
        assert not out.exists()

    def test_recipe_cli(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main([
            "recipe", "--name", "pointset-25", "--seed", "2", "--out", str(tmp_path / "r"),
        ]) == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert set(summary["results"]) == {"ree-view1", "ree-view2", "mvree", "cmvree"}
        cmvree = summary["results"].pop("cmvree")
        assert cmvree["converged"] is True
        assert cmvree["reason"] == "score change below tolerance"
        for result in summary["results"].values():
            assert result["converged"] is False and result["reason"] == "max_iter reached"
        run = json.loads((tmp_path / "r" / "run.json").read_text())
        assert run == summary["run"]
        assert set(run["inputs"]) == {"points.csv", "view1.csv", "view2.csv"}
        _check_environment(run["environment"])


def _tree(root):
    """Every file under ``root``, as POSIX paths relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


# Every stop reason an iterative solver records, and whether it counts as converged.
_STOP_REASONS = {
    "max_iter reached": False,
    "max_outer reached": False,
    "latent matrix collapsed to zero": False,
    "no ascent step": True,
    "score change below tolerance": True,
    "objective change below rel_tol": True,
}


def _check_stop(stop):
    assert stop["converged"] is _STOP_REASONS[stop["reason"]]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _sweep_matrix(kind, shape, symmetric):
    # "random" cells are small integers; "constant" repeats one value.
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, 2.5)
    m = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) % 4.0
    return m + m.T if symmetric else m


def _outlier_views(tmp, outlier):
    """Two squared-distance views of one 30-point layout, as file names.

    With ``outlier`` the second view's (0, 1) pair is 1e200, whose squared
    error overflows.
    """
    x = np.random.default_rng(0).standard_normal((30, 2))
    d = np.sum((x[:, None] - x[None]) ** 2, axis=2)
    files = [tmp / "view1.csv", tmp / "view2.csv"]
    write_matrix_csv(files[0], d)
    if outlier:
        d[0, 1] = d[1, 0] = 1e200
    write_matrix_csv(files[1], d)
    return [str(f) for f in files]


_sweep_case = st.fixed_dictionaries({
    "command": st.sampled_from(["embed", "fit-mv", "knn", "retrieval"]),
    "n": st.integers(1, 3),
    "data": st.sampled_from(["random", "constant", "zero"]),
    "sigma": st.sampled_from([1e-300, 1e-8, 1e8, 1e300]),
    "solver": st.integers(0, 3),
    "views": st.integers(1, 2),
    "label_extra": st.sampled_from([0, 0, -1, 1]),
    "labels": st.lists(st.integers(0, 2), min_size=4, max_size=4),
    "k": st.integers(1, 3),
    "points": st.booleans(),
})


# A solver setting anywhere from 1e-300 to 1e300, and iteration caps that are
# small, not positive or not integers (a cap of 1e300 would be honored).
_setting = st.one_of(
    st.sampled_from([1e-300, 0.5, 1.5, 3.0, 1e300]),
    st.integers(-300, 300).map(lambda p: 10.0**p),
)
_settings_case = st.fixed_dictionaries({
    "command": st.sampled_from(["embed", "fit-mv"]),
    "solver": st.integers(0, 3),
    "settings": st.tuples(_setting, _setting),
    "cap": st.sampled_from([1, 2, 5, 8, 0, -1, 2.5, 1e-300]),
    "outlier": st.booleans(),
})

_FIT_OUTLIER = {"command": "fit-mv", "settings": (1e-3, 1e-3), "cap": 2, "outlier": True}


class TestCliSweep:
    """Every small, degenerate or extreme input exits 0, 2 or 3, never with a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(case=_sweep_case)
    def test_exit_codes_and_artifacts(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            self._check_run(self._argv(case, Path(tmp)), Path(tmp) / "out", case)

    @settings(max_examples=100, deadline=None)
    @given(case=_settings_case)
    @example(case={  # cmvree's gradient at alpha 3 meets the outlier's 0 kernel
        "command": "embed", "solver": 3, "settings": (0.1, 3.0), "cap": 8, "outlier": True,
    })
    @example(case={  # every cmvree ascent trial at step 1e300 overflows
        "command": "embed", "solver": 3, "settings": (1e300, 0.5), "cap": 1, "outlier": False,
    })
    @example(case={  # the gradient change's squared norm underflows to 0 in the BB step
        "command": "embed", "solver": 3, "settings": (1e-300, 1e-300), "cap": 8,
        "outlier": False,
    })
    # Each feature solver's squared residuals, or its products, overflow on
    # the outlier read as a feature.
    @example(case={**_FIT_OUTLIER, "solver": 0})
    @example(case={**_FIT_OUTLIER, "solver": 1})
    @example(case={**_FIT_OUTLIER, "solver": 2})
    @example(case={**_FIT_OUTLIER, "solver": 3})
    def test_solver_settings_at_extremes(self, case):
        # embed's step, alpha and max_iter, on views with or without the outlier
        # pair; fit-mv's c1, c2 and iteration caps, on plain features or on
        # the outlier view pair read as features.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            first, second = case["settings"]
            if case["command"] == "embed":
                solver = robustmv.cli._EMBED_SOLVERS[case["solver"]]
                views = _outlier_views(tmp, case["outlier"])
                if solver in ("cmds", "ree"):
                    views = views[1:]
                config = {"step": first, "alpha": second, "max_iter": case["cap"]}
            else:
                solver = sorted(robustmv.cli._FIT_SOLVERS)[case["solver"]]
                if case["outlier"]:
                    views = _outlier_views(tmp, True)
                else:
                    f = np.random.default_rng(1).standard_normal((4, 30))
                    views = [tmp / "view1.csv", tmp / "view2.csv"]
                    write_matrix_csv(views[0], f[:2])
                    write_matrix_csv(views[1], f[2:])
                config = {"latent_dim": 2, "c1": first, "c2": second,
                          "max_outer": case["cap"], "max_inner": case["cap"]}
            argv = [case["command"], "--solver", solver, "--views", *map(str, views),
                    "--config", json.dumps(config)]
            self._check_run(argv, tmp / "out", case)

    @pytest.mark.parametrize("command, config", [
        # Backtracking halved an infinite step for ever.
        ("embed", '{"step": Infinity, "max_iter": 1}'),
        # The kernel met inf * 0 and warned.
        ("embed", '{"alpha": Infinity, "sigma": 1.0}'),
        # The fit ran, then run.json refused the inf and left X.csv, trace.csv
        # and weights.csv in --out.
        ("fit-mv", '{"rel_tol": 1e400}'),
        ("fit-mv", '{"c1": NaN}'),
        # An integer too large for a float raised OverflowError, a traceback.
        pytest.param("fit-mv", '{"c1": 1%s}' % ("0" * 400), id="fit-mv-c1-10**400"),
    ])
    def test_non_finite_settings_are_validation_errors(self, command, config):
        with tempfile.TemporaryDirectory() as tmp:
            views = _outlier_views(Path(tmp), False)
            solver = "cmvree" if command == "embed" else "cmv"
            argv = [command, "--solver", solver, "--views", *views, "--config", config]
            code, lines = self._check_run(argv, Path(tmp) / "out", config)
        assert code == 2
        assert _strict_json(lines[0])["message"].startswith("--config is not valid JSON")

    @staticmethod
    def _check_run(argv, out, case):
        """Run the CLI and check how it ended; returns the exit code and the stderr lines."""
        # A RuntimeWarning fails the run: the suite turns it into an error.
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2, 3), (case, code)
        lines = stderr.getvalue().splitlines()
        if code != 0:
            assert len(lines) == 1, (case, lines)
            assert _strict_json(lines[0])["error"] in ("validation", "numerical")
            assert not out.exists(), case
        for written in out.rglob("*.json") if out.exists() else ():
            _strict_json(written.read_text())
        return code, lines

    @staticmethod
    def _argv(case, tmp):
        n, data = case["n"], case["data"]
        if case["command"] == "embed":
            solver = ("cmds", "ree", "mvree", "cmvree")[case["solver"]]
            files = []
            for v in range(case["views"]):
                f = tmp / f"view{v}.csv"
                write_matrix_csv(f, _sweep_matrix(data, (n, n), symmetric=True))
                files.append(str(f))
            config = {"target_dim": n - 1, "sigma": case["sigma"], "max_iter": 4}
            return ["embed", "--solver", solver, "--views", *files,
                    "--config", json.dumps(config)]
        if case["command"] == "fit-mv":
            solver = sorted(robustmv.cli._FIT_SOLVERS)[case["solver"]]
            f = tmp / "view.csv"
            write_matrix_csv(f, _sweep_matrix(data, (2, n), symmetric=False))
            config = {"latent_dim": n - 1, "sigma": case["sigma"],
                      "max_outer": 2, "max_inner": 2}
            return ["fit-mv", "--solver", solver, "--views", str(f), str(f),
                    "--config", json.dumps(config)]
        labels = tmp / "labels.csv"
        write_labels(labels, case["labels"][: max(n + case["label_extra"], 0)])
        f = tmp / "data.csv"
        if case["points"]:
            # Features are stored dims x instances, configurations instances x dims.
            if case["command"] == "knn":
                flag, shape = "--features", (2, n)
            else:
                flag, shape = "--configuration", (n, 2)
            write_matrix_csv(f, _sweep_matrix(data, shape, symmetric=False))
        else:
            flag = "--distances"
            write_matrix_csv(f, _sweep_matrix(data, (n, n), symmetric=True))
        return ["eval", "--task", case["command"], "--labels", str(labels), flag, str(f),
                "--k", str(case["k"])]
