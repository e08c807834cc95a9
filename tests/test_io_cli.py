"""File ingestion, artifact round trips and the command-line surface."""

import json
import os
import warnings

import numpy as np
import pytest
import scipy

import robustmv.cli
import robustmv.io
from robustmv.cli import main
from robustmv.embedding import EmbedConfig
from robustmv.features import CmvConfig
from robustmv.io import (
    file_sha256,
    ingest_dissimilarities,
    ingest_features,
    ingest_uci_directory,
    load_manifest,
    read_labels,
    read_matrix_csv,
    write_json,
    write_labels,
    write_matrix_csv,
)
from robustmv.recipes import run_recipe


def _check_environment(env):
    # The test sets OPENBLAS_NUM_THREADS and unsets OMP_NUM_THREADS.
    assert env == {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
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


class TestIngestFeatures:
    def test_instance_count_mismatch_names_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(a, np.zeros((2, 4)))
        write_matrix_csv(b, np.zeros((3, 5)))
        with pytest.raises(ValueError) as err:
            ingest_features([a, b])
        msg = str(err.value)
        assert "a.csv" in msg and "b.csv" in msg and "4" in msg and "5" in msg

    def test_duplicate_single(self, tmp_path):
        a = tmp_path / "a.csv"
        write_matrix_csv(a, np.arange(6.0).reshape(2, 3))
        fs = ingest_features([a], duplicate_single=True)
        assert fs.n_views == 2
        np.testing.assert_array_equal(fs.views[0], fs.views[1])

    def test_uci_layout_transposed(self, tmp_path):
        # multiple-features layout: whitespace separated, rows = instances
        rng = np.random.default_rng(1)
        pix = rng.standard_normal((10, 6))  # 10 instances, 6 dims
        zer = rng.standard_normal((10, 3))
        np.savetxt(tmp_path / "mfeat-pix", pix, fmt="%.17g")
        np.savetxt(tmp_path / "mfeat-zer", zer, fmt="%.17g")
        fs = ingest_uci_directory(tmp_path)
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


class TestManifest:
    def test_relative_paths_resolved(self, tmp_path):
        write_matrix_csv(tmp_path / "v1.csv", np.ones((2, 3)))
        (tmp_path / "m.json").write_text(
            json.dumps({"views": ["v1.csv"], "config": {"latent_dim": 2}})
        )
        data = load_manifest(tmp_path / "m.json")
        fs = ingest_features(data["views"])
        assert fs.n_instances == 3
        assert data["config"]["latent_dim"] == 2

    def test_invalid_json(self, tmp_path):
        (tmp_path / "m.json").write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_manifest(tmp_path / "m.json")


class TestCli:
    def test_synth_fit_eval_pipeline(self, tmp_path):
        data = tmp_path / "data"
        assert main([
            "synth", "--kind", "labeled", "--out", str(data), "--seed", "3",
            "--params", '{"classes": 4, "per_class": 8, "view_dims": [10, 5], "latent_dim": 3}',
        ]) == 0
        fit = tmp_path / "fit"
        assert main([
            "fit-mv", "--solver", "cmv", "--manifest", str(data / "manifest.json"),
            "--out", str(fit), "--seed", "3",
            "--config", '{"latent_dim": 3, "max_outer": 8}',
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

        monkeypatch.setitem(robustmv.cli._FIT_SOLVERS, "cmv", failing_solver)
        f = tmp_path / "v.csv"
        write_matrix_csv(f, np.arange(12.0).reshape(3, 4))
        code = main([
            "fit-mv", "--solver", "cmv", "--views", str(f), str(f),
            "--out", str(tmp_path / "out"), "--config", '{"latent_dim": 2}',
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"

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
        meta = json.loads((out / "meta.json").read_text())
        assert meta["reason"] == "no ascent step" and meta["converged"] is True

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

    def test_fit_mv_ignores_manifest_labels(self, tmp_path):
        data = tmp_path / "data"
        assert main([
            "synth", "--kind", "labeled", "--out", str(data),
            "--params", '{"classes": 3, "per_class": 5, "view_dims": [5, 4], "latent_dim": 2}',
        ]) == 0
        with open(data / "labels.csv", "a", encoding="utf-8") as fh:
            fh.write("1.5\n")
        assert main([
            "fit-mv", "--solver", "cmv", "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "fit"), "--config", '{"latent_dim": 2, "max_outer": 3}',
        ]) == 0

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

    def test_nan_view_sigma_is_validation_error(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="view_sigmas"):
            CmvConfig(latent_dim=2, view_sigmas=[float("nan"), 1.0])
        f = tmp_path / "v.csv"
        write_matrix_csv(f, np.random.default_rng(8).standard_normal((4, 9)))
        capsys.readouterr()
        code = main([
            "fit-mv", "--solver", "cemv", "--views", str(f), str(f),
            "--out", str(tmp_path / "out"),
            "--config", '{"latent_dim": 2, "view_sigmas": [NaN, 1]}',
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

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

    def test_extreme_feature_kernel_sizes_rejected(self):
        for sigma in (1e-300, 1e300):
            with pytest.raises(ValueError, match="out of range"):
                CmvConfig(latent_dim=2, sigma=sigma)
            with pytest.raises(ValueError, match="view_sigmas"):
                CmvConfig(latent_dim=2, view_sigmas=[1.0, sigma])
        with pytest.raises(ValueError, match="alpha=1.5"):
            EmbedConfig(sigma=1e300, alpha=1.5)
        EmbedConfig(sigma=1e-150)
        CmvConfig(latent_dim=2, sigma=1e150)

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

    def test_uci_noise_recipe_emits_six_methods_and_weight_curves(self, tmp_path):
        summary = run_recipe("uci-noise-1", seed=1, out_dir=tmp_path / "u1")
        rows = summary["results"]
        assert [row["fraction"] for row in rows] == [0.0, 0.125, 0.25, 0.5]
        for row in rows:
            assert set(row["accuracy"]) == {
                "view1", "view2", "concat", "l2mv", "cmv", "cemv",
            }
        quarter = rows[2]["weights"]["cmv"]
        assert quarter["view1_clean"] > quarter["view1_noisy"]
        run = json.loads((tmp_path / "u1" / "run.json").read_text())
        assert set(run["inputs"]) == {"view1.csv", "view2.csv", "labels.csv"}
        assert (tmp_path / "u1" / "latent" / "m1_f0.5_cmv.csv").exists()

    def test_recipe_cli(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main([
            "recipe", "--name", "pointset-25", "--seed", "2", "--out", str(tmp_path / "r"),
        ]) == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert set(summary["results"]) == {"ree-view1", "ree-view2", "mvree", "cmvree"}
        run = json.loads((tmp_path / "r" / "run.json").read_text())
        assert run == summary["run"]
        assert set(run["inputs"]) == {"points.csv", "view1.csv", "view2.csv"}
        _check_environment(run["environment"])
