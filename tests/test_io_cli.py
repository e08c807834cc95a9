"""File ingestion, artifact round trips and the command-line surface."""

import json
import os

import numpy as np
import pytest
import scipy

import robustmv.cli
from robustmv.cli import main
from robustmv.features import CmvConfig
from robustmv.io import (
    file_sha256,
    ingest_dissimilarities,
    ingest_features,
    ingest_uci_directory,
    load_manifest,
    read_matrix_csv,
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
