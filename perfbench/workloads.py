"""The four benchmark workloads.

Each workload makes its inputs from the seed (``setup``), runs one pass of
a fixed task list against robustmv's public API (``tasks``), and checks each
task's outputs (``check``).  Every robustmv function is looked up on its
module at call time, so the outside-in tracer sees the calls.

A task returns a dict whose ``quality`` entry holds the numbers that must
repeat exactly at a fixed seed; ``check`` compares them with the warm-up
pass, which is the reference.
"""

import contextlib
import io as _stdio
import json
from pathlib import Path

import numpy as np

import robustmv.cli as cli
import robustmv.datagen as datagen
import robustmv.embedding as embedding
import robustmv.evaluation as evaluation
import robustmv.features as features
import robustmv.io as rio

FEATURE_SOLVERS = ("cmv", "cemv", "l2mv", "cauchymv")
PSD_FLOOR = 1e-8  # relative eigenvalue floor of criterion c05
MONOTONE_SLACK = 1e-10  # objective decrease allowed by criterion c01


def _cli(argv):
    """Run ``robustmv.cli.main`` with its stdout discarded; returns the exit code."""
    with contextlib.redirect_stdout(_stdio.StringIO()):
        return cli.main([str(a) for a in argv])


def _quality_errors(task, res, ref):
    if ref is not None and res["quality"] != ref["quality"]:
        return [f"{task}: quality {res['quality']} differs from first pass {ref['quality']}"]
    return []


def _psd_errors(task, gram):
    w = np.linalg.eigvalsh(gram)
    ratio = w[0] / max(w[-1], 1e-30)
    if ratio < -PSD_FLOOR:
        return [f"{task}: final Gram not PSD, min/max eigenvalue {ratio:.3e}"]
    return []


class FeatureFusion:
    """Four feature solvers on the uci-noise-1 desk-scale set, each with 1-NN."""

    name = "feature-fusion"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.classes, self.per_class = (3, 8) if tiny else (10, 40)
        self.max_outer = 3 if tiny else 25

    def setup(self):
        labels, fs = datagen.gen_labeled_multiview(
            classes=self.classes,
            per_class=self.per_class,
            view_dims=(64, 32),
            latent_dim=8,
            scatter=0.25,
            seed=self.seed,
        )
        spec = datagen.NoiseSpec(kind="instance_replacement", fraction=0.25, seed=self.seed + 1)
        self.fs, _ = datagen.corrupt_instances(fs, 0, spec)
        self.split = evaluation.seeded_split(labels, 0.5, seed=self.seed)
        self.cfg = features.CmvConfig(
            latent_dim=10,
            sigma=0.5,
            max_outer=self.max_outer,
            max_inner=3,
            rel_tol=0.0,  # every fit runs all max_outer iterations, whatever the seed
            seed=self.seed,
        )

    def tasks(self, tmp):
        for solver in FEATURE_SOLVERS:
            yield solver, lambda solver=solver: self._fit(solver)

    def _fit(self, solver):
        model = getattr(features, f"{solver}_fit")(self.fs, self.cfg)
        _, acc = evaluation.knn_classify(self.split, features=model.X.T, k=1)
        return {"quality": {"accuracy": acc}, "objective": model.trace.objective}

    def check(self, task, res, ref, tmp):
        errors = _quality_errors(task, res, ref)
        if task in ("cmv", "cemv"):
            obj = np.asarray(res["objective"])
            drop = float(np.max(-np.diff(obj), initial=0.0))
            if drop > MONOTONE_SLACK * max(1.0, float(np.max(np.abs(obj)))):
                errors.append(f"{task}: objective decreased by {drop:.3e}")
        return errors

    @staticmethod
    def quality(results):
        return {"accuracy": float(np.mean([r["quality"]["accuracy"] for r in results.values()]))}


class EmbedFusion:
    """ree on view 1, mvree and cmvree on cluster-retrieval views, top-10 retrieval."""

    name = "embed-fusion"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.classes, self.per_class, self.corrupt = (3, 8, 2) if tiny else (10, 30, 30)
        self.max_iter = 5 if tiny else 100
        self.k = 5 if tiny else 10

    def setup(self):
        self.labels, raw = datagen.gen_cluster_retrieval_views(
            classes=self.classes,
            per_class=self.per_class,
            corrupt_per_view=self.corrupt,
            magnitude=10.0,
            seed=self.seed,
        )
        # Median rescale and step sizes as in the cluster-retrieval recipe.
        med = embedding.median_kernel_size(raw)
        views = embedding.DissimilarityViews([d / med for d in raw.deltas])
        self.sigma = embedding.median_kernel_size(views)
        self.runs = {
            "ree": (embedding.DissimilarityViews([views.deltas[0]]), "l1", 0.02),
            "mvree": (views, "l1", 0.02),
            "cmvree": (views, "correntropy", 0.01),
        }

    def tasks(self, tmp):
        for method in self.runs:
            yield method, lambda method=method: self._fit(method)

    def _fit(self, method):
        views, loss, step = self.runs[method]
        cfg = embedding.EmbedConfig(
            target_dim=8, sigma=self.sigma, step=step, max_iter=self.max_iter
        )
        last = {}
        res = embedding.ree_fit(views, cfg, loss=loss, callback=lambda it, b, obj: last.update(b=b))
        hits = evaluation.retrieval_topk(self.labels, configuration=res.configuration, k=self.k)
        # The last projected iterate; res.gram is clipped again on the way out.
        return {"quality": {"retrieval_hits": hits.total}, "gram": last["b"]}

    def check(self, task, res, ref, tmp):
        return _quality_errors(task, res, ref) + _psd_errors(task, res["gram"])

    @staticmethod
    def quality(results):
        return {"retrieval_hits": sum(r["quality"]["retrieval_hits"] for r in results.values())}


class RecipeDesk:
    """``robustmv recipe`` for cluster-retrieval and pointset-25, via cli.main.

    The recipes have fixed desk-scale sizes, so the tiny scale is the same.
    """

    name = "recipe-desk"
    RECIPES = ("cluster-retrieval", "pointset-25")

    def __init__(self, seed, tiny):
        self.seed = seed

    def setup(self):
        pass

    def tasks(self, tmp):
        for recipe in self.RECIPES:
            yield recipe, lambda recipe=recipe: self._run(recipe, tmp / recipe)

    def _run(self, recipe, out):
        code = _cli(["recipe", "--name", recipe, "--seed", self.seed, "--out", out])
        summary_bytes = (out / "summary.json").read_bytes() if code == 0 else b""
        results = json.loads(summary_bytes)["results"] if code == 0 else {}
        if recipe == "cluster-retrieval":
            quality = {"retrieval_hits": sum(r["total_correct"] for r in results.values())}
        else:
            quality = {"rmse_corrupted": [r["rmse_corrupted"] for r in results.values()]}
        return {"quality": quality, "code": code, "summary": summary_bytes}

    def check(self, task, res, ref, tmp):
        if res["code"] != 0:
            return [f"{task}: cli exited {res['code']}"]
        errors = _quality_errors(task, res, ref)
        if ref is not None and res["summary"] != ref["summary"]:
            errors.append(f"{task}: summary.json differs from the first pass")
        out = tmp / task
        echo = json.loads(res["summary"])["run"]["inputs"]
        for name, digest in echo.items():
            if rio.file_sha256(out / "data" / name) != digest:
                errors.append(f"{task}: data/{name} does not match its recorded hash")
        for csv in sorted((out / "configurations").glob("*.csv")):
            again = tmp / "roundtrip.csv"
            rio.write_matrix_csv(again, rio.read_matrix_csv(csv))
            if again.read_bytes() != csv.read_bytes():
                errors.append(f"{task}: {csv.name} does not round-trip")
        return errors

    @staticmethod
    def quality(results):
        out = {}
        if "cluster-retrieval" in results:
            out["retrieval_hits"] = results["cluster-retrieval"]["quality"]["retrieval_hits"]
        if "pointset-25" in results:
            out["rmse_corrupted"] = float(
                np.mean(results["pointset-25"]["quality"]["rmse_corrupted"])
            )
        return out


class IngestEval:
    """CSV synth at N 1000/2000 and CLI evaluation of the files it wrote."""

    name = "ingest-eval"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.clusters = (
            {"classes": 3, "per_class": 10, "corrupt_per_view": 3, "magnitude": 10.0}
            if tiny
            else {"classes": 10, "per_class": 100, "corrupt_per_view": 100, "magnitude": 10.0}
        )
        self.labeled = {
            "classes": 3 if tiny else 10,
            "per_class": 20 if tiny else 200,
            "view_dims": [64, 32],
        }
        self.k = 5 if tiny else 10
        self.digests = {}
        # The arrays synth writes, made in memory by the same generators for
        # the checks.  They are made here, before set-up, so that neither
        # set-up time nor the peak memory of the passes includes them.
        labels, views = datagen.gen_cluster_retrieval_views(seed=seed, **self.clusters)
        self.reference = {"synth-clusters": (labels, views.deltas)}
        labels, fs = datagen.gen_labeled_multiview(seed=seed, **self.labeled)
        self.reference["synth-labeled"] = (labels, fs.views)

    def setup(self):
        pass

    def tasks(self, tmp):
        c, lab = tmp / "clusters", tmp / "labeled"
        retrieval = ["eval", "--task", "retrieval", "--labels", c / "labels.csv", "--k", self.k]
        knn = ["eval", "--task", "knn", "--labels"]
        runs = {
            "synth-clusters": (["synth", "--kind", "clusters", "--params", json.dumps(self.clusters)], c),
            "synth-labeled": (["synth", "--kind", "labeled", "--params", json.dumps(self.labeled)], lab),
            "retrieval-view1": (retrieval + ["--distances", c / "view1.csv"], tmp / "r1"),
            "retrieval-view2": (retrieval + ["--distances", c / "view2.csv"], tmp / "r2"),
            "knn-features": (knn + [lab / "labels.csv", "--features", lab / "view1.csv"], tmp / "kf"),
            "knn-distances": (knn + [c / "labels.csv", "--distances", c / "view1.csv"], tmp / "kd"),
        }
        for task, (argv, out) in runs.items():
            yield task, lambda argv=argv, out=out: self._run(argv, out)

    def _run(self, argv, out):
        code = _cli(argv + ["--seed", self.seed, "--out", out])
        quality = {}
        if code == 0 and argv[0] == "eval":
            scores = json.loads((out / "scores.json").read_text())
            quality = {k: scores[k] for k in ("accuracy", "total_correct") if k in scores}
        return {"quality": quality, "code": code, "out": out}

    def check(self, task, res, ref, tmp):
        if res["code"] != 0:
            return [f"{task}: cli exited {res['code']}"]
        errors = _quality_errors(task, res, ref)
        if task.startswith("synth"):
            digests = json.loads((res["out"] / "run.json").read_text())["inputs"]
            digests = {Path(f).name: h for f, h in digests.items()}
            if ref is None:
                errors += self._roundtrip_errors(task, res["out"])
                self.digests[task] = digests
            elif digests != self.digests[task]:
                errors.append(f"{task}: written CSVs differ from the first pass")
        elif ref is None:
            errors += self._reference_errors(task, res)
        return errors

    def _roundtrip_errors(self, task, out):
        """Files written by synth parse back exactly as the generator's arrays."""
        labels, mats = self.reference[task]
        errors = []
        if not np.array_equal(np.loadtxt(out / "labels.csv", dtype=int, ndmin=1), labels):
            errors.append(f"{task}: labels.csv does not round-trip")
        for v, mat in enumerate(mats, start=1):
            if not np.array_equal(np.loadtxt(out / f"view{v}.csv", delimiter=",", ndmin=2), mat):
                errors.append(f"{task}: view{v}.csv does not round-trip")
        return errors

    def _reference_errors(self, task, res):
        """Compare CLI scores with a direct numpy evaluation of the in-memory data."""
        if task == "knn-features":
            labels, views = self.reference["synth-labeled"]
            split = evaluation.seeded_split(labels, 0.5, seed=self.seed)
            _, want = evaluation.knn_classify(split, features=views[0].T, k=1)
            got = res["quality"]["accuracy"]
        else:
            labels, deltas = self.reference["synth-clusters"]
            dist = deltas[0] if task != "retrieval-view2" else deltas[1]
            if task == "knn-distances":
                split = evaluation.seeded_split(labels, 0.5, seed=self.seed)
                cand = dist[np.ix_(split.test_idx, split.train_idx)]
                nearest = split.train_idx[np.argmin(cand, axis=1)]
                want = float(np.mean(labels[nearest] == labels[split.test_idx]))
                got = res["quality"]["accuracy"]
            else:
                d = dist.copy()
                np.fill_diagonal(d, np.inf)
                top = np.argsort(d, axis=1, kind="stable")[:, : self.k]
                want = int(np.sum(labels[top] == labels[:, None]))
                got = res["quality"]["total_correct"]
        if got != want:
            return [f"{task}: cli score {got} differs from direct evaluation {want}"]
        return []

    @staticmethod
    def quality(results):
        acc = [r["quality"]["accuracy"] for t, r in results.items() if t.startswith("knn")]
        hits = [r["quality"]["total_correct"] for t, r in results.items() if t.startswith("retr")]
        return {"accuracy": float(np.mean(acc)) if acc else None, "retrieval_hits": sum(hits)}


WORKLOADS = {w.name: w for w in (FeatureFusion, EmbedFusion, RecipeDesk, IngestEval)}
