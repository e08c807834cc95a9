"""End-to-end experiment recipes.

Each recipe generates its synthetic inputs, runs the relevant solver lineup,
evaluates downstream quality and writes all artifacts (data, learned
configurations, traces, scores) plus a machine-readable ``summary.json``
and a ``run.json`` echo sufficient to reproduce the run exactly.
"""

from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datagen import (
    NoiseSpec,
    corrupt_instances,
    corrupt_pixels,
    gen_cluster_retrieval_views,
    gen_labeled_multiview,
    gen_point_set_views,
)
from .embedding import (
    DissimilarityViews,
    EmbedConfig,
    hadamard_combine,
    median_kernel_size,
    ree_fit,
)
from .evaluation import knn_classify, procrustes_rmse, retrieval_topk, seeded_split
from .features import (
    CmvConfig,
    MultiViewFeatureSet,
    cemv_fit,
    cmv_fit,
    instance_weight_profile,
    l2mv_fit,
)
from .io import (
    write_json, write_labels, write_matrix_csv, write_run_json, write_trace_csv, write_views,
)

__all__ = ["run_recipe", "RECIPE_NAMES", "FEATURE_METHODS", "fit_feature_method"]

FEATURE_METHODS = ("view1", "view2", "concat", "l2mv", "cmv", "cemv")

# Point-set protocol constants: corrupted points per view, noise amplitude,
# kernel size and the step sizes of the two iterative solvers.
POINTSET_VIEW1 = (0, 1, 2, 3)
POINTSET_VIEW2 = (23, 24)
POINTSET_SIGMA = 3.0
POINTSET_STEP_CORR = 0.1
POINTSET_STEP_L1 = 0.05


def fit_feature_method(name, fs, cfg):
    """Fit one lineup entry on a feature set.

    Single-view and concatenation baselines are dimension-reduced by feeding
    two identical copies through the instance-weighted correntropy solver;
    all methods therefore produce a latent matrix of the same size.  The
    caller owns normalization: in the noise experiments clean features are
    normalized first and corruption is applied afterwards, so the corrupted
    values keep their true scale relative to the kernel size.
    """
    if name in ("view1", "view2"):
        z = fs.views[0 if name == "view1" else 1]
        return cmv_fit(MultiViewFeatureSet([z, z.copy()]), cfg)
    if name == "concat":
        z = np.concatenate(fs.views, axis=0)
        return cmv_fit(MultiViewFeatureSet([z, z.copy()]), cfg)
    if name == "l2mv":
        return l2mv_fit(fs, cfg)
    if name == "cmv":
        return cmv_fit(fs, cfg)
    if name == "cemv":
        return cemv_fit(fs, cfg)
    raise ValueError(f"unknown feature method {name!r}")


def _weight_split(model, noisy_idx, n):
    """Mean weight magnitude per view over clean and noisy instances."""
    mags = instance_weight_profile(model)
    clean = np.setdiff1d(np.arange(n), noisy_idx)
    out = {}
    for v in range(mags.shape[0]):
        out[f"view{v + 1}_clean"] = float(mags[v, clean].mean()) if clean.size else None
        out[f"view{v + 1}_noisy"] = (
            float(mags[v, noisy_idx].mean()) if len(noisy_idx) else None
        )
    return out


def _uci_noise_grid(seed, out, full_scale, condition):
    per_class = 200 if full_scale else (40 if condition == 1 else 20)
    # Condition 2 uses a weaker second view: partial pixel corruption only
    # separates the solvers when the clean half of view 1 carries signal the
    # other view cannot supply on its own.
    view_dims, scatter = ((64, 32), 0.25) if condition == 1 else ((64, 8), 0.8)
    labels, fs = gen_labeled_multiview(
        classes=10,
        per_class=per_class,
        view_dims=view_dims,
        latent_dim=8,
        scatter=scatter,
        seed=seed,
    )
    n = fs.n_instances
    split = seeded_split(labels, 0.5, seed=seed)
    cfg = CmvConfig(
        latent_dim=10, sigma=0.5, c1=1e-3, c2=1e-3, max_outer=25, max_inner=3, seed=seed
    )
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    files = write_views(data_dir, fs.views)
    labels_file = data_dir / "labels.csv"
    write_labels(labels_file, labels)
    files.append(labels_file)

    (out / "traces").mkdir(exist_ok=True)
    (out / "latent").mkdir(exist_ok=True)

    if condition == 1:
        grid = [0.0, 0.125, 0.25, 0.5]
        magnitudes = [1.0]
    else:
        grid = [0.0, 0.25, 0.5, 0.75]
        magnitudes = [1.0, 3.0]

    results = []
    for magnitude in magnitudes:
        for level, frac in enumerate(grid):
            noise_seed = seed + 1000 * level + int(10000 * magnitude)
            if condition == 1:
                spec = NoiseSpec(
                    kind="instance_replacement", fraction=frac, seed=noise_seed
                )
                noisy, idx = corrupt_instances(fs, 0, spec)
                pixel_mask = None
            else:
                spec = NoiseSpec(
                    kind="pixel_replacement",
                    fraction=frac,
                    magnitude=magnitude,
                    seed=noise_seed,
                )
                noisy, pixel_mask = corrupt_pixels(fs, 0, spec)
                idx = np.array([], dtype=int)
            row = {"fraction": frac, "magnitude": magnitude, "accuracy": {}, "weights": {}}
            for method in FEATURE_METHODS:
                model = fit_feature_method(method, noisy, cfg)
                _, acc = knn_classify(split, features=model.X.T, k=1)
                row["accuracy"][method] = acc
                tag = f"m{magnitude:g}_f{frac:g}_{method}"
                write_trace_csv(out / "traces" / f"{tag}.csv", model.trace)
                write_matrix_csv(out / "latent" / f"{tag}.csv", model.X)
                if method in ("cmv", "cemv") and condition == 1:
                    row["weights"][method] = _weight_split(model, idx, n)
                if method == "cemv" and condition == 2 and pixel_mask is not None:
                    av = np.abs(np.asarray(model.A[0]))
                    row["weights"]["cemv_pixels"] = {
                        "noisy_positions": float(av[pixel_mask].mean())
                        if pixel_mask.any()
                        else None,
                        "clean_positions": float(av[~pixel_mask].mean()),
                    }
            results.append(row)

    name = f"uci-noise-{condition}"
    params = {
        "classes": 10,
        "per_class": per_class,
        "view_dims": list(view_dims),
        "scatter": scatter,
        "grid": grid,
        "magnitudes": magnitudes,
        "solver": asdict(cfg),
        "classifier": "1-nearest-neighbour (majority vote over the fused latent space)",
    }
    record = {"recipe": name, "seed": seed, "params": params}
    echo = write_run_json(out, record, {f.name: f for f in files})
    return {"recipe": name, "seed": seed, "results": results, "run": echo}


def _pointset_25(seed, out, full_scale):
    # Noise is applied on the squared-distance scale: the preset kernel size
    # and step sizes are calibrated for dissimilarity values of this
    # magnitude, while +-10 noise on raw distances squares into deviations
    # two orders larger than the kernel can see.
    points, views = gen_point_set_views(
        seed=seed,
        box=4.5,
        view1_points=POINTSET_VIEW1,
        view2_points=POINTSET_VIEW2,
        magnitude=10.0,
        noise_on="squared",
    )
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    write_matrix_csv(data_dir / "points.csv", points)
    files = [data_dir / "points.csv", *write_views(data_dir, views.deltas)]

    corrupted = sorted({*POINTSET_VIEW1, *POINTSET_VIEW2})
    runs = {
        "ree-view1": (DissimilarityViews([views.deltas[0]]), "l1", POINTSET_STEP_L1),
        "ree-view2": (DissimilarityViews([views.deltas[1]]), "l1", POINTSET_STEP_L1),
        "mvree": (views, "l1", POINTSET_STEP_L1),
        "cmvree": (views, "correntropy", POINTSET_STEP_CORR),
    }
    (out / "traces").mkdir(exist_ok=True)
    (out / "configurations").mkdir(exist_ok=True)
    results = {}
    for method, (mviews, loss, step) in runs.items():
        cfg = EmbedConfig(
            target_dim=2, sigma=POINTSET_SIGMA, step=step, max_iter=500, seed=seed
        )
        res = ree_fit(mviews, cfg, loss=loss)
        coords = res.configuration
        write_matrix_csv(out / "configurations" / f"{method}.csv", coords)
        write_trace_csv(out / "traces" / f"{method}.csv", res.trace)
        results[method] = {
            "rmse_all": procrustes_rmse(coords, points),
            "rmse_corrupted": procrustes_rmse(coords, points, subset=corrupted),
            "final_objective": res.trace.final_objective,
        }

    params = {
        "n_points": 25,
        "noise_magnitude": 10.0,
        "sigma": POINTSET_SIGMA,
        "step_correntropy": POINTSET_STEP_CORR,
        "step_l1": POINTSET_STEP_L1,
        "max_iter": 500,
        "corrupted_points": corrupted,
    }
    record = {"recipe": "pointset-25", "seed": seed, "params": params}
    echo = write_run_json(out, record, {f.name: f for f in files})
    return {"recipe": "pointset-25", "seed": seed, "results": results, "run": echo}


def _cluster_retrieval(seed, out, full_scale):
    classes, per_class, k = 9, 11, 10
    labels, raw_views = gen_cluster_retrieval_views(
        classes=classes,
        per_class=per_class,
        corrupt_per_view=10,
        magnitude=10.0,
        seed=seed,
    )
    # Rescale to unit pooled median so the preset step sizes match the data.
    med = median_kernel_size(raw_views)
    views = DissimilarityViews([d / med for d in raw_views.deltas])

    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    files = write_views(data_dir, views.deltas)
    labels_file = data_dir / "labels.csv"
    write_labels(labels_file, labels)
    files.append(labels_file)

    (out / "traces").mkdir(exist_ok=True)
    (out / "configurations").mkdir(exist_ok=True)
    sigma = median_kernel_size(views)
    results = {}

    def score_distances(dist):
        return retrieval_topk(labels, distances=dist, k=k).total

    results["raw-view1"] = {"total_correct": score_distances(views.deltas[0])}
    results["raw-view2"] = {"total_correct": score_distances(views.deltas[1])}
    results["hadamard"] = {
        "total_correct": score_distances(
            hadamard_combine(views.deltas[0], views.deltas[1])
        )
    }
    embed_runs = {
        "ree-view1": (DissimilarityViews([views.deltas[0]]), "l1", 0.02),
        "ree-view2": (DissimilarityViews([views.deltas[1]]), "l1", 0.02),
        "mvree": (views, "l1", 0.02),
        "cmvree": (views, "correntropy", 0.01),
    }
    for method, (mviews, loss, step) in embed_runs.items():
        cfg = EmbedConfig(
            target_dim=8, sigma=sigma, step=step, max_iter=400, seed=seed
        )
        res = ree_fit(mviews, cfg, loss=loss)
        coords = res.configuration
        write_matrix_csv(out / "configurations" / f"{method}.csv", coords)
        write_trace_csv(out / "traces" / f"{method}.csv", res.trace)
        score = retrieval_topk(labels, configuration=coords, k=k)
        results[method] = {
            "total_correct": score.total,
            "final_objective": res.trace.final_objective,
        }

    params = {
        "classes": classes,
        "per_class": per_class,
        "retrieval_k": k,
        "corrupt_per_view": 10,
        "magnitude": 10.0,
        "median_rescale": med,
        "sigma": sigma,
        "target_dim": 8,
        "max_iter": 400,
        "max_score": classes * per_class * k,
    }
    record = {"recipe": "cluster-retrieval", "seed": seed, "params": params}
    echo = write_run_json(out, record, {f.name: f for f in files})
    return {"recipe": "cluster-retrieval", "seed": seed, "results": results, "run": echo}


_RECIPES = {
    "uci-noise-1": lambda seed, out, full: _uci_noise_grid(seed, out, full, 1),
    "uci-noise-2": lambda seed, out, full: _uci_noise_grid(seed, out, full, 2),
    "pointset-25": _pointset_25,
    "cluster-retrieval": _cluster_retrieval,
}

RECIPE_NAMES = tuple(sorted(_RECIPES))


def run_recipe(name, seed=0, out_dir=".", full_scale=False):
    """Run one named recipe; returns the summary dict written to disk."""
    if name not in _RECIPES:
        raise ValueError(f"unknown recipe {name!r}; choose from {RECIPE_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _RECIPES[name](seed, out, full_scale)
    write_json(out / "summary.json", summary)
    return summary
