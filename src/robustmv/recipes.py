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
from .io import write_dataset, write_json, write_matrix_csv, write_run_json, write_trace_csv

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


def _stop(trace):
    """Why a fit stopped, as recorded in ``summary.json``."""
    return {"converged": trace.converged, "reason": trace.reason}


# Per condition: desk-scale instances per class, view sizes, latent scatter,
# the corruption fractions and the noise magnitudes.  Condition 1 replaces
# whole instances of view 1, condition 2 a fraction of every instance's
# pixels.  Condition 2 uses a weaker second view: partial pixel corruption
# only separates the solvers when the clean half of view 1 carries signal the
# other view cannot supply on its own.
_UCI_SPECS = {
    1: {"per_class": 40, "view_dims": [64, 32], "scatter": 0.25, "noise": "instance_replacement",
        "grid": [0.0, 0.125, 0.25, 0.5], "magnitudes": [1.0]},
    2: {"per_class": 20, "view_dims": [64, 8], "scatter": 0.8, "noise": "pixel_replacement",
        "grid": [0.0, 0.25, 0.5, 0.75], "magnitudes": [1.0, 3.0]},
}


def _uci_noise_grid(seed, out, full_scale, condition):
    spec = _UCI_SPECS[condition]
    per_class = 200 if full_scale else spec["per_class"]
    labels, fs = gen_labeled_multiview(
        classes=10,
        per_class=per_class,
        view_dims=spec["view_dims"],
        latent_dim=8,
        scatter=spec["scatter"],
        seed=seed,
    )
    n = fs.n_instances
    split = seeded_split(labels, 0.5, seed=seed)
    cfg = CmvConfig(
        latent_dim=10, sigma=0.5, c1=1e-3, c2=1e-3, max_outer=25, max_inner=3, seed=seed
    )
    files = write_dataset(out / "data", fs.views, labels)

    (out / "traces").mkdir(exist_ok=True)
    (out / "latent").mkdir(exist_ok=True)

    results = []
    for magnitude in spec["magnitudes"]:
        for level, frac in enumerate(spec["grid"]):
            noise_seed = seed + 1000 * level + int(10000 * magnitude)
            noise = NoiseSpec(spec["noise"], fraction=frac, magnitude=magnitude, seed=noise_seed)
            if condition == 1:
                noisy, idx = corrupt_instances(fs, 0, noise)
            else:
                noisy, pixel_mask = corrupt_pixels(fs, 0, noise)
            row = {
                "fraction": frac, "magnitude": magnitude, "accuracy": {}, "stop": {},
                "weights": {},
            }
            for method in FEATURE_METHODS:
                model = fit_feature_method(method, noisy, cfg)
                _, acc = knn_classify(split, features=model.X.T, k=1)
                row["accuracy"][method] = acc
                row["stop"][method] = _stop(model.trace)
                tag = f"m{magnitude:g}_f{frac:g}_{method}"
                write_trace_csv(out / "traces" / f"{tag}.csv", model.trace)
                write_matrix_csv(out / "latent" / f"{tag}.csv", model.X)
                if condition == 1 and method in ("cmv", "cemv"):
                    row["weights"][method] = _weight_split(model, idx, n)
                elif condition == 2 and method == "cemv":
                    av = np.abs(np.asarray(model.A[0]))
                    row["weights"]["cemv_pixels"] = {
                        "noisy_positions": float(av[pixel_mask].mean())
                        if pixel_mask.any()
                        else None,
                        "clean_positions": float(av[~pixel_mask].mean()),
                    }
            results.append(row)

    params = {
        "classes": 10,
        "per_class": per_class,
        "view_dims": spec["view_dims"],
        "scatter": spec["scatter"],
        "grid": spec["grid"],
        "magnitudes": spec["magnitudes"],
        "solver": asdict(cfg),
        "classifier": "1-nearest-neighbour (majority vote over the fused latent space)",
    }
    return params, files, results


def _embed_lineup(out, views, steps, score, **cfg):
    """Fit ree on each of two views, then mvree and cmvree on both.

    ``steps`` is the (L1, correntropy) step pair and ``cfg`` holds the other
    ``EmbedConfig`` fields.  Each configuration and trace is written under
    ``out``; returns per method ``score(configuration)`` plus the final
    objective and stop reason.
    """
    step_l1, step_corr = steps
    runs = {
        "ree-view1": (DissimilarityViews([views.deltas[0]]), "l1", step_l1),
        "ree-view2": (DissimilarityViews([views.deltas[1]]), "l1", step_l1),
        "mvree": (views, "l1", step_l1),
        "cmvree": (views, "correntropy", step_corr),
    }
    (out / "traces").mkdir(exist_ok=True)
    (out / "configurations").mkdir(exist_ok=True)
    results = {}
    for method, (mviews, loss, step) in runs.items():
        res = ree_fit(mviews, EmbedConfig(step=step, **cfg), loss=loss)
        coords = res.configuration
        write_matrix_csv(out / "configurations" / f"{method}.csv", coords)
        write_trace_csv(out / "traces" / f"{method}.csv", res.trace)
        results[method] = {
            **score(coords),
            "final_objective": res.trace.final_objective,
            **_stop(res.trace),
        }
    return results


def _pointset_25(seed, out):
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
    files = write_dataset(out / "data", views.deltas, truth={"points.csv": points})

    corrupted = sorted({*POINTSET_VIEW1, *POINTSET_VIEW2})

    def score(coords):
        return {
            "rmse_all": procrustes_rmse(coords, points),
            "rmse_corrupted": procrustes_rmse(coords, points, subset=corrupted),
        }

    results = _embed_lineup(
        out, views, (POINTSET_STEP_L1, POINTSET_STEP_CORR), score,
        target_dim=2, sigma=POINTSET_SIGMA, max_iter=500, seed=seed,
    )

    params = {
        "n_points": 25,
        "noise_magnitude": 10.0,
        "sigma": POINTSET_SIGMA,
        "step_correntropy": POINTSET_STEP_CORR,
        "step_l1": POINTSET_STEP_L1,
        "max_iter": 500,
        "corrupted_points": corrupted,
    }
    return params, files, results


def _cluster_retrieval(seed, out):
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

    files = write_dataset(out / "data", views.deltas, labels)

    sigma = median_kernel_size(views)

    def score(**source):
        return {"total_correct": retrieval_topk(labels, k=k, **source).total}

    results = {
        "raw-view1": score(distances=views.deltas[0]),
        "raw-view2": score(distances=views.deltas[1]),
        "hadamard": score(distances=hadamard_combine(views.deltas[0], views.deltas[1])),
        **_embed_lineup(
            out, views, (0.02, 0.01), lambda coords: score(configuration=coords),
            target_dim=8, sigma=sigma, max_iter=400, seed=seed,
        ),
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
    return params, files, results


# Each recipe takes (seed, out) and returns (params, files, results).  Only the
# uci-noise recipes have a full scale; it is passed as a third argument.
_RECIPES = {
    "uci-noise-1": lambda seed, out, full: _uci_noise_grid(seed, out, full, 1),
    "uci-noise-2": lambda seed, out, full: _uci_noise_grid(seed, out, full, 2),
    "pointset-25": _pointset_25,
    "cluster-retrieval": _cluster_retrieval,
}
_FULL_SCALE = ("uci-noise-1", "uci-noise-2")

RECIPE_NAMES = tuple(sorted(_RECIPES))


def run_recipe(name, seed=0, out_dir=".", full_scale=False):
    """Run one named recipe; returns the summary dict written to disk.

    The recipe writes its inputs under ``out_dir/data`` and its artifacts
    beside them; ``run.json`` records its parameters and the hashes of its
    inputs, and ``summary.json`` adds its results to that record.
    """
    if name not in _RECIPES:
        raise ValueError(f"unknown recipe {name!r}; choose from {RECIPE_NAMES}")
    if full_scale and name not in _FULL_SCALE:
        raise ValueError(
            f"recipe {name!r} has one scale; full scale (--full) exists only for "
            f"{', '.join(_FULL_SCALE)}"
        )
    out = Path(out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)
    args = (seed, out, full_scale) if name in _FULL_SCALE else (seed, out)
    params, files, results = _RECIPES[name](*args)
    record = {"recipe": name, "seed": seed, "params": params}
    echo = write_run_json(out, record, {f.name: f for f in files})
    summary = {"recipe": name, "seed": seed, "results": results, "run": echo}
    write_json(out / "summary.json", summary)
    return summary
