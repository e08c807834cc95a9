"""End-to-end experiment recipes.

Each recipe generates its synthetic inputs, runs the relevant solver lineup
and evaluates downstream quality; it writes nothing.  No fit of a lineup
reads another's result, so each recipe hands all its fits to one
``io.fork_map`` call: with BLAS pinned to one thread they run side by side
on the usable cores, otherwise one after another in-process, with the same
results and errors either way.  Each generator and
solver setting is written once, in the dict that is passed to the call and
recorded in ``run.json``'s ``params``.  Once every fit has succeeded,
``run_recipe`` hands all artifacts (data, learned configurations, traces)
and the ``run.json`` echo, sufficient to reproduce the run exactly, to one
``io.write_run`` call, and then writes the machine-readable
``summary.json``.
"""

import json
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
from .io import dataset_files, fork_map, write_json, write_run

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


def _weight_split(model, noisy_idx):
    """Mean weight magnitude per view over clean and noisy instances."""
    mags = instance_weight_profile(model)
    clean = np.setdiff1d(np.arange(mags.shape[1]), noisy_idx)
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


# Per condition: the generator settings (desk-scale instances per class, view
# sizes, latent scatter) and the noise grid (noise kind, corruption fractions,
# noise magnitudes).  Condition 1 replaces whole instances of view 1,
# condition 2 a fraction of every instance's pixels.  Condition 2 uses a
# weaker second view: partial pixel corruption only separates the solvers
# when the clean half of view 1 carries signal the other view cannot supply
# on its own.
_UCI_SPECS = {
    1: ({"per_class": 40, "view_dims": [64, 32], "scatter": 0.25},
        {"noise": "instance_replacement", "grid": [0.0, 0.125, 0.25, 0.5], "magnitudes": [1.0]}),
    2: ({"per_class": 20, "view_dims": [64, 8], "scatter": 0.8},
        {"noise": "pixel_replacement", "grid": [0.0, 0.25, 0.5, 0.75], "magnitudes": [1.0, 3.0]}),
}


def _uci_noise_grid(seed, full_scale, condition):
    generator, grid = _UCI_SPECS[condition]
    data = {"classes": 10, "latent_dim": 8, **generator}
    if full_scale:
        data["per_class"] = 200
    labels, fs = gen_labeled_multiview(seed=seed, **data)
    train_fraction = 0.5
    split = seeded_split(labels, train_fraction, seed=seed)
    cfg = CmvConfig(
        latent_dim=10, sigma=0.5, c1=1e-3, c2=1e-3, max_outer=25, max_inner=3, seed=seed
    )

    # Every cell's corrupted set first, each seeded by its own cell; then
    # one fork_map over the grid's fits, each scored where it ran.
    cells = []
    for magnitude in grid["magnitudes"]:
        for level, frac in enumerate(grid["grid"]):
            noise_seed = seed + 1000 * level + int(10000 * magnitude)
            noise = NoiseSpec(grid["noise"], fraction=frac, magnitude=magnitude, seed=noise_seed)
            corrupt = corrupt_instances if condition == 1 else corrupt_pixels
            cells.append((magnitude, frac, *corrupt(fs, 0, noise)))

    def fit(entry):
        cell, method = entry
        _, _, noisy, corrupted = cells[cell]
        model = fit_feature_method(method, noisy, cfg)
        _, acc = knn_classify(split, features=model.X.T, k=1)
        weights = {}
        if condition == 1 and method in ("cmv", "cemv"):
            weights[method] = _weight_split(model, corrupted)
        elif condition == 2 and method == "cemv":
            av = np.abs(np.asarray(model.A[0]))
            weights["cemv_pixels"] = {
                "noisy_positions": float(av[corrupted].mean()) if corrupted.any() else None,
                "clean_positions": float(av[~corrupted].mean()),
            }
        return model.X, model.trace, acc, weights

    # Method by method, so that interleaved shares get about as many fits of
    # each method: in uci-noise-2 a cemv fit costs about five concat fits.
    entries = [(cell, method) for method in FEATURE_METHODS for cell in range(len(cells))]
    done = dict(zip(entries, fork_map(fit, entries)))
    fits, results = {}, []
    for cell, (magnitude, frac, _, _) in enumerate(cells):
        row = {"fraction": frac, "magnitude": magnitude, "accuracy": {}, "stop": {}, "weights": {}}
        for method in FEATURE_METHODS:
            x, trace, acc, weights = done[cell, method]
            row["accuracy"][method] = acc
            row["stop"][method] = _stop(trace)
            tag = f"m{magnitude:g}_f{frac:g}_{method}"
            fits[f"latent/{tag}.csv"], fits[f"traces/{tag}.csv"] = x, trace
            row["weights"].update(weights)
        results.append(row)

    params = {
        **data,
        **grid,
        "train_fraction": train_fraction,
        "solver": asdict(cfg),
        "classifier": "1-nearest-neighbour (majority vote over the fused latent space)",
    }
    return params, dataset_files(fs.views, labels), fits, results


def _embed_lineup(views, score, steps, **cfg):
    """Fit ree on each of two views, then mvree and cmvree on both.

    ``steps`` is the (L1, correntropy) step pair and ``cfg`` holds the other
    ``EmbedConfig`` fields.  The four fits run through one ``fork_map``.
    Returns ``(fits, results)``: per method its configuration and trace
    under their file paths, and ``score(configuration)`` plus the final
    objective and stop reason.
    """
    step_l1, step_corr = steps
    runs = {
        "ree-view1": (DissimilarityViews([views.deltas[0]]), "l1", step_l1),
        "ree-view2": (DissimilarityViews([views.deltas[1]]), "l1", step_l1),
        "mvree": (views, "l1", step_l1),
        "cmvree": (views, "correntropy", step_corr),
    }

    def fit(run):
        mviews, loss, step = run
        res = ree_fit(mviews, EmbedConfig(step=step, **cfg), loss=loss)
        return res.configuration, res.trace

    fits, results = {}, {}
    for method, (configuration, trace) in zip(runs, fork_map(fit, runs.values())):
        fits[f"configurations/{method}.csv"] = configuration
        fits[f"traces/{method}.csv"] = trace
        results[method] = {
            **score(configuration),
            "final_objective": trace.final_objective,
            **_stop(trace),
        }
    return fits, results


def _pointset_25(seed):
    # Noise is applied on the squared-distance scale: the preset kernel size
    # and step sizes are calibrated for dissimilarity values of this
    # magnitude, while +-10 noise on raw distances squares into deviations
    # two orders larger than the kernel can see.
    data = {
        "n_points": 25,
        "box": 4.5,
        "view1_points": POINTSET_VIEW1,
        "view2_points": POINTSET_VIEW2,
        "magnitude": 10.0,
        "noise_on": "squared",
    }
    embed = {
        "target_dim": 2,
        "sigma": POINTSET_SIGMA,
        "steps": (POINTSET_STEP_L1, POINTSET_STEP_CORR),
        "max_iter": 500,
    }
    points, views = gen_point_set_views(seed=seed, **data)
    corrupted = sorted({*POINTSET_VIEW1, *POINTSET_VIEW2})

    def score(estimate):
        return {
            "rmse_all": procrustes_rmse(estimate, points),
            "rmse_corrupted": procrustes_rmse(estimate, points, subset=corrupted),
        }

    fits, results = _embed_lineup(views, score, seed=seed, **embed)
    params = {**data, **embed, "corrupted_points": corrupted}
    return params, dataset_files(views.deltas, truth={"points.csv": points}), fits, results


def _cluster_retrieval(seed):
    data = {
        "classes": 9,
        "per_class": 11,
        "corrupt_per_view": 10,
        "magnitude": 10.0,
    }
    embed = {
        "target_dim": 8,
        "steps": (0.02, 0.01),
        "max_iter": 400,
    }
    k = 10
    labels, raw_views = gen_cluster_retrieval_views(seed=seed, **data)
    # Rescale to unit pooled median so the preset step sizes match the data.
    med = median_kernel_size(raw_views)
    views = DissimilarityViews([d / med for d in raw_views.deltas])
    sigma = median_kernel_size(views)

    def score(**source):
        return {"total_correct": retrieval_topk(labels, k=k, **source).total}

    fits, lineup = _embed_lineup(
        views, lambda found: score(configuration=found), seed=seed, sigma=sigma, **embed
    )
    results = {
        "raw-view1": score(distances=views.deltas[0]),
        "raw-view2": score(distances=views.deltas[1]),
        "hadamard": score(distances=hadamard_combine(views.deltas[0], views.deltas[1])),
        **lineup,
    }
    params = {
        **data,
        **embed,
        "retrieval_k": k,
        "median_rescale": med,
        "sigma": sigma,
        "max_score": data["classes"] * data["per_class"] * k,
    }
    return params, dataset_files(views.deltas, labels), fits, results


# Each recipe takes its seed and returns (params, dataset, fits, results):
# ``dataset`` is ``dataset_files``'s {file name: array} and ``fits`` maps each
# fit's matrix and trace paths (``latent/`` or ``configurations/``, and
# ``traces/``) to them.  Only the uci-noise recipes have a full scale; it is
# passed as a second argument.
_RECIPES = {
    "uci-noise-1": lambda seed, full: _uci_noise_grid(seed, full, 1),
    "uci-noise-2": lambda seed, full: _uci_noise_grid(seed, full, 2),
    "pointset-25": _pointset_25,
    "cluster-retrieval": _cluster_retrieval,
}
_FULL_SCALE = ("uci-noise-1", "uci-noise-2")

RECIPE_NAMES = tuple(sorted(_RECIPES))


def run_recipe(name, seed=0, out_dir=".", full_scale=False):
    """Run one named recipe; returns the summary dict written to disk.

    Every fit and score runs first, and the results must be strict JSON,
    so a recipe that fails creates no ``out_dir``.  Then one
    ``io.write_run`` call writes the recipe's inputs under ``out_dir/data``,
    each fit's matrix and trace beside them in lineup order, and
    ``run.json``, which records its parameters and the hashes of its inputs;
    ``summary.json`` adds its results to that record.
    """
    if name not in _RECIPES:
        raise ValueError(f"unknown recipe {name!r}; choose from {RECIPE_NAMES}")
    if full_scale and name not in _FULL_SCALE:
        raise ValueError(
            f"recipe {name!r} has one scale; full scale (--full) exists only for "
            f"{', '.join(_FULL_SCALE)}"
        )
    args = (seed, full_scale) if name in _FULL_SCALE else (seed,)
    params, dataset, fits, results = _RECIPES[name](*args)
    json.dumps(results, allow_nan=False)  # summary.json is strict JSON: check it first
    out = Path(out_dir)
    files = {**{f"data/{file}": array for file, array in dataset.items()}, **fits}
    record = {"recipe": name, "seed": seed, "params": params}
    echo = write_run(out, files, record, {file: out / "data" / file for file in dataset})
    summary = {"recipe": name, "seed": seed, "results": results, "run": echo}
    write_json(out / "summary.json", summary)
    return summary
