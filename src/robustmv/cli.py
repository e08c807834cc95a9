"""Command-line front end.

Subcommands: ``synth`` (data generation), ``fit-mv`` (feature-space
solvers), ``embed`` (dissimilarity solvers), ``eval`` (downstream scoring)
and ``recipe`` (full experiment pipelines).  Every run writes a ``run.json``
echo with parameters, seed and input hashes.  Exit codes: 0 on success, 2
on validation errors, 3 on numerical failure, each with a one-line JSON
diagnostic on stderr.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (
    NoiseSpec,
    corrupt_instances,
    corrupt_pixels,
    gen_cluster_retrieval_views,
    gen_labeled_multiview,
    gen_planted_multiview,
    gen_point_set_views,
)
from .embedding import EmbedConfig, cmds, ree_fit
from .evaluation import (
    confusion_matrix,
    knn_classify,
    procrustes_rmse,
    retrieval_topk,
    seeded_split,
)
from .features import (
    CmvConfig,
    cauchymv_fit,
    cemv_fit,
    cmv_fit,
    instance_weight_profile,
    l2mv_fit,
    normalize_views,
)
from .io import (
    ingest_dissimilarities,
    ingest_features,
    ingest_uci_directory,
    load_manifest,
    read_labels,
    read_matrix_csv,
    write_json,
    write_labels,
    write_matrix_csv,
    write_run_json,
    write_trace_csv,
    write_views,
)
from .recipes import RECIPE_NAMES, run_recipe
from .trace import NumericalError

_FIT_SOLVERS = {
    "cmv": cmv_fit,
    "cemv": cemv_fit,
    "l2mv": l2mv_fit,
    "cauchymv": cauchymv_fit,
}
_EMBED_SOLVERS = ("cmds", "ree", "mvree", "cmvree")


def _parse_config(raw):
    # Inline JSON (text starting with "{") is never looked up on disk.
    if raw is None:
        return {}
    if not raw.lstrip().startswith("{") and os.path.isfile(raw):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("--config must be a JSON object")
    return cfg


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solver_summary(solver, trace):
    """What a solver run did: printed on stdout and recorded in ``run.json``."""
    return {
        "solver": solver,
        "iterations": trace.iterations_run,
        "converged": trace.converged,
        "reason": trace.reason,
        "final_objective": trace.final_objective,
    }


def _cmd_synth(args):
    out = _out_dir(args)
    params = _parse_config(args.params)
    files = []
    labels = None
    if args.kind == "planted":
        p = {"n_views": 2, "n_instances": 50, "latent_dim": 3, "view_dims": [6, 5]}
        p.update(params)
        fs, w_true, x_true = gen_planted_multiview(
            p["n_views"], p["n_instances"], p["latent_dim"], p["view_dims"], seed=args.seed
        )
        matrices = fs.views
        write_matrix_csv(out / "true_latents.csv", x_true)
        for v, w in enumerate(w_true):
            write_matrix_csv(out / f"true_map{v + 1}.csv", w)
    elif args.kind == "labeled":
        p = {"classes": 10, "per_class": 40, "view_dims": [64, 32], "latent_dim": 8}
        p.update(params)
        labels, fs = gen_labeled_multiview(seed=args.seed, **p)
        matrices = _apply_corruption(fs, args).views
    elif args.kind == "pointset":
        p = {"box": 4.5, "magnitude": 10.0, "noise_on": "squared"}
        p.update(params)
        points, views = gen_point_set_views(seed=args.seed, **p)
        write_matrix_csv(out / "points.csv", points)
        files.append(out / "points.csv")
        matrices = views.deltas
    elif args.kind == "clusters":
        p = {"classes": 9, "per_class": 11, "corrupt_per_view": 10, "magnitude": 10.0}
        p.update(params)
        labels, views = gen_cluster_retrieval_views(seed=args.seed, **p)
        matrices = views.deltas
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown synth kind {args.kind!r}")
    view_files = write_views(out, matrices)
    files.extend(view_files)
    manifest = {"views": [f.name for f in view_files]}
    if labels is not None:
        write_labels(out / "labels.csv", labels)
        files.append(out / "labels.csv")
        manifest["labels"] = "labels.csv"
    write_json(out / "manifest.json", manifest)
    record = {"command": f"synth {args.kind}", "params": {"seed": args.seed, "params": p}}
    write_run_json(out, record, {str(f): f for f in files})
    print(json.dumps({"written": [str(f) for f in files]}))
    return 0


def _apply_corruption(fs, args):
    if not args.corrupt:
        return fs
    spec = _parse_config(args.corrupt)
    view = int(spec.pop("view", 0))
    kind = spec.pop("kind", "instance_replacement")
    noise = NoiseSpec(kind=kind, seed=spec.pop("seed", args.seed), **spec)
    if kind == "instance_replacement":
        fs, _ = corrupt_instances(fs, view, noise)
    elif kind == "pixel_replacement":
        fs, _ = corrupt_pixels(fs, view, noise)
    else:
        raise ValueError(f"corruption kind {kind!r} not applicable to features")
    return fs


def _load_feature_inputs(args):
    # A manifest's labels are for evaluation; fitting never reads them.
    files = []
    config = {}
    if args.manifest:
        manifest = load_manifest(args.manifest)
        files = manifest["views"]
        config = manifest.get("config", {})
        fs = ingest_features(files, duplicate_single=args.duplicate)
    elif args.uci_dir:
        fs = ingest_uci_directory(args.uci_dir, view_names=args.uci_views.split(","))
        files = [
            Path(args.uci_dir) / f"mfeat-{name}" for name in args.uci_views.split(",")
        ]
    elif args.views:
        files = args.views
        fs = ingest_features(files, duplicate_single=args.duplicate)
    else:
        raise ValueError("give --views, --manifest or --uci-dir")
    return fs, config, [Path(f) for f in files]


def _cmd_fit_mv(args):
    out = _out_dir(args)
    fs, manifest_cfg, files = _load_feature_inputs(args)
    if args.normalize:
        fs = normalize_views(fs)
    cfg_dict = {"latent_dim": 10, "seed": args.seed}
    cfg_dict.update(manifest_cfg)
    cfg_dict.update(_parse_config(args.config))
    cfg = CmvConfig(**cfg_dict)
    model = _FIT_SOLVERS[args.solver](fs, cfg)
    write_matrix_csv(out / "X.csv", model.X)
    write_trace_csv(out / "trace.csv", model.trace)
    write_matrix_csv(out / "weights.csv", instance_weight_profile(model))
    summary = _solver_summary(args.solver, model.trace)
    params = {"seed": args.seed, "normalize": args.normalize, "config": cfg_dict}
    record = {"command": f"fit-mv {args.solver}", "params": params, "summary": summary}
    write_run_json(out, record, {str(f): f for f in files})
    print(json.dumps(summary))
    return 0


def _cmd_embed(args):
    out = _out_dir(args)
    views, report = ingest_dissimilarities(args.views, square=args.square)
    cfg_dict = {"seed": args.seed}
    cfg_dict.update(_parse_config(args.config))
    cfg = EmbedConfig(**cfg_dict)
    if args.solver == "cmds":
        if views.n_views != 1:
            raise ValueError("cmds takes exactly one view")
        result = cmds(views.deltas[0], cfg.target_dim)
    else:
        if args.solver == "ree" and views.n_views != 1:
            raise ValueError("ree takes exactly one view (use mvree for several)")
        loss = "correntropy" if args.solver == "cmvree" else "l1"
        result = ree_fit(views, cfg, loss=loss)
    write_matrix_csv(out / "configuration.csv", result.configuration)
    write_matrix_csv(out / "eigenvalues.csv", result.eigenvalues)
    write_matrix_csv(out / "gram.csv", result.gram)
    write_trace_csv(out / "trace.csv", result.trace)
    summary = _solver_summary(args.solver, result.trace)
    meta = {
        **summary,
        "config": cfg_dict,
        "ingest_report": report,
        "eigenvalue_head": [float(x) for x in result.eigenvalues[:5]],
    }
    write_json(out / "meta.json", meta)
    params = {"seed": args.seed, "config": cfg_dict}
    record = {"command": f"embed {args.solver}", "params": params, "summary": summary}
    write_run_json(out, record, {str(f): f for f in args.views})
    print(json.dumps(summary))
    return 0


def _cmd_eval(args):
    out = _out_dir(args)
    files = []
    if args.task == "knn":
        labels = read_labels(args.labels)
        split = seeded_split(labels, args.train_fraction, seed=args.seed)
        if args.distances:
            dist = read_matrix_csv(args.distances)
            preds, acc = knn_classify(split, distances=dist, k=args.k)
            files = [args.distances, args.labels]
        elif args.features:
            feats = read_matrix_csv(args.features).T  # stored dims x instances
            preds, acc = knn_classify(split, features=feats, k=args.k)
            files = [args.features, args.labels]
        elif args.configuration:
            feats = read_matrix_csv(args.configuration)  # stored instances x k
            preds, acc = knn_classify(split, features=feats, k=args.k)
            files = [args.configuration, args.labels]
        else:
            raise ValueError("give --features, --configuration or --distances")
        classes, mat = confusion_matrix(preds, labels[split.test_idx])
        scores = {
            "task": "knn",
            "k": args.k,
            "accuracy": acc,
            "test_count": int(split.test_idx.size),
            "classes": [int(c) for c in classes],
            "confusion": mat.tolist(),
        }
        np.savetxt(out / "predictions.csv", preds[:, None], fmt="%d")
    elif args.task == "retrieval":
        labels = read_labels(args.labels)
        if args.distances:
            score = retrieval_topk(
                labels, distances=read_matrix_csv(args.distances), k=args.k
            )
            files = [args.distances, args.labels]
        elif args.configuration:
            score = retrieval_topk(
                labels, configuration=read_matrix_csv(args.configuration), k=args.k
            )
            files = [args.configuration, args.labels]
        else:
            raise ValueError("give --configuration or --distances")
        scores = {
            "task": "retrieval",
            "k": args.k,
            "total_correct": score.total,
            "max_possible": int(labels.size * args.k),
            "per_query": score.per_query.tolist(),
        }
    elif args.task == "procrustes":
        est = read_matrix_csv(args.estimate)
        ref = read_matrix_csv(args.reference)
        subset = (
            [int(i) for i in args.subset.split(",")] if args.subset else None
        )
        scores = {
            "task": "procrustes",
            "rmse": procrustes_rmse(est, ref, subset=subset),
            "subset": subset,
        }
        files = [args.estimate, args.reference]
    elif args.task == "confusion":
        preds = read_labels(args.predictions)
        labels = read_labels(args.labels)
        classes, mat = confusion_matrix(preds, labels)
        scores = {
            "task": "confusion",
            "classes": [int(c) for c in classes],
            "matrix": mat.tolist(),
        }
        files = [args.predictions, args.labels]
    else:  # pragma: no cover
        raise ValueError(f"unknown eval task {args.task!r}")
    write_json(out / "scores.json", scores)
    record = {"command": f"eval {args.task}", "params": {"seed": args.seed}}
    write_run_json(out, record, {str(f): f for f in files})
    print(json.dumps({k: v for k, v in scores.items() if k not in ("per_query", "confusion")}))
    return 0


def _cmd_recipe(args):
    summary = run_recipe(args.name, seed=args.seed, out_dir=args.out, full_scale=args.full)
    print(json.dumps({"recipe": args.name, "out": str(args.out), "seed": summary["seed"]}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robustmv",
        description="Robust multi-view learning for features and dissimilarity matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--config", default=None, help="JSON string or file with solver settings")

    p_synth = sub.add_parser("synth", help="generate synthetic datasets")
    common(p_synth)
    p_synth.add_argument(
        "--kind", required=True, choices=("planted", "labeled", "pointset", "clusters")
    )
    p_synth.add_argument("--params", default=None, help="JSON generator parameters")
    p_synth.add_argument("--corrupt", default=None, help="JSON noise spec for feature kinds")
    p_synth.set_defaults(func=_cmd_synth)

    p_fit = sub.add_parser("fit-mv", help="fit a feature-space multi-view solver")
    common(p_fit)
    p_fit.add_argument("--solver", required=True, choices=sorted(_FIT_SOLVERS))
    p_fit.add_argument("--views", nargs="+", help="one CSV per view (rows = dims)")
    p_fit.add_argument("--manifest", help="JSON manifest with views/labels/config")
    p_fit.add_argument("--uci-dir", help="directory in multiple-features layout")
    p_fit.add_argument("--uci-views", default="pix,zer", help="view names in --uci-dir")
    p_fit.add_argument(
        "--duplicate",
        action="store_true",
        help="duplicate a single view into two identical copies (dimension-reduction baseline)",
    )
    p_fit.add_argument("--normalize", action="store_true", help="apply view normalization")
    p_fit.set_defaults(func=_cmd_fit_mv)

    p_embed = sub.add_parser("embed", help="embed dissimilarity views")
    common(p_embed)
    p_embed.add_argument("--solver", required=True, choices=_EMBED_SOLVERS)
    p_embed.add_argument("--views", nargs="+", required=True, help="square CSV per view")
    p_embed.add_argument("--square", action="store_true", help="square raw-distance inputs")
    p_embed.set_defaults(func=_cmd_embed)

    p_eval = sub.add_parser("eval", help="evaluate configurations or distance matrices")
    common(p_eval)
    p_eval.add_argument(
        "--task", required=True, choices=("knn", "retrieval", "procrustes", "confusion")
    )
    p_eval.add_argument("--features", help="dims x instances CSV")
    p_eval.add_argument("--configuration", help="instances x k CSV")
    p_eval.add_argument("--distances", help="N x N CSV")
    p_eval.add_argument("--labels", help="one integer label per line")
    p_eval.add_argument("--predictions", help="one predicted label per line")
    p_eval.add_argument("--estimate", help="point set CSV (procrustes)")
    p_eval.add_argument("--reference", help="point set CSV (procrustes)")
    p_eval.add_argument("--subset", help="comma-separated row indices for the RMSE")
    p_eval.add_argument("--k", type=int, default=1, help="neighbours (knn/retrieval)")
    p_eval.add_argument("--train-fraction", type=float, default=0.5)
    p_eval.set_defaults(func=_cmd_eval)

    p_recipe = sub.add_parser("recipe", help="run a full experiment recipe")
    common(p_recipe)
    p_recipe.add_argument("--name", required=True, choices=RECIPE_NAMES)
    p_recipe.add_argument(
        "--full", action="store_true", help="full-scale instance counts instead of desk scale"
    )
    p_recipe.set_defaults(func=_cmd_recipe)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError (also scipy's) subclasses ValueError, so this clause goes first.
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
