"""Command-line front end.

Subcommands: ``synth`` (data generation), ``fit-mv`` (feature-space
solvers), ``embed`` (dissimilarity solvers), ``eval`` (downstream scoring)
and ``recipe`` (full experiment pipelines).  Every command does its work
first and then hands its artifacts and its ``run.json`` echo (parameters,
seed and input hashes) to ``io.write_run``, the only writer of ``--out``, so
a rejected or failed run leaves no directory.  Only ``fit-mv`` and
``embed`` take ``--config``; ``--config``, ``--params`` and ``--corrupt``
must be strict JSON with finite numbers.  ``fit-mv``
reads exactly one input source, ``--views`` or ``--uci-dir``, and
``--uci-views`` only with ``--uci-dir``.  Each ``eval``
task reads the file flags and options its ``_EVAL_TASKS`` entry lists and
rejects any other one it is given (``--seed`` and ``--out`` are common to
every command); ``knn`` writes its test-split predictions and, in the same
order, the true labels (``test_labels.csv``), so ``eval --task confusion``
can score the pair.  Exit codes: 0 on success, 2 on validation errors, 3
on numerical failure, each with a one-line JSON diagnostic on stderr.
"""

import argparse
import functools
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
    dataset_files,
    ingest_dissimilarities,
    ingest_features,
    ingest_uci_directory,
    read_labels,
    read_matrix_csv,
    write_run,
)
from .losses import check_integer
from .recipes import RECIPE_NAMES, run_recipe
from .trace import NumericalError

# The tables below hold names, not functions: each function is looked up when
# it is called, so a patched module attribute is the one that runs.
_FIT_SOLVERS = ("cmv", "cemv", "l2mv", "cauchymv")  # fit-mv calls <solver>_fit
_EMBED_SOLVERS = ("cmds", "ree", "mvree", "cmvree")

_SYNTH_DEFAULTS = {
    "planted": {"n_instances": 50, "latent_dim": 3, "view_dims": [6, 5]},
    "labeled": {"classes": 10, "per_class": 40, "view_dims": [64, 32], "latent_dim": 8},
    "pointset": {"box": 4.5, "magnitude": 10.0, "noise_on": "squared"},
    "clusters": {"classes": 9, "per_class": 11, "corrupt_per_view": 10, "magnitude": 10.0},
}

# Each eval task scores with _score_<task>(args, **inputs), which returns the
# scores and {file name: labels} to write beside them.  Its entry holds the
# evaluator keyword each of its matrix flags feeds (it takes exactly one of
# them), the other file flags it needs, then the options it reads; any other
# file flag or option is an error.  Files are read in _EVAL_FILES order.
_EVAL_TASKS = {
    "knn": (
        {"features": "features", "configuration": "features", "distances": "distances"},
        ("labels",),
        ("k", "train_fraction"),
    ),
    "retrieval": (
        {"configuration": "configuration", "distances": "distances"}, ("labels",), ("k",)
    ),
    "procrustes": ({}, ("estimate", "reference"), ("subset",)),
    "confusion": ({}, ("predictions", "labels"), ()),
}
_EVAL_OPTIONS = {"k": 1, "train_fraction": 0.5, "subset": None}  # option: value when not given
_MATRIX_FILES = ("features", "configuration", "distances")
_EVAL_FILES = ("labels", "predictions", "estimate", "reference", *_MATRIX_FILES)


def _parse_config(raw, flag):
    # Inline JSON (text starting with "{") is never looked up on disk.
    if raw is None:
        return {}
    if not raw.lstrip().startswith("{") and os.path.isfile(raw):
        raw = Path(raw).read_text(encoding="utf-8")
    try:
        cfg = json.loads(raw, parse_constant=_finite, parse_float=_finite,
                         parse_int=functools.partial(_finite, kind=int))
    except ValueError as exc:  # JSONDecodeError, or a number _finite rejects
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{flag} must be a JSON object")
    return cfg


def _finite(token, kind=float):
    # Parses a JSON number or a NaN/Infinity token as ``kind``: NaN, +-Infinity
    # and a number that overflows a float, such as 1e400, are rejected.
    if not np.isfinite(float(token)):
        raise ValueError(f"{token} is not a finite number")
    return kind(token)


def _finish(args, files, record, inputs, line):
    """Write ``files`` and ``run.json`` (``record`` plus the hash of every input) to ``--out``.

    Then print ``line``; returns the exit code 0.
    """
    write_run(args.out, files, record, {str(f): f for f in inputs})
    print(json.dumps(line))
    return 0


def _solver_config(args, defaults):
    """Solver settings: ``defaults``, then ``--seed``, then ``--config``."""
    return {**defaults, "seed": args.seed, **_parse_config(args.config, "--config")}


def _solver_record(args, trace, params):
    """A solver run's ``run.json`` record and the summary it prints."""
    summary = {
        "solver": args.solver,
        "iterations": trace.iterations_run,
        "converged": trace.converged,
        "reason": trace.reason,
        "final_objective": trace.final_objective,
    }
    record = {"command": f"{args.command} {args.solver}", "params": params, "summary": summary}
    return record, summary


def _cmd_synth(args):
    noise = _noise_spec(args)
    if noise is not None and args.kind != "labeled":
        raise ValueError(f"--corrupt applies to --kind labeled only, not --kind {args.kind}")
    p = {**_SYNTH_DEFAULTS[args.kind], **_parse_config(args.params, "--params")}
    truth = {}  # ground truth written beside the views: {file name: matrix}
    labels = None
    if args.kind == "planted":
        fs, w_true, x_true = gen_planted_multiview(seed=args.seed, **p)
        matrices = fs.views
        truth["true_latents.csv"] = x_true
        for v, w in enumerate(w_true):
            truth[f"true_map{v + 1}.csv"] = w
    elif args.kind == "labeled":
        labels, fs = gen_labeled_multiview(seed=args.seed, **p)
        matrices = _apply_corruption(fs, noise).views
    elif args.kind == "pointset":
        points, views = gen_point_set_views(seed=args.seed, **p)
        truth["points.csv"] = points
        matrices = views.deltas
    else:
        labels, views = gen_cluster_retrieval_views(seed=args.seed, **p)
        matrices = views.deltas
    files = dataset_files(matrices, labels, truth)
    params = {"seed": args.seed, "params": p}
    if noise is not None:
        params["corrupt"] = noise
    record = {"command": f"synth {args.kind}", "params": params}
    written = [Path(args.out) / name for name in files]
    return _finish(args, files, record, written, {"written": [str(f) for f in written]})


def _noise_spec(args):
    """The ``--corrupt`` spec with its view, kind and seed resolved, or None.

    ``run.json`` records it as returned, so the echo rebuilds the same views.
    """
    if args.corrupt is None:
        return None
    spec = {"view": 0, "kind": "instance_replacement", "seed": args.seed}
    spec.update(_parse_config(args.corrupt, "--corrupt"))
    spec["view"] = check_integer(spec["view"], "view")
    return spec


def _apply_corruption(fs, noise):
    if noise is None:
        return fs
    spec = dict(noise)
    view = spec.pop("view")
    corrupt = corrupt_instances if spec["kind"] == "instance_replacement" else corrupt_pixels
    fs, _ = corrupt(fs, view, NoiseSpec(**spec))
    return fs


def _cmd_fit_mv(args):
    if (args.views is None) == (args.uci_dir is None):
        raise ValueError("give exactly one of --views and --uci-dir")
    if args.uci_views is not None and args.uci_dir is None:
        raise ValueError("--uci-views applies to --uci-dir only")
    if args.uci_dir is not None:
        names = ("pix,zer" if args.uci_views is None else args.uci_views).split(",")
        files = [Path(args.uci_dir) / f"mfeat-{name}" for name in names]
        fs = ingest_uci_directory(args.uci_dir, view_names=names)
    else:
        files = args.views
        fs = ingest_features(files)
    if args.normalize:
        fs = normalize_views(fs)
    config = _solver_config(args, {"latent_dim": 10})
    model = globals()[f"{args.solver}_fit"](fs, CmvConfig(**config))
    written = {
        "X.csv": model.X,
        "trace.csv": model.trace,
        "weights.csv": instance_weight_profile(model),
    }
    params = {"seed": args.seed, "normalize": args.normalize, "config": config}
    record, summary = _solver_record(args, model.trace, params)
    return _finish(args, written, record, [Path(f) for f in files], summary)


def _cmd_embed(args):
    views, report = ingest_dissimilarities(args.views, square=args.square)
    config = _solver_config(args, {})
    cfg = EmbedConfig(**config)
    if args.solver == "cmds":
        if views.n_views != 1:
            raise ValueError("cmds takes exactly one view")
        result = cmds(views.deltas[0], cfg.target_dim)
    else:
        if args.solver == "ree" and views.n_views != 1:
            raise ValueError("ree takes exactly one view (use mvree for several)")
        loss = "correntropy" if args.solver == "cmvree" else "l1"
        result = ree_fit(views, cfg, loss=loss)
    written = {
        "configuration.csv": result.configuration,
        "eigenvalues.csv": result.eigenvalues,
        "gram.csv": result.gram,
        "trace.csv": result.trace,
    }
    record, summary = _solver_record(args, result.trace, {"seed": args.seed, "config": config})
    record["ingest_report"] = report
    return _finish(args, written, record, args.views, summary)


def _eval_inputs(args):
    """``{flag: evaluator keyword}`` for the files ``args.task`` reads, checked before any read.

    Options the task reads but was not given are set to their ``_EVAL_OPTIONS`` value.
    """
    feeds, needed, opts = _EVAL_TASKS[args.task]
    given = [flag for flag in _EVAL_FILES if getattr(args, flag) is not None]
    matrix = [flag for flag in given if flag in _MATRIX_FILES]
    if feeds and (len(matrix) != 1 or matrix[0] not in feeds):
        names = ", ".join(f"--{f}" for f in feeds)
        raise ValueError(f"eval --task {args.task} takes exactly one of {names}")
    for flag in needed:
        if getattr(args, flag) is None:
            raise ValueError(f"eval --task {args.task} needs --{flag}")
    unread = [flag for flag in given if flag not in feeds and flag not in needed]
    unread += [opt for opt in _EVAL_OPTIONS if opt not in opts and getattr(args, opt) is not None]
    if unread:
        names = ", ".join(f"--{name.replace('_', '-')}" for name in unread)
        raise ValueError(f"eval --task {args.task} does not read {names}")
    vars(args).update({opt: _EVAL_OPTIONS[opt] for opt in opts if getattr(args, opt) is None})
    return {flag: feeds.get(flag, flag) for flag in given}


def _read_eval_file(flag, path):
    if flag in ("labels", "predictions"):
        return read_labels(path)
    matrix = read_matrix_csv(path)
    return matrix.T if flag == "features" else matrix  # --features is dims x instances


def _score_knn(args, labels, **matrix):
    split = seeded_split(labels, args.train_fraction, seed=args.seed)
    preds, acc = knn_classify(split, k=args.k, **matrix)
    truth = labels[split.test_idx]
    classes, mat = confusion_matrix(preds, truth, classes=labels)
    return {
        "task": "knn",
        "k": args.k,
        "accuracy": acc,
        "test_count": int(truth.size),
        "classes": classes.tolist(),
        "confusion": mat.tolist(),
    }, {"predictions.csv": preds, "test_labels.csv": truth}


def _score_retrieval(args, labels, **matrix):
    score = retrieval_topk(labels, k=args.k, **matrix)
    return {
        "task": "retrieval",
        "k": args.k,
        "total_correct": score.total,
        "max_possible": int(labels.size * args.k),
        "per_query": score.per_query.tolist(),
    }, {}


def _score_procrustes(args, estimate, reference):
    rmse = procrustes_rmse(estimate, reference, subset=args.subset)
    return {"task": "procrustes", "rmse": rmse, "subset": args.subset}, {}


def _score_confusion(args, predictions, labels):
    classes, mat = confusion_matrix(predictions, labels)
    return {"task": "confusion", "classes": classes.tolist(), "matrix": mat.tolist()}, {}


def _cmd_eval(args):
    inputs = _eval_inputs(args)
    try:  # --subset, like every flag, is checked before any file is read
        if args.subset is not None:
            args.subset = [int(i) for i in args.subset.split(",")]
    except ValueError:
        raise ValueError(
            f"--subset takes comma-separated row indices, not {args.subset!r}"
        ) from None
    read = {key: _read_eval_file(flag, getattr(args, flag)) for flag, key in inputs.items()}
    scores, written = globals()[f"_score_{args.task}"](args, **read)
    record = {"command": f"eval {args.task}", "params": {"seed": args.seed}}
    line = {k: v for k, v in scores.items() if k not in ("per_query", "confusion")}
    files = {**written, "scores.json": scores}
    return _finish(args, files, record, [getattr(args, flag) for flag in inputs], line)


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
    # No prefix matching: an option a command lacks is an error, never a
    # shortened spelling of another (``eval --config`` is not ``--configuration``).
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p, config=False):
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", default=".", help="output directory")
        if config:
            p.add_argument("--config", help="JSON string or file with solver settings")

    p_synth = command("synth", help="generate synthetic datasets")
    common(p_synth)
    p_synth.add_argument("--kind", required=True, choices=tuple(_SYNTH_DEFAULTS))
    p_synth.add_argument("--params", default=None, help="JSON generator parameters")
    p_synth.add_argument("--corrupt", default=None, help="JSON noise spec (--kind labeled only)")
    p_synth.set_defaults(func=_cmd_synth)

    p_fit = command("fit-mv", help="fit a feature-space multi-view solver")
    common(p_fit, config=True)
    p_fit.add_argument("--solver", required=True, choices=sorted(_FIT_SOLVERS))
    p_fit.add_argument("--views", nargs="+", help="one CSV per view (rows = dims)")
    p_fit.add_argument("--uci-dir", help="directory in multiple-features layout")
    p_fit.add_argument("--uci-views", help="view names in --uci-dir (default pix,zer)")
    p_fit.add_argument("--normalize", action="store_true", help="apply view normalization")
    p_fit.set_defaults(func=_cmd_fit_mv)

    p_embed = command("embed", help="embed dissimilarity views")
    common(p_embed, config=True)
    p_embed.add_argument("--solver", required=True, choices=_EMBED_SOLVERS)
    p_embed.add_argument("--views", nargs="+", required=True, help="square CSV per view")
    p_embed.add_argument("--square", action="store_true", help="square raw-distance inputs")
    p_embed.set_defaults(func=_cmd_embed)

    p_eval = command("eval", help="evaluate configurations or distance matrices")
    common(p_eval)
    p_eval.add_argument("--task", required=True, choices=tuple(_EVAL_TASKS))
    p_eval.add_argument("--features", help="dims x instances CSV")
    p_eval.add_argument("--configuration", help="instances x k CSV")
    p_eval.add_argument("--distances", help="N x N CSV")
    p_eval.add_argument("--labels", help="one integer label per line")
    p_eval.add_argument("--predictions", help="one predicted label per line")
    p_eval.add_argument("--estimate", help="point set CSV (procrustes)")
    p_eval.add_argument("--reference", help="point set CSV (procrustes)")
    p_eval.add_argument("--subset", help="comma-separated row indices for the RMSE (procrustes)")
    p_eval.add_argument("--k", type=int, help="neighbours (knn/retrieval; default 1)")
    p_eval.add_argument("--train-fraction", type=float, help="knn training share (default 0.5)")
    p_eval.set_defaults(func=_cmd_eval)

    p_recipe = command("recipe", help="run a full experiment recipe")
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
        # LinAlgError subclasses ValueError, so this clause goes first.
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
