"""Outside-in layer tracer for the robustmv benchmark.

The tracer never edits the package.  It replaces the public functions of
each robustmv module *where they are looked up*: the module attributes of
``features``, ``embedding``, ``evaluation``, ``io``, ``datagen``, ``recipes``
and ``cli`` (module-internal calls go through those globals), plus the names
``cli`` and ``recipes`` imported from the other modules.  Each wrapped call
records a span (name, start, end, parent, pass id) in memory; spans are
written out once, when the run ends.  ``losses`` and ``trace`` are not
wrapped because no solver calls them.

A layer's self time is a span's duration minus the part its child spans
cover.  Calls are single-threaded and strictly nested, so children never
overlap and self time is never negative.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("features", "embedding", "evaluation", "io", "datagen", "recipes", "cli")

# Private functions that carry a share of a named phase for the l2mv and
# cauchymv solvers; without them objective/update-A time would be partial.
_EXTRA = {"features": ("_l2_objective", "_cauchy_objective", "_cauchy_update_a")}

# Groups of spans behind each per-layer time metric.  A group's time sums
# the spans of the group that are not nested inside another span of it.
TIME_GROUPS = {
    "features.update_x_s": ("features.cmv_update_x", "features.cemv_update_x"),
    "features.update_w_s": ("features.cmv_update_w", "features.cemv_update_w"),
    "features.update_a_s": (
        "features.cmv_update_a",
        "features.cemv_update_a",
        "features._cauchy_update_a",
    ),
    "features.objective_s": (
        "features.cmv_objective",
        "features.cemv_objective",
        "features._l2_objective",
        "features._cauchy_objective",
    ),
    "features.cmv_fit_s": ("features.cmv_fit",),
    "features.cemv_fit_s": ("features.cemv_fit",),
    "features.l2mv_fit_s": ("features.l2mv_fit",),
    "features.cauchymv_fit_s": ("features.cauchymv_fit",),
    "embedding.psd_project_s": ("embedding.psd_project",),
    "embedding.b_to_d_s": ("embedding.b_to_d",),
    "embedding.gradient_s": ("embedding.cmvree_gradient", "embedding.mvree_subgradient"),
    "embedding.objective_s": ("embedding.f_objective", "embedding.f0_objective"),
    "embedding.l1_fit_s": ("embedding.ree_fit[l1]",),
    "embedding.correntropy_fit_s": ("embedding.ree_fit[correntropy]",),
    "evaluation.knn_s": ("evaluation.knn_classify",),
    "evaluation.retrieval_s": ("evaluation.retrieval_topk",),
    "evaluation.procrustes_s": ("evaluation.procrustes_rmse", "evaluation.procrustes_align"),
    "io.read_s": ("io.read_matrix_csv", "io.read_labels"),
    "io.write_s": (
        "io.write_matrix_csv",
        "io.write_labels",
        "io.write_json",
        "io.write_trace_csv",
    ),
    "io.hash_s": ("io.file_sha256",),
    "datagen.gen_s": (
        "datagen.gen_planted_multiview",
        "datagen.gen_labeled_multiview",
        "datagen.gen_point_set_views",
        "datagen.gen_cluster_retrieval_views",
        "datagen.corrupt_instances",
        "datagen.corrupt_pixels",
    ),
}

# Span counts reported as per-layer work counts.
CALL_GROUPS = {
    "features.outer_iters": TIME_GROUPS["features.objective_s"],
    "embedding.psd_project_calls": ("embedding.psd_project",),
    "embedding.b_to_d_calls": ("embedding.b_to_d",),
    "embedding.iters": TIME_GROUPS["embedding.gradient_s"],
}


def _path_bytes(path):
    return os.path.getsize(path)


def _knn_queries(args, kwargs):
    split = args[0] if args else kwargs["split"]
    return [("evaluation.queries", int(split.test_idx.size))]


def _retrieval_queries(args, kwargs):
    labels = args[0] if args else kwargs["labels"]
    return [("evaluation.queries", len(labels))]


def _read_bytes(args, kwargs):
    return [("io.read_bytes", _path_bytes(args[0] if args else kwargs["path"]))]


def _write_bytes(args, kwargs):
    return [("io.write_bytes", _path_bytes(args[0] if args else kwargs["path"]))]


# Counters kept by the wrappers, beside the span counts above.
COUNTERS = ("features.cholesky_calls", "evaluation.queries", "io.read_bytes", "io.write_bytes")

# Counters taken from a call's arguments once it has returned.
_COUNT_HOOKS = {
    "evaluation.knn_classify": _knn_queries,
    "evaluation.retrieval_topk": _retrieval_queries,
    "io.read_matrix_csv": _read_bytes,
    "io.write_matrix_csv": _write_bytes,
    "io.write_labels": _write_bytes,
    "io.write_json": _write_bytes,
    "io.write_trace_csv": _write_bytes,
}


def _ree_span_name(args, kwargs):
    loss = kwargs.get("loss", args[2] if len(args) > 2 else "correntropy")
    return f"embedding.ree_fit[{loss}]"


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pass_id = pass_id


class Tracer:
    """Patches robustmv's lookup sites while installed and records spans.

    Use as ``with tracer.installed(pass_id): ...``; the original functions
    are restored on exit, so untraced and traced passes can alternate in one
    process.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._pass_id = None
        self._plan = self._make_plan()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = _COUNT_HOOKS.get(name)
        namer = _ree_span_name if name == "embedding.ree_fit" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(namer(args, kwargs) if namer else name, clock(), parent, self._pass_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if hook is not None:
                for key, amount in hook(args, kwargs):
                    self._count(key, amount)
            return result

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(name, 1)
            return fn(*args, **kwargs)

        return counted

    def _count(self, key, amount):
        bucket = self.counts.setdefault(self._pass_id, Counter())
        bucket[key] += amount

    def _make_plan(self):
        """(namespace, attribute, replacement) for every lookup site."""
        modules = {layer: importlib.import_module(f"robustmv.{layer}") for layer in LAYERS}
        wrapped = {}
        plan = []
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", [])) + list(_EXTRA.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                wrapped[id(fn)] = wrapper
                plan.append((mod, attr, wrapper))
        # cli.main is the benchmark's entry into the program.
        plan.append((modules["cli"], "main", self._wrap("cli.main", modules["cli"].main)))
        # Names imported into cli and recipes are separate lookup sites.
        for layer in ("cli", "recipes"):
            mod = modules[layer]
            for attr, value in vars(mod).items():
                if id(value) in wrapped and value.__module__ != mod.__name__:
                    plan.append((mod, attr, wrapped[id(value)]))
        # Count the Cholesky factorizations as bound in robustmv.features.
        feats = modules["features"]
        plan.append(
            (feats, "cho_factor", self._counted("features.cholesky_calls", feats.cho_factor))
        )
        return plan

    @contextlib.contextmanager
    def installed(self, pass_id):
        saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in self._plan]
        self._pass_id = pass_id
        try:
            for ns, attr, replacement in self._plan:
                setattr(ns, attr, replacement)
            yield self
        finally:
            for ns, attr, original in saved:
                setattr(ns, attr, original)
            self._pass_id = None

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Self time (ns) of every span: duration minus children's durations."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, pass_id, self_ns, wall_s):
        """Per-layer metrics (seconds and counts) of one pass lasting ``wall_s``."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        out = {}
        for metric, group in TIME_GROUPS.items():
            total = 0
            for _, s in spans:
                if s.name in group and not self._inside(s, group):
                    total += s.end - s.start
            out[metric] = total / 1e9
        for metric, group in CALL_GROUPS.items():
            out[metric] = sum(1 for _, s in spans if s.name in group)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self_ns[i] for i, s in spans if s.name.startswith(layer + ".")
            ) / 1e9
        covered = sum(s.end - s.start for _, s in spans if s.parent is None) / 1e9
        out["trace.uncovered_s"] = wall_s - covered
        out["trace.spans"] = len(spans)
        counts = self.counts.get(pass_id, Counter())
        for key in COUNTERS:
            out[key] = counts.get(key, 0)
        return out

    def _inside(self, span, group):
        """Whether an ancestor of ``span`` belongs to ``group``."""
        p = span.parent
        while p is not None:
            if self.spans[p].name in group:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path):
        """Write every span as one JSON line; parents are line indices."""
        self_ns = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "parent": s.parent,
                    "pass": s.pass_id,
                    "self_ns": self_ns[i],
                }
                fh.write(json.dumps(row) + "\n")
