"""Benchmark entry point for robustmv.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload feature-fusion --seed 0 --seconds 20 --trace 0

One process, one client, closed loop: each pass of the workload's task list
starts when the previous one has ended.  Set-up imports the package from
``src/``, makes the inputs from the seed and runs one untimed warm-up pass,
whose outputs are the reference for the output checks.  Then passes are
timed until ``--seconds`` is used up.  ``--trace 0`` reports the end-to-end
metrics, timing a fixed reference kernel before and after every task so that
task times can be given in units of the machine's current speed; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics, with
the tracing overhead.  The last line of stdout is the result object; the line
before it holds the environment, the raw pass times, the quality figures and
the failures.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

SETUP_REPEATS = 3
BLAS_THREADS = 1  # one compute thread: the host's other cores are shared
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def _environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


class Runner:
    """Runs passes of one workload and keeps tallies of tasks and failures."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []
        self.reference = None
        self.quality = None
        self.task_ref = {}  # task -> its time in reference-kernel units, per pass

    def run_pass(self, tracer=None, pass_id=None, kernel=None):
        """One timed pass, then its checks; returns the summed task time in seconds.

        With ``kernel``, the reference kernel is timed before the first task
        and after each task, and each task's time divided by the mean of the
        two kernel times around it is appended to ``task_ref``.
        """
        tmp = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            results = {}
            with tracer.installed(pass_id) if tracer else contextlib.nullcontext():
                elapsed = self._tasks(tmp, results, kernel)
            self._check(tmp, results)
        finally:
            shutil.rmtree(tmp)
        return elapsed

    def _tasks(self, tmp, results, kernel):
        total = 0.0
        before = kernel() if kernel else None
        for task, fn in self.workload.tasks(tmp):
            self.attempted += 1
            start = time.perf_counter()
            try:
                results[task] = fn()
            except Exception as exc:  # a failed task is counted, the pass goes on
                traceback.print_exc(file=sys.stderr)
                results[task] = exc
            task_s = time.perf_counter() - start
            total += task_s
            if kernel:
                after = kernel()
                self.task_ref.setdefault(task, []).append(2.0 * task_s / (before + after))
                before = after
        return total

    def _check(self, tmp, results):
        first = self.reference is None
        good = {t: r for t, r in results.items() if not isinstance(r, Exception)}
        for task, res in results.items():
            if isinstance(res, Exception):
                errors = [f"{task}: raised {res!r}"]
            else:
                ref = None if first else self.reference.get(task)
                try:
                    errors = self.workload.check(task, res, ref, tmp)
                except Exception as exc:  # an output the check cannot read fails the task
                    traceback.print_exc(file=sys.stderr)
                    errors = [f"{task}: check raised {exc!r}"]
            if errors:
                self.failures.append(errors[0])
                print("\n".join(errors), file=sys.stderr)
        if first:
            self.reference = good
            self.quality = self.workload.quality(good)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def _per_layer(tracer, traced_ids, traced, untraced):
    """Medians over traced passes; set-up generation is added to datagen.gen_s."""
    self_ns = tracer.self_times()
    samples = [tracer.layer_metrics(p, self_ns, wall) for p, wall in zip(traced_ids, traced)]
    setup_gen = tracer.layer_metrics("setup", self_ns, 0.0)["datagen.gen_s"]
    out = {}
    for key in samples[0]:
        value = median([s[key] for s in samples])
        if key == "datagen.gen_s":
            value += setup_gen
        out[key] = value
    out["trace.traced_wall_s"] = median(traced)
    out["trace.untraced_wall_s"] = median(untraced)
    # Each traced pass runs next to an untraced one; the median of the paired
    # differences is steadier than the difference of the two medians when the
    # machine's speed drifts during the run.
    out["trace.overhead_s"] = median([t - u for t, u in zip(traced, untraced)])
    return out


def main(argv=None):
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "robustmv" / "__init__.py").is_file():
        print(f"no robustmv package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import robustmv
    import robustmv.cli  # noqa: F401  (imports every layer)

    import_s = time.perf_counter() - t0
    if Path(robustmv.__file__).resolve().parent != (src / "robustmv").resolve():
        print(f"robustmv imported from {robustmv.__file__}, not {src}", file=sys.stderr)
        return 2

    from reference import ReferenceKernel
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    work_dir = root / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    runner = Runner(workload, work_dir)
    tracer = Tracer() if args.trace else None
    kernel = None if tracer else ReferenceKernel()
    if kernel:
        kernel()  # first call pays for lazy imports and page faults

    gen_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.installed("setup") if tracer else contextlib.nullcontext():
            workload.setup()
        gen_times.append(time.perf_counter() - start)
    warmup_s = runner.run_pass()
    setup_s = import_s + median(gen_times) + warmup_s

    untraced, traced, traced_ids, with_kernel = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer is None:
            pass_start = time.perf_counter()
            untraced.append(runner.run_pass(kernel=kernel))
            with_kernel.append(time.perf_counter() - pass_start)
            typical = median(with_kernel)
        else:
            n = len(traced)
            order = (False, True) if n % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    traced_ids.append(f"pass{n}")
                    traced.append(runner.run_pass(tracer, traced_ids[-1]))
                else:
                    untraced.append(runner.run_pass())
            typical = median(untraced) + median(traced)
        if time.perf_counter() - start + typical > args.seconds:
            break

    attempted = runner.attempted
    failed = len(runner.failures)
    detail = {
        "workload": workload.name,
        "environment": _environment(args.seed),
        "passes": len(untraced) + len(traced),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "setup": {"import_s": import_s, "gen_s": median(gen_times), "warmup_s": warmup_s},
        "quality": runner.quality,
        "failed_frac": failed / attempted,
        "failures": runner.failures[:10],
    }
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Each task's median over the passes, summed: one pass in kernel units.
        wall_ref = sum(median(v) for v in runner.task_ref.values())
        detail["wall_s"] = median(untraced)
        detail["task_ref"] = {t: median(v) for t, v in runner.task_ref.items()}
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_ref": _metric(wall_ref, "ref"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        spans_file = work_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(root))
        layer = _per_layer(tracer, traced_ids, traced, untraced)
        metrics = {k: _metric(v, _unit(k)) for k, v in layer.items()}
    print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
