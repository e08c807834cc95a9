"""Smoke test of the benchmark at a tiny scale.

Runs every workload once untraced and once traced, checks that every metric
named in BENCHMARK.json is emitted with its unit, that the output checks
pass, and that the recorded spans nest with non-negative self times.  It
also checks that the benchmark refuses to run without the package sources.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    detail = json.loads(detail_line)
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed"):
        assert key in detail["environment"]
    if trace:
        _check_spans(ROOT / detail["spans_file"])


def _check_spans(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "traced run recorded no spans"
    for s in spans:
        assert s["start_ns"] <= s["end_ns"]
        assert s["self_ns"] >= 0, s
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], (p, s)
            assert p["pass"] == s["pass"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
