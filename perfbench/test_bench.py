"""Tests of the benchmark itself.  Run from the repository root with

  python -m pytest perfbench

The smoke run takes every workload through one untraced and one traced
sample on tiny inputs (H2-H4 chains, an H2 optimize capped at two
iterations, a synthetic N=6 tensor), so it finishes in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, UNITS, WORKLOADS  # noqa: E402
from tracer import UNITS as LAYER_UNITS  # noqa: E402


def _run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert spec["paths"] == [HERE.name]


def test_smoke_covers_every_workload_and_metric():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines[:-1]
    details = {d["workload"]: d for d in (json.loads(line)["detail"] for line in lines[:-1])}
    assert list(details) == list(WORKLOADS)
    for workload, detail in details.items():
        assert set(detail["stats"]) == set(UNITS), workload
        assert detail["env"]["os_threads_after_import"] == 1
        for name in UNITS:
            assert f"{workload}/{name}" in result["metrics"]

    def layer(workload, name):
        return details[workload]["stats"][name]["median"]

    assert layer("h2_optimize", "optimize.objective_calls") > 0
    assert layer("h2_optimize", "optimize.iterations") > 0
    assert layer("chain_scaling", "fcidump.parse_calls") == 3
    assert layer("chain_scaling", "fcidump.write_calls") == 3
    assert layer("chain_scaling", "optimize.objective_calls") == 0
    assert layer("dense_n50", "transform.two_body_calls") == 1
    assert layer("dense_n50", "transform.two_body_gflop") == 8 * 6**5 / 1e9


def test_result_line_has_end_to_end_metrics_only():
    proc = _run("--workload", "chain_scaling", "--seed", "3", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dense_n50", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
