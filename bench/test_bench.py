"""Checks of the benchmark itself, on tiny inputs (``--smoke``).

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_spec_names_the_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == layers.METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "train", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_self_time_excludes_children():
    # root [0, 10] -> nn.forward [1, 4] and trainer.train [5, 9] -> nn.backward [6, 8]
    trace = {"spans": [
        [1, 0, "nn.forward", 1.0, 4.0, {"mode": "train", "rows": 8,
                                        "cache_bytes": 1024 * 1024}],
        [3, 2, "nn.backward", 6.0, 8.0, {}],
        [2, 0, "trainer.train", 5.0, 9.0, {}],
        [0, None, "cli.main", 0.0, 10.0, {}],
    ]}
    m = layers.summarize(trace)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trainer.train.self_s"] == pytest.approx(2.0)
    assert m["nn.self_s"] == pytest.approx(5.0)
    assert m["nn.forward.train.ms_per_call"] == pytest.approx(3000.0)
    assert m["nn.forward.cache_mb_per_krow"] == pytest.approx(125.0)
