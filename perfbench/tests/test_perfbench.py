"""The benchmark's own checks: generators, names, and a smoke run of each workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("kind", ["alpha-smoke", "slashdot-smoke"])
def test_generator_is_deterministic_per_seed(kind, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    shape = gen.write_input(kind, 7, a)
    assert gen.write_input(kind, 7, b) == shape
    gen.write_input(kind, 8, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("kind", ["alpha", "slashdot"])
def test_full_size_inputs_match_their_description(kind):
    spec = gen.SPECS[kind]
    shape = gen.check(*gen.generate(kind, 0))
    assert (shape["nodes"], shape["edges"]) == (spec.nodes, spec.edges)


def test_check_rejects_a_drifted_graph():
    spec, pairs, signs = gen.generate("alpha-smoke", 0)
    with pytest.raises(ValueError, match="negative fraction"):
        gen.check(spec, pairs, [-1] * len(signs))


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    details, result = _result(_run("--workload", workload, "--seed", "1",
                                   "--seconds", "0.5", "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(details["output_sha256"]) == 64
    assert details["environment"]["thread_cap"] >= 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_reports_every_layer(workload):
    _, result = _result(_run("--workload", workload, "--seed", "1",
                             "--seconds", "0.5", "--trace", "1", "--smoke"))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    calls = metrics["balance.balance_report.calls"]
    graphs = metrics["balance.balance_report.distinct_graphs"]
    if workload == "alpha-baseline":
        assert (calls, graphs) == (3, 1)
        assert metrics["augment.augment.s"] == 0 and metrics["augment.candidates"] == 0
    elif workload == "alpha-sga":
        assert (calls, graphs) == (5, 2)
        assert metrics["augment.augment.s"] > 0
    else:
        assert all(v == 0 for k, v in metrics.items() if k.startswith("encoder."))
        assert metrics["cli.per_edge_csv.bytes"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "alpha-baseline", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
