import importlib.util
import json
import shutil
import statistics
import subprocess
import sys

from conftest import REPO_ROOT

WORKLOAD, SEED, SECONDS = "slashdot-report", 5, "0.2"


def _tree(tmp_path):
    """A copy of the checkout's code, without .git: the benchmark runs in it and writes there."""
    tree = tmp_path / "tree"
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(REPO_ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_*"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tree)
    return tree


def _script(tree):
    spec = importlib.util.spec_from_file_location("bench_record", tree / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_record_keys_match_the_run_py_lines_it_wraps(tmp_path):
    tree = _tree(tmp_path)
    bench_record = _script(tree)
    # the two lines run.py prints for one smoke run
    details, result = bench_record.run_once(tree, WORKLOAD, SEED, float(SECONDS), smoke=True)
    # the record of a run reproduces what run.py printed
    run = bench_record.run_record(details, result)
    assert run["metrics"] == {name: m["value"] for name, m in result["metrics"].items()}
    assert [run[k] for k in ("correct", "attempted", "failed")] == [
        result[k] for k in ("correct", "attempted", "failed")]
    for key in ("pass_cpu_samples_s", "output_sha256", "failures", "steal_s"):
        assert run[key] == details[key]
    assert run["pass_cpu_s"] == statistics.median(details["pass_cpu_samples_s"])

    # one pair, the tree as its own parent
    subprocess.run(
        [sys.executable, "scripts/bench_record.py", "--pr", "0", "--parent", str(tree),
         "--workloads", WORKLOAD, "--seed", str(SEED), "--pairs", "1", "--seconds", SECONDS,
         "--smoke"],
        cwd=tree, check=True, stdout=subprocess.PIPE,
    )
    record = json.loads((tree / "BENCH_0.json").read_text())
    assert set(record) == {"pr", "seed", "seconds", "smoke", "pairs", "commits", "environment",
                           "workloads"}
    assert (record["pr"], record["seed"], record["pairs"], record["smoke"]) == (0, SEED, 1, True)
    assert record["commits"] == {side: details["environment"]["git_commit"]
                                 for side in ("parent", "change")}
    assert set(record["environment"]) == set(details["environment"]) - {"git_commit",
                                                                         "workload_seed"}
    assert list(record["workloads"]) == [WORKLOAD]
    entry = record["workloads"][WORKLOAD]
    assert set(entry) == {"pairs", "summary", "wins"}
    (pair,) = entry["pairs"]
    assert (pair["pair"], pair["first"]) == (1, "parent")
    metrics = set(result["metrics"]) | {"pass_cpu_s"}
    for side in ("parent", "change"):
        run = pair[side]
        assert set(run) == set(bench_record.run_record(details, result))
        assert set(run["metrics"]) == set(result["metrics"])
        assert run["correct"] is True and run["failed"] == 0
        assert len(run["output_sha256"]) == 64
        assert run["pass_cpu_s"] == statistics.median(run["pass_cpu_samples_s"])
        # one pair: the median and both quartiles are that run's value
        summary = entry["summary"][side]
        assert set(summary) == metrics
        for name, spread in summary.items():
            value = run["pass_cpu_s"] if name == "pass_cpu_s" else run["metrics"][name]
            assert spread == {"median": value, "q1": value, "q3": value}
    assert set(entry["wins"]) == metrics
    for won in entry["wins"].values():
        assert won["change"] + won["parent"] + won["tie"] == 1
