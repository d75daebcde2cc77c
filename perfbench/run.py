"""sigaug benchmark: one workload, one seed, one JSON result line.

Run from the root of a sigaug checkout:

    python3 perfbench/run.py --workload alpha-sga --seed 3 --seconds 30 --trace 0

The input graph is generated from ``--seed`` into ``.perfbench_work/`` and
removed afterwards.  Set-up is sampled in separate fresh processes, then one
fresh worker process (``worker.py``) repeats the workload's pass for
``--seconds`` and checks every output.  Times are CPU seconds of the worker
scaled to reference seconds by ``probe.Probe`` (see ``worker.py``).  BLAS/OpenMP threads are capped at
``workloads.THREAD_CAP`` in this process and every worker, before numpy is
imported.

Output: one JSON line with the environment, output hash and details, then
the result line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones and the spans go to ``.perfbench_out/``.  Exit code 2
means the directory is not a sigaug checkout, 1 that a run could not finish.
"""

from __future__ import annotations

import os
import sys

from workloads import SETUPS_PER_RUN, SMOKE, THREAD_CAP, THREAD_ENV_VARS, WORKLOADS

for _var in THREAD_ENV_VARS:  # before anything imports numpy
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
from probe import to_reference  # noqa: E402
from workloads import END_TO_END  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 170  # every run must end within 180 s


class RunFailed(RuntimeError):
    pass


def _git_commit(root: Path) -> str:
    """HEAD of ``root/.git`` read as files; never looks above ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(root),
        "workload_seed": seed,
    }


def steal_s() -> float | None:
    """Seconds the hypervisor took from this machine's CPUs (all CPUs summed)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_worker(args: list[str], deadline: float) -> tuple[tuple[float, float], list[str]]:
    """Run ``worker.py args``; return ((set-up CPU s, probe s), its stdout lines)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed("worker exceeded the run's time budget") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = [line.split()[1:] for line in lines if line.startswith("READY ")]
    if not ready:
        raise RunFailed("worker never reported READY")
    setup_cpu_s, probe_s = map(float, ready[0])
    return (setup_cpu_s, probe_s), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "sigaug" / "__init__.py").is_file():
        print(f"error: {root} is not a sigaug checkout (no src/sigaug)", file=sys.stderr)
        return 2
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    workdir = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        suffix = ".csv" if workload.input_format == "rating-csv" else ".tsv"
        input_path = workdir / f"input{suffix}"
        shape = gen.write_input(workload.input_kind, args.seed, input_path)
        worker_args = ["--workload", workload.name, "--input", str(input_path),
                       "--workdir", str(workdir), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        steal_before = steal_s()
        setup_s = []
        if not args.trace:
            for _ in range(SETUPS_PER_RUN - 1):
                setup_s.append(run_worker([*worker_args, "--setup-only"], deadline)[0])
        ready_s, lines = run_worker(worker_args, deadline)
        setup_s.append(ready_s)
        summary = json.loads(lines[-1])
        steal_after = steal_s()
        probes = summary["probe_s"]  # after set-up, then after each pass
    except (RunFailed, ValueError) as exc:
        print(f"error: {workload.name} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": workload.name,
        "environment": environment(root, args.seed),
        "input_shape": shape,
        "output_sha256": summary["output_sha256"],
        "quality": summary["quality"],
        "failures": summary["failures"],
        "setup_cpu_and_probe_samples_s": setup_s,
        "pass_cpu_samples_s": summary["pass_cpu_s"],
        "pass_wall_samples_s": summary["pass_wall_s"],
        "traced_pass_cpu_samples_s": summary["traced_pass_cpu_s"],
        "probe_samples_s": probes,
        "steal_s": None if steal_before is None else steal_after - steal_before,
    }
    if args.trace:
        metrics = summary["per_layer"]
        outdir = root / ".perfbench_out"
        outdir.mkdir(exist_ok=True)
        spans_path = outdir / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({**details, "spans": summary["spans"]}) + "\n")
        details["spans_file"] = str(spans_path.relative_to(root))
    else:
        # a pass is scaled by the probes on either side, a set-up by the one after it
        pass_s = statistics.median(
            to_reference(cpu, (before + after) / 2)
            for cpu, before, after in zip(summary["pass_cpu_s"], probes, probes[1:])
        )
        values = {
            "setup_s": statistics.median(to_reference(cpu, probe) for cpu, probe in setup_s),
            "pass_s": pass_s,
            "edges_per_s": summary["unique_edges"] / pass_s,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps(details))
    print(json.dumps({
        "correct": summary["failed"] == 0 and not summary["failures"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
