import importlib.util
import json
import shutil
import sys

from conftest import REPO_ROOT, community_records
from sigaug.cli import main

SCRIPT = REPO_ROOT / "scripts" / "run_full_benchmarks.py"


def _driver():
    spec = importlib.util.spec_from_file_location("run_full_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _contents(run_dir) -> dict[str, bytes]:
    """Every file of a run directory, without the timing and environment that vary by run."""
    files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    for name, varying in (("report.json", "timing"), ("config.resolved.json", "environment")):
        payload = json.loads(files[name])
        del payload[varying]
        files[name] = json.dumps(payload, sort_keys=True).encode()
    return files


def test_driver_writes_what_sigaug_run_writes_for_each_pipeline(tmp_path, monkeypatch, capsys):
    # random:<kind>,<ratio> is one pipeline although it holds a comma
    data = tmp_path / "data"
    data.mkdir()
    records = community_records(n=40, seed=21, p_intra=0.3, p_inter=0.15, flip=0.08)
    (data / "soc-sign-bitcoinalpha.csv").write_text(
        "".join(f"{e.u},{e.v},{e.sign}\n" for e in records))
    monkeypatch.setenv("SIGAUG_DATA_DIR", str(data))
    pipelines = ["baseline", "random:drop-edge,0.1"]
    out = tmp_path / "out"
    run_dirs = {p: out / "bitcoin-alpha" / p.replace(":", "_") for p in pipelines}
    expected = {}
    for pipeline, run_dir in run_dirs.items():
        assert main(["--quiet", "run", "--dataset", "bitcoin-alpha", "--pipeline", pipeline,
                     "--seeds", "1", "--outdir", str(run_dir)]) == 0
        expected[pipeline] = _contents(run_dir)
    shutil.rmtree(out)

    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--datasets", "bitcoin-alpha",
                                      "--pipelines", ",".join(pipelines), "--seeds", "1",
                                      "--outdir", str(out)])
    assert _driver().main() == 0
    assert "all runs complete" in capsys.readouterr().out
    assert {p: _contents(run_dir) for p, run_dir in run_dirs.items()} == expected
