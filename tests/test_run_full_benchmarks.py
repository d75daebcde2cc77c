import importlib.util
import json
import shutil
import sys

import pytest

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


def _alpha_data(tmp_path, monkeypatch) -> None:
    data = tmp_path / "data"
    data.mkdir()
    records = community_records(n=40, seed=21, p_intra=0.3, p_inter=0.15, flip=0.08)
    (data / "soc-sign-bitcoinalpha.csv").write_text(
        "".join(f"{e.u},{e.v},{e.sign}\n" for e in records))
    monkeypatch.setenv("SIGAUG_DATA_DIR", str(data))


def test_driver_parses_each_pipeline_once(tmp_path, monkeypatch, capsys):
    from sigaug import evalbench

    _alpha_data(tmp_path, monkeypatch)
    parsed = []
    parse = evalbench._parse_pipeline
    monkeypatch.setattr(evalbench, "_parse_pipeline", lambda p: parsed.append(p) or parse(p))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--datasets", "bitcoin-alpha",
                                      "--pipelines", "baseline,random:drop-edge,0.1",
                                      "--seeds", "1", "--outdir", str(tmp_path / "out")])
    assert _driver().main() == 0
    capsys.readouterr()
    assert parsed == ["baseline", "random:drop-edge,0.1"]


@pytest.mark.parametrize("flags, message", [
    (["--datasets", ""], "no datasets given"),
    (["--datasets", "bitcoin-alpha,nosuch"], "unknown datasets ['nosuch']"),
    (["--pipelines", "baseline,bogus"], "unknown pipeline 'bogus'"),
    (["--seeds", "3,3"], "repeat a seed"),
], ids=["no-dataset", "unknown-dataset", "bad-pipeline", "bad-seeds"])
def test_driver_refuses_a_list_it_cannot_run_before_loading(tmp_path, monkeypatch, capsys,
                                                             flags, message):
    _alpha_data(tmp_path, monkeypatch)
    driver = _driver()
    loads = []
    monkeypatch.setattr(driver, "load_edge_list", lambda *a, **k: loads.append(a))
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *flags, "--outdir", str(out)])
    with pytest.raises(SystemExit) as exit_:
        driver.main()
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert loads == []
