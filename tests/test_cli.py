import json

import pytest

from conftest import community_records
from sigaug.cli import main


@pytest.fixture(scope="module")
def dataset_file_path(tmp_path_factory):
    edges = community_records(n=24, seed=12, p_intra=0.4, p_inter=0.25, flip=0.08)
    path = tmp_path_factory.mktemp("data") / "toy.tsv"
    with path.open("w") as fh:
        for e in edges:
            fh.write(f"{e.u}\t{e.v}\t{e.sign}\n")
    return path


FAST = ["--embed-dim", "6", "--epochs", "15"]


def test_stats_text_and_json(dataset_file_path, capsys):
    assert main(["stats", "--dataset", str(dataset_file_path)]) == 0
    text = capsys.readouterr().out
    assert "nodes" in text and "balance_degree" in text

    assert main(["stats", "--dataset", str(dataset_file_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 24
    assert payload["links"] == payload["positive_links"] + payload["negative_links"]
    assert 0 < payload["density"] < 1
    assert payload["balanced_triangles"] >= 0


def test_stats_split_section(dataset_file_path, capsys):
    rc = main(
        ["stats", "--dataset", str(dataset_file_path), "--json", "--split-ratio", "0.8"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["train_split_ratio"] == 0.8
    assert payload["train_split_edges"] < payload["unique_edges"]


def test_stats_missing_dataset_exits_2(capsys):
    assert main(["stats", "--dataset", "no-such-file.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_stats_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["stats", "--dataset", str(empty), "--format", "rating-csv"]) == 2


@pytest.mark.parametrize("value", ["inf", "1e400"])
def test_stats_non_finite_rating_exits_2(tmp_path, capsys, value):
    data = tmp_path / "ratings.csv"
    data.write_text(f"1,2,5\n2,3,{value}\n")
    assert main(["stats", "--dataset", str(data), "--format", "rating-csv"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_balance_report(dataset_file_path, capsys, tmp_path):
    per_edge = tmp_path / "edges.csv"
    rc = main(
        [
            "balance-report",
            "--dataset",
            str(dataset_file_path),
            "--per-edge-csv",
            str(per_edge),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"bt", "ut", "bd"}
    lines = per_edge.read_text().strip().splitlines()
    assert lines[0] == "u,v,sign,b,ub,difficulty"
    assert len(lines) > 1


def test_augment_command(dataset_file_path, tmp_path, capsys):
    outdir = tmp_path / "aug"
    rc = main(
        [
            "augment",
            "--dataset",
            str(dataset_file_path),
            "--outdir",
            str(outdir),
            "--eps-del-pos",
            "0.15",
            "--eps-del-neg",
            "0.15",
            *FAST,
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"added_pos", "deleted_pos", "bd_before", "bd_after"} <= set(payload)
    assert (outdir / "augmented_train.tsv").exists()
    assert (outdir / "augment_log.json").exists()
    assert (outdir / "id_map.json").exists()
    # the written file is reloadable as sign-tsv
    rc = main(["stats", "--dataset", str(outdir / "augmented_train.tsv")])
    assert rc == 0


@pytest.mark.parametrize("command", [
    ["run"],
    ["augment"],
    ["sweep", "--param", "lambda0", "--values", "0.5"],
])
def test_input_features_flag_accepts_every_encoder_choice(command):
    from sigaug.cli import build_parser
    from sigaug.encoder import INPUT_FEATURES

    parser = build_parser()
    for choice in INPUT_FEATURES:
        args = parser.parse_args([*command, "--dataset", "x", "--input-features", choice])
        assert args.input_features == choice


def test_augment_applies_encoder_flags(dataset_file_path, tmp_path, capsys):
    outdir = tmp_path / "aug"
    rc = main(["augment", "--dataset", str(dataset_file_path), "--outdir", str(outdir),
               "--embed-dim", "6", "--epochs", "7", "--input-features", "spectral"])
    assert rc == 0
    capsys.readouterr()
    log = json.loads((outdir / "augment_log.json").read_text())
    assert len(log["pretrain_loss"]) == 7


def test_run_baseline_writes_outputs(dataset_file_path, tmp_path, capsys):
    outdir = tmp_path / "run"
    rc = main(
        [
            "run",
            "--dataset",
            str(dataset_file_path),
            "--pipeline",
            "baseline",
            "--seeds",
            "2",
            "--outdir",
            str(outdir),
            *FAST,
        ]
    )
    assert rc == 0
    summary = capsys.readouterr().out
    assert "AUC" in summary and "baseline" in summary
    report = json.loads((outdir / "report.json").read_text())
    assert len(report["per_seed"]) == 2
    assert "timing" in report
    csv_lines = (outdir / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
    assert (outdir / "config.resolved.json").exists()
    assert (outdir / "schedule_seed0.csv").exists()
    assert not (outdir / "augmented_train_seed0.tsv").exists()


def test_run_reproducible_from_resolved_config(dataset_file_path, tmp_path, capsys):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    args = [
        "run",
        "--dataset",
        str(dataset_file_path),
        "--pipeline",
        "sga",
        "--seeds",
        "1",
        "--eps-del-pos",
        "0.15",
        "--eps-del-neg",
        "0.15",
        *FAST,
    ]
    assert main(args + ["--outdir", str(out1)]) == 0
    rc = main(
        [
            "run",
            "--config",
            str(out1 / "config.resolved.json"),
            "--outdir",
            str(out2),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    first = json.loads((out1 / "report.json").read_text())
    second = json.loads((out2 / "report.json").read_text())
    first.pop("timing")
    second.pop("timing")
    assert first == second
    assert (out1 / "augmented_train_seed0.tsv").read_text() == (
        out2 / "augmented_train_seed0.tsv"
    ).read_text()
    assert (out1 / "schedule_seed0.csv").read_text() == (
        out2 / "schedule_seed0.csv"
    ).read_text()


def test_run_random_pipeline_and_diagnostic(dataset_file_path, tmp_path, capsys):
    outdir = tmp_path / "rnd"
    rc = main(
        [
            "run",
            "--dataset",
            str(dataset_file_path),
            "--pipeline",
            "random:drop-edge,0.1",
            "--seeds",
            "1",
            "--outdir",
            str(outdir),
            "--diagnostic",
            *FAST,
        ]
    )
    assert rc == 0
    capsys.readouterr()
    report = json.loads((outdir / "report.json").read_text())
    seed_row = report["per_seed"][0]
    assert seed_row["n_train_final"] < seed_row["n_train"]
    assert seed_row["diagnostic"]["bound_value"] > 0
    assert (outdir / "augmented_train_seed0.tsv").exists()


def test_run_save_encoders(dataset_file_path, tmp_path, capsys):
    outdir = tmp_path / "enc"
    rc = main(
        [
            "run",
            "--dataset",
            str(dataset_file_path),
            "--pipeline",
            "baseline",
            "--seeds",
            "1",
            "--outdir",
            str(outdir),
            "--save-encoders",
            *FAST,
        ]
    )
    assert rc == 0
    capsys.readouterr()
    from sigaug.encoder import load_checkpoint

    state = load_checkpoint(outdir / "encoder_seed0.bin")
    assert state.epochs_trained == 15


def test_sweep_writes_outputs(dataset_file_path, tmp_path, capsys):
    outdir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--dataset",
            str(dataset_file_path),
            "--pipeline",
            "tp-only",
            "--seeds",
            "1",
            "--outdir",
            str(outdir),
            "--param",
            "lambda0",
            "--values",
            "0.25,0.5,1.0",
            *FAST,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("lambda0=") == 3
    lines = (outdir / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("param,value,auc_mean")
    dat = (outdir / "sweep_auc.dat").read_text().strip().splitlines()
    assert len(dat) == 3


def test_run_divergence_exits_1(dataset_file_path, tmp_path, capsys):
    rc = main(
        [
            "run",
            "--dataset",
            str(dataset_file_path),
            "--pipeline",
            "baseline",
            "--seeds",
            "1",
            "--outdir",
            str(tmp_path / "boom"),
            "--optimizer",
            "sgd",
            "--learning-rate",
            "1e150",
            *FAST,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "train" in err  # failing stage is named


def test_sweep_unknown_param_exits_2(dataset_file_path, capsys, tmp_path):
    rc = main(
        [
            "sweep",
            "--dataset",
            str(dataset_file_path),
            "--param",
            "embed_dim",
            "--values",
            "4,8",
            "--outdir",
            str(tmp_path / "x"),
            *FAST,
        ]
    )
    assert rc == 2


def test_config_file_toml(dataset_file_path, tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text(
        f"""
[dataset]
path = "{dataset_file_path}"
format = "sign-tsv"

[split]
ratio = 0.8
seeds = [0]

[encoder]
embed_dim = 6
epochs = 12

[run]
pipeline = "baseline"
output_dir = "{tmp_path / 'from_toml'}"
"""
    )
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "from_toml" / "report.json").read_text())
    assert report["pipeline"] == "baseline"
    assert report["seeds"] == [0]


@pytest.mark.parametrize(
    "data, big_t, total_epochs",
    [
        ({}, 150, 300),
        ({"encoder": {"epochs": 9}}, 4, 9),
        ({"encoder": {"epochs": 1}}, 1, 1),
        ({"pacing": {"lambda0": 0.5}, "encoder": {"epochs": 9}}, 4, 9),
        ({"pacing": {"total_epochs": 7}, "encoder": {"epochs": 20}}, 3, 7),
        ({"pacing": {"big_t": 2}, "encoder": {"epochs": 20}}, 2, 20),
    ],
)
def test_default_pacing_saturates_halfway(data, big_t, total_epochs):
    from sigaug.config import config_from_dict

    pacing = config_from_dict(data).resolved_pacing()
    assert (pacing.big_t, pacing.total_epochs) == (big_t, total_epochs)
    assert pacing.lambda0 == data.get("pacing", {}).get("lambda0", 0.25)


def test_fallback_toml_reader_matches_library():
    # pytest pulls in tomli on 3.10, so the fallback needs a direct check
    from sigaug.config import _fallback_toml, _toml

    if _toml is None:
        pytest.skip("no TOML library to compare against")
    text = """
# comment line
[split]
ratio = 0.75   # trailing comment
seeds = [0, 2, 4]

[encoder]
embed_dim = 6
learning_rate = 0.005
input_features = "spectral"

[run]
diagnostic = true
save_encoders = false
"""
    assert _fallback_toml(text, "run.toml") == _toml.loads(text)
