import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import community_records, hub_records, random_signed_records
from sigaug.balance import balance_report
from sigaug.cli import main
from sigaug.graph import _rows, build_graph, load_edge_list


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


@pytest.mark.parametrize("split", [[], ["--split-ratio", "0.8"]], ids=["whole", "split"])
def test_stats_evaluates_the_balance_kernel_once(dataset_file_path, kernel_calls, split, capsys):
    # with a split, one pass totals both the graph's and the split's triangles
    assert main(["stats", "--dataset", str(dataset_file_path), "--json", *split]) == 0
    capsys.readouterr()
    assert len(kernel_calls) == 1


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


@pytest.mark.parametrize("target", ["a-directory", "missing/edges.csv"])
def test_balance_report_that_cannot_write_its_csv_exits_2_printing_nothing(
    dataset_file_path, tmp_path, capsys, target
):
    (tmp_path / "a-directory").mkdir()
    args = ["balance-report", "--dataset", str(dataset_file_path),
            "--per-edge-csv", str(tmp_path / target)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def _sign_tsv(records) -> str:
    return "".join(f"{e.u}\t{e.v}\t{e.sign}\n" for e in records)


@st.composite
def signed_graph_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = random_signed_records(
        rng, draw(st.integers(2, 16)), draw(st.sampled_from([0.15, 0.4, 0.8])),
        draw(st.sampled_from([0.2, 0.5, 0.8])),
    )
    return _sign_tsv(records) or "0\t1\t1\n"


@given(text=signed_graph_files())
@settings(max_examples=60, deadline=None)
@example(text="0\t1\t1\n1\t2\t1\n2\t3\t1\n1\t4\t1\n")  # no triangle: one tail
@example(text=_sign_tsv(hub_records(np.random.default_rng(4), 40, 25, 150)))  # many tails
@example(text="1\t2\t1\n2\t1\t-1\n")  # the only pair conflicts: the header alone
@example(text="1\t2\t1\n2\t1\t-1\n3\t4\t1\n")  # ids 0 and 1 lose their only edge
def test_per_edge_csv_equals_formatting_every_field(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("per-edge")
    data, per_edge = tmp / "edges.tsv", tmp / "edges.csv"
    data.write_text(text)
    args = ["--quiet", "balance-report", "--dataset", str(data), "--per-edge-csv", str(per_edge)]
    assert main(args) == 0
    loaded = load_edge_list(data, format="sign-tsv")
    report = balance_report(build_graph(loaded.samples, num_nodes=loaded.num_nodes)[0])
    columns = (report.u, report.v, report.sign, report.balanced, report.unbalanced,
               report.difficulty)
    expected = "u,v,sign,b,ub,difficulty\r\n" + _rows("%d,%d,%d,%d,%d,%.6f\r\n", columns)
    assert per_edge.read_bytes() == expected.encode()


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


@pytest.mark.parametrize("command", [["augment"], ["run", "--pipeline", "sa-only"]])
def test_augment_and_sa_only_run_share_one_split_and_scorer_path(
    dataset_file_path, tmp_path, monkeypatch, command, capsys
):
    # both commands make a seed's split and scorer by the same evalbench
    # functions, once each, and augment with that scorer
    from sigaug import evalbench

    calls = []
    for name in ("_seed_split", "_seed_scorer"):
        func = getattr(evalbench, name)
        monkeypatch.setattr(evalbench, name,
                            lambda *a, _n=name, _f=func, **k: calls.append(_n) or _f(*a, **k))
    assert main(["--quiet", *command, "--dataset", str(dataset_file_path), "--seed", "2",
                 "--outdir", str(tmp_path / "out"), *FAST]) == 0
    capsys.readouterr()
    assert calls == ["_seed_split", "_seed_scorer"]


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
        ({"pacing": {"big_t": 2}, "encoder": {"epochs": 20}}, 2, 20),
    ],
)
def test_default_pacing_saturates_halfway(data, big_t, total_epochs):
    from sigaug.config import config_from_dict

    pacing = config_from_dict(data).pacing
    assert (pacing.big_t, pacing.total_epochs) == (big_t, total_epochs)
    assert pacing.lambda0 == data.get("pacing", {}).get("lambda0", 0.25)


def test_full_toml_resolves_like_its_json_twin(tmp_path):
    from sigaug.config import config_from_dict, read_config_file

    toml_path = tmp_path / "run.toml"
    toml_path.write_text(r"""
encoder.epochs = 5  # a dotted key

[dataset]
path = "C:\\data\\a.csv"
format = "rating-csv"

[split]
seeds = [
    0,
    2,  # a comment inside a multi-line array
]

[run]
output_dir = "out # not a comment"
""")
    json_path = tmp_path / "run.json"
    json_path.write_text(json.dumps({
        "encoder": {"epochs": 5},
        "dataset": {"path": "C:\\data\\a.csv", "format": "rating-csv"},
        "split": {"seeds": [0, 2]},
        "run": {"output_dir": "out # not a comment"},
    }))
    cfg = config_from_dict(read_config_file(toml_path))
    assert cfg == config_from_dict(read_config_file(json_path))
    assert (cfg.dataset, cfg.output_dir) == ("C:\\data\\a.csv", "out # not a comment")
    assert (cfg.seeds, cfg.encoder.epochs) == ([0, 2], 5)


def test_the_readme_config_example_builds(tmp_path):
    from sigaug.config import config_from_dict, read_config_file

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```toml\n(.*?)```", readme, flags=re.DOTALL)
    path = tmp_path / "readme.toml"
    path.write_text(block)
    cfg = config_from_dict(read_config_file(path))
    assert (cfg.dataset, cfg.pipeline, cfg.encoder.epochs) == ("bitcoin-alpha", "sga", 300)


def test_the_settable_surface():
    # every config key and flag a user can set; adding or removing one edits this list
    import argparse

    from sigaug.cli import build_parser
    from sigaug.config import _TABLES

    assert {table: set(keys) for table, keys in _TABLES.items()} == {
        "dataset": {"path", "format"},
        "split": {"ratio", "seeds"},
        "run": {"pipeline", "output_dir", "diagnostic", "save_encoders"},
        "encoder": {"embed_dim", "layers", "learning_rate", "epochs", "input_features"},
        "augment": {"eps_add_pos", "eps_add_neg", "eps_del_pos", "eps_del_neg"},
        "pacing": {"lambda0", "big_t"},
    }
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for sub in commands.choices.values() for action in sub._actions
             if not isinstance(action, argparse._HelpAction) for flag in action.option_strings}
    assert flags == {
        "--dataset", "--format", "--config", "--pipeline", "--seeds", "--seed", "--ratio",
        "--outdir", "--diagnostic", "--save-encoders", "--embed-dim", "--layers",
        "--learning-rate", "--epochs", "--input-features", "--eps-add-pos", "--eps-add-neg",
        "--eps-del-pos", "--eps-del-neg", "--lambda0", "--big-t",
        "--json", "--split-ratio", "--split-seed", "--per-edge-csv", "--param", "--values",
        # the top-level --quiet, which every subcommand also takes after its name
        "--quiet",
    }
    assert (sum(map(len, _TABLES.values())), len(flags)) == (19, 28)


@pytest.mark.parametrize("command", [
    ["stats", "--dataset", "g.tsv"],
    ["balance-report", "--dataset", "g.tsv"],
    ["augment", "--dataset", "g.tsv"],
    ["run"],
    ["sweep", "--param", "big_t", "--values", "2"],
], ids=lambda command: command[0])
def test_quiet_goes_before_or_after_the_subcommand(command):
    from sigaug.cli import build_parser

    parse = build_parser().parse_args
    assert parse(command).quiet is False
    assert parse(["--quiet", *command]).quiet is True
    assert parse([*command, "--quiet"]).quiet is True


def test_stats_takes_quiet_after_the_subcommand(dataset_file_path, capsys):
    # the form acceptance criterion 1 calls
    assert main(["stats", "--dataset", str(dataset_file_path), "--json", "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["unique_edges"] > 0


def _typed_keys():
    """(table, key, misread value): true for a number key, "false" for a flag key, 5 for text."""
    from dataclasses import fields

    from sigaug.config import _TABLES, SECTIONS, RunConfig

    misread = {"int": True, "float": True, "bool": "false", "str": 5, "str | None": 5}
    cases = []
    for table, keys in _TABLES.items():
        types = {f.name: f.type for f in fields(SECTIONS.get(table, RunConfig))}
        cases += [(table, key, misread[types[name]]) for key, name in keys.items()
                  if types[name] in misread]
    return cases


@pytest.mark.parametrize("table, key, value", _typed_keys(),
                         ids=lambda case: case if isinstance(case, str) else None)
def test_a_config_value_of_the_wrong_type_exits_2(dataset_file_path, tmp_path, capsys,
                                                  monkeypatch, table, key, value):
    # read as 1, 0 or true, these would run a setting nobody wrote
    data = {"encoder": {"embed_dim": 6, "epochs": 15}}
    data.setdefault(table, {})[key] = value
    config = tmp_path / "run.json"
    config.write_text(json.dumps(data))
    outdir = tmp_path / "out"
    # a flag overrides the file, so the key under test goes without its flag
    flags = {("dataset", "path"): ["--dataset", str(dataset_file_path)],
             ("run", "output_dir"): ["--outdir", str(outdir)]}
    flags.pop((table, key), None)
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--config", str(config), "--seeds", "1", *sum(flags.values(), [])])
    assert rc == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command", [
    ["augment", "--seed", "-1", *FAST],
    ["stats", "--split-ratio", "0.5", "--split-seed", "-1"],
])
def test_a_negative_seed_outside_run_exits_2(dataset_file_path, tmp_path, capsys, command):
    outdir = tmp_path / "out"
    extra = ["--outdir", str(outdir)] if command[0] == "augment" else []
    rc = main([command[0], "--dataset", str(dataset_file_path), *command[1:], *extra])
    assert rc == 2
    assert re.search(r"seeds? must be >= 0, got -1", capsys.readouterr().err)
    assert not outdir.exists()


def _write_config(path, text: str):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("seeds_flag, split_table", [
    (["--seeds", "0"], ""),
    (["--seeds", "-3"], ""),
    ([], "[split]\nseeds = 0\n"),
    ([], "[split]\nseeds = []\n"),
])
def test_run_without_seeds_exits_2(dataset_file_path, tmp_path, capsys, seeds_flag, split_table):
    config = _write_config(tmp_path / "run.toml", split_table)
    outdir = tmp_path / "out"
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--outdir", str(outdir), *seeds_flag, *FAST])
    assert rc == 2
    assert "no seeds" in capsys.readouterr().err
    assert not (outdir / "report.csv").exists()


@pytest.mark.parametrize("seeds, named", [
    ("[-1]", "-1"),
    ("[3, -2]", "-2"),
    ("[1.5]", "1.5"),
    ("[1.5, 2.9]", "1.5"),
    ("[true, 2]", "True"),
    ("2.0", "2.0"),
    ("true", "True"),
])
def test_run_with_an_unusable_seed_exits_2(dataset_file_path, tmp_path, capsys, seeds, named):
    config = _write_config(tmp_path / "run.toml", f"[split]\nseeds = {seeds}\n")
    outdir = tmp_path / "out"
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--outdir", str(outdir), *FAST])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not outdir.exists()


def test_run_experiment_rejects_an_empty_seed_list():
    from sigaug.evalbench import run_experiment

    edges = community_records(n=12, seed=1)
    with pytest.raises(ValueError, match="no seeds"):
        run_experiment(edges, "baseline", [])


@pytest.mark.parametrize("data, named", [
    ({"run": {"pipline": "sga"}}, "pipline"),
    ({"split": {"ratoi": 0.5}}, "ratoi"),
    ({"pacng": {"lambda0": 0.5}}, "[pacng]"),
    ({"encoder": {"epoch": 5}}, "epoch"),
    ({"dataset": {"name": "bitcoin-alpha"}}, "name"),
])
def test_config_typos_are_errors(data, named):
    from sigaug.config import config_from_dict

    with pytest.raises(ValueError, match=re.escape(named)):
        config_from_dict(data)


def test_config_file_typo_exits_2(dataset_file_path, tmp_path, capsys):
    config = _write_config(tmp_path / "run.toml", '[run]\npipline = "sga"\n')
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--outdir", str(tmp_path / "out"), *FAST])
    assert rc == 2
    assert "pipline" in capsys.readouterr().err


def test_file_pacing_follows_the_epochs_flag(dataset_file_path, tmp_path, capsys):
    config = _write_config(tmp_path / "run.toml", "[pacing]\nlambda0 = 0.5\n")
    outdir = tmp_path / "out"
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path), "--pipeline",
               "tp-only", "--seeds", "1", "--outdir", str(outdir), "--epochs", "4"])
    assert rc == 0
    capsys.readouterr()
    pacing = json.loads((outdir / "config.resolved.json").read_text())["pacing"]
    assert pacing == {"lambda0": 0.5, "big_t": 2}


def test_pacing_total_epochs_must_match_encoder_epochs(dataset_file_path, tmp_path, capsys):
    # it always equals the encoder's epochs, so a file may not set it at all
    from sigaug.config import config_from_dict

    message = "unknown key(s) total_epochs in config table [pacing]"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict({"pacing": {"total_epochs": 20}, "encoder": {"epochs": 20}})
    config = _write_config(
        tmp_path / "run.toml", "[encoder]\nepochs = 6\n[pacing]\ntotal_epochs = 3\n"
    )
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--seeds", "1", "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


def _sweep(dataset_file_path, tmp_path, *extra):
    return main(["sweep", "--dataset", str(dataset_file_path), "--seeds", "1",
                 "--outdir", str(tmp_path / "sweep"), *FAST, *extra])


def test_sweep_keeps_a_named_pipeline(dataset_file_path, tmp_path, capsys):
    config = _write_config(tmp_path / "run.toml", '[run]\npipeline = "tp-only"\n')
    assert _sweep(dataset_file_path, tmp_path, "--config", config,
                  "--param", "lambda0", "--values", "0.5") == 0
    resolved = json.loads((tmp_path / "sweep" / "config.resolved.json").read_text())
    assert resolved["run"]["pipeline"] == "tp-only"
    # a named baseline stays baseline, so a sweep of its unused lambda0 is refused
    assert _sweep(dataset_file_path, tmp_path, "--pipeline", "baseline",
                  "--param", "lambda0", "--values", "0.5") == 2
    assert "'baseline' ignores lambda0" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline, param", [
    ("baseline", "eps_add_pos"),
    ("random:drop-edge,0.1", "big_t"),
    ("tp-only", "eps_del_neg"),
    ("sa-only", "big_t"),
    ("sa-only", "lambda0"),
])
def test_sweep_of_a_parameter_the_pipeline_ignores_exits_2(
    dataset_file_path, tmp_path, capsys, pipeline, param
):
    assert _sweep(dataset_file_path, tmp_path, "--pipeline", pipeline,
                  "--param", param, "--values", "0.5") == 2
    assert f"ignores {param}" in capsys.readouterr().err


def test_sweep_of_a_fractional_big_t_exits_2(dataset_file_path, tmp_path, capsys):
    assert _sweep(dataset_file_path, tmp_path, "--param", "big_t", "--values", "2,1.7") == 2
    assert "whole numbers" in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


@pytest.mark.parametrize("command", [
    ["run", "--pipeline", "bogus"],
    ["run", "--seeds", "0"],
    ["sweep", "--param", "embed_dim", "--values", "4,8"],
    ["sweep", "--pipeline", "baseline", "--param", "lambda0", "--values", "0.5"],
    ["sweep", "--param", "big_t", "--values", "2,40"],  # 40 > --epochs 15
    ["sweep", "--param", "eps_add_pos", "--values", "0.95,1.5"],
    ["run", "--ratio", "1.5"],
    ["sweep", "--param", "lambda0", "--values", "0.5", "--ratio", "1.5"],
    ["run", "--pipeline", "random:drop-edge,1.5"],
    ["run", "--pipeline", "random:flip-sign,nan"],
    ["run", "--seeds", "3,3,5"],
    ["sweep", "--seeds", "3,3", "--param", "lambda0", "--values", "0.5"],
    ["run", "--learning-rate", "nan"],
    ["run", "--learning-rate", "inf"],
])
def test_a_run_that_cannot_start_writes_no_files(dataset_file_path, tmp_path, capsys, command):
    outdir = tmp_path / "out"
    rc = main([*command, "--dataset", str(dataset_file_path), "--outdir", str(outdir), *FAST])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not outdir.exists()


def test_a_ratio_that_leaves_no_test_edge_exits_2(tmp_path, capsys):
    path = tmp_path / "ten.tsv"
    path.write_text("".join(f"{i}\t{i + 1}\t1\n" for i in range(10)))
    outdir = tmp_path / "out"
    rc = main(["run", "--dataset", str(path), "--format", "sign-tsv", "--ratio", "0.95",
               "--seeds", "1", "--outdir", str(outdir), *FAST])
    assert rc == 2
    assert "leaves no test edge out of 10" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("flag", [
    ["--optimizer", "adam"],
    ["--candidate-scope", "two-hop"],
    ["--input-features", "adjacency-rows"],
    ["--max-additions", "5"],
])
def test_a_removed_option_flag_exits_2(dataset_file_path, tmp_path, capsys, flag):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--dataset", str(dataset_file_path), "--outdir", str(outdir), *flag])
    assert exit_.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("text, message", [
    ('[encoder]\noptimizer = "adam"\n', "unknown key(s) optimizer in config table [encoder]"),
    ('[augment]\ncandidate_scope = "two-hop"\n',
     "unknown key(s) candidate_scope in config table [augment]"),
    ('[encoder]\ninput_features = "adjacency-rows"\n', "unknown input_features 'adjacency-rows'"),
    ("[augment]\nmax_additions = 5\n", "unknown key(s) max_additions in config table [augment]"),
])
def test_a_config_with_a_removed_option_exits_2(dataset_file_path, tmp_path, capsys, text,
                                                 message):
    # resolved configs written before these options were removed still name them
    config = _write_config(tmp_path / "run.toml", text)
    outdir = tmp_path / "out"
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--seeds", "1", "--outdir", str(outdir), *FAST])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("text, message", [
    ("[encoder]\nembed_dim = 6\nepochs = 2.5\n", "epochs must be a whole number"),
    ("[encoder]\nembed_dim = 4.5\nepochs = 15\n", "embed_dim must be a whole number"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\nlayers = true\n", "layers must be a whole number"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\nlearning_rate = nan\n", "learning_rate must be"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\n[pacing]\nbig_t = 2.5\n",
     "big_t must be a whole number"),
    # a bool or a number where the other belongs would be misread, not refused
    ('[encoder]\nembed_dim = 6\nepochs = 15\n[run]\ndiagnostic = "false"\n',
     "diagnostic must be true or false, got 'false'"),
    ('[encoder]\nembed_dim = 6\nepochs = 15\n[run]\nsave_encoders = "no"\n',
     "save_encoders must be true or false, got 'no'"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\nlearning_rate = true\n",
     "learning_rate must be a number, got True"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\n[augment]\neps_add_pos = true\n",
     "eps_add_pos must be a number, got True"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\n[augment]\neps_del_pos = false\n",
     "eps_del_pos must be a number, got False"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\n[pacing]\nlambda0 = true\n",
     "lambda0 must be a number, got True"),
    ("[encoder]\nembed_dim = 6\nepochs = 15\n[run]\npipeline = 5\n",
     "pipeline must be a string, got 5"),
])
def test_a_config_with_a_fractional_count_writes_no_files(
    dataset_file_path, tmp_path, capsys, text, message
):
    config = _write_config(tmp_path / "run.toml", text)
    outdir = tmp_path / "out"
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--seeds", "1", "--outdir", str(outdir)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_a_config_with_an_encoder_seed_writes_no_files(dataset_file_path, tmp_path, capsys):
    # run_experiment derives every encoder seed from the run seed, so a file may not set
    # one, not even 0, the one value it could hold
    config = _write_config(tmp_path / "run.toml", "[encoder]\nseed = 0\n")
    outdir = tmp_path / "out"
    rc = main(["run", "--config", config, "--dataset", str(dataset_file_path),
               "--seeds", "1", "--outdir", str(outdir), *FAST])
    assert rc == 2
    assert "unknown key(s) seed in config table [encoder]" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "lambda0", "--values", "0.5"]])
def test_a_dataset_that_fails_to_parse_writes_no_files(tmp_path, capsys, command):
    data = tmp_path / "ratings.csv"
    data.write_text("1,2,5\n2,3,abc\n3,4,-2\n")
    outdir = tmp_path / "out"
    rc = main([*command, "--dataset", str(data), "--format", "rating-csv",
               "--outdir", str(outdir), *FAST])
    assert rc == 2
    assert "line 2: non-numeric rating/sign 'abc'" in capsys.readouterr().err
    assert not outdir.exists()


def test_a_sweep_parses_its_dataset_once(dataset_file_path, tmp_path, monkeypatch):
    from sigaug import graph

    calls = []
    parse = graph._regular_prefix
    monkeypatch.setattr(graph, "_regular_prefix", lambda *args: calls.append(1) or parse(*args))
    assert _sweep(dataset_file_path, tmp_path, "--pipeline", "tp-only",
                  "--param", "lambda0", "--values", "0.25,0.5,1.0") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["run", "--pipeline", "random:drop-edge,0.1", "--seeds", "0,1"],
    ["sweep", "--param", "big_t", "--values", "1,2", "--seeds", "0,1"],
])
def test_a_run_or_sweep_parses_its_pipeline_and_plans_once(
    dataset_file_path, tmp_path, monkeypatch, command
):
    from sigaug import evalbench

    calls = []
    for name in ("_parse_pipeline", "plan_experiment"):
        func = getattr(evalbench, name)
        monkeypatch.setattr(evalbench, name,
                            lambda *a, _n=name, _f=func, **k: calls.append(_n) or _f(*a, **k))
    assert main(["--quiet", *command, "--dataset", str(dataset_file_path),
                 "--outdir", str(tmp_path / "out"), *FAST]) == 0
    assert sorted(calls) == ["_parse_pipeline", "plan_experiment"]


@pytest.mark.parametrize("command", [
    ["run", "--pipeline", "sga", "--seeds", "1", "--eps-add-pos", "0.4"],
    ["sweep", "--seeds", "1", "--param", "eps_add_pos", "--values", "0.4"],
    ["augment", "--eps-add-pos", "0.4"],
])
def test_a_low_add_threshold_is_logged_once(dataset_file_path, tmp_path, caplog, command):
    with caplog.at_level("WARNING", logger="sigaug.augment"):
        assert main([*command, "--dataset", str(dataset_file_path),
                     "--outdir", str(tmp_path / "out"), *FAST]) == 0
    low = [r.getMessage() for r in caplog.records if "<= 0.5" in r.getMessage()]
    assert low == ["eps_add_pos=0.400 is <= 0.5; expect many addition candidates"]


@pytest.mark.parametrize("command", [
    ["--param", "eps_add_pos", "--values", "0.4,0.45"],
    ["--eps-add-pos", "0.4", "--param", "lambda0", "--values", "0.5,1.0"],
])
def test_a_sweep_logs_a_low_add_threshold_once_per_value(
    dataset_file_path, tmp_path, caplog, command
):
    with caplog.at_level("WARNING", logger="sigaug.augment"):
        assert _sweep(dataset_file_path, tmp_path, *command) == 0
    low = [r.getMessage() for r in caplog.records if "<= 0.5" in r.getMessage()]
    assert len(low) == 2


def test_run_records_the_thread_variables_and_sets_none(dataset_file_path, tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("SIGAUG_THREADS", "2")  # not read by sigaug
    outdir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_file_path), "--pipeline", "baseline",
                 "--seeds", "1", "--outdir", str(outdir), *FAST]) == 0
    env = json.loads((outdir / "config.resolved.json").read_text())["environment"]
    assert {var: env[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")} == {
        "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
    }
    assert "sigaug_threads" not in env
    assert "OMP_NUM_THREADS" not in os.environ and "MKL_NUM_THREADS" not in os.environ
