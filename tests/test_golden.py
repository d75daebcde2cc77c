"""Golden outputs of a short run, pinned as SHA-256 digests.

The digests lock the report payload, the curriculum schedule CSVs, the
final training edges of every pipeline, the ``augment`` command's files and
the per-edge balance CSV bit for bit on one fixed seeded graph, the files
of a ``run`` driven by a config file plus flags and of a ``sweep`` on that
graph, the ``stats`` and ``balance-report`` CLI outputs and the ``augment``
``id_map.json`` on a messy rating file built from the same graph, and the
``stats`` (without a split, and with two splits), ``balance-report`` and
per-edge CSV outputs on a sign-tsv file with a hub and thousands of
triangles.  A mid-scale graph
(1,000 nodes, 4,000 edges, planted bad actors) pins ``baseline`` and
``sga`` runs whose scans, kernels and encoder batches span many blocks, at
the default work budgets and at small ones.  On the first graph,
``augment --seed k`` must also write the augmented edges of
``run --pipeline sa-only --seed k``.  A refactor must leave them
unchanged; a change that moves them on purpose says why in CHANGES.md and
pins the new digests here.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from unittest import mock

import numpy as np
import pytest

from conftest import bad_actor_records, community_records, hub_records
from sigaug import balance, encoder
from sigaug.augment import AugmentConfig
from sigaug.cli import main
from sigaug.curriculum import schedule_to_csv
from sigaug.encoder import EncoderConfig
from sigaug.evalbench import PERTURBATION_KINDS, report_payload, run_experiment

EDGES = community_records(n=40, seed=21, p_intra=0.3, p_inter=0.15, flip=0.08)
ENCODER = EncoderConfig(embed_dim=8, epochs=20)
AUGMENT = AugmentConfig(eps_add_pos=0.6, eps_add_neg=0.6, eps_del_pos=0.2, eps_del_neg=0.2)

GOLDEN = {
    "baseline/report": "67c9ebebafdcf16f501f6dbbe6cfdb42632d0b1348ffb421800424730f4e7436",
    "baseline/schedule": "505c8ca62d690266dd47e973d2426027714de2a87c054cb758370f48a0cce306",
    "sga/report": "869f831638cdb5259c8cf62908731e61bb6739472cd11c425b871e244e114d94",
    "sga/schedule": "a0f2e7f30bbca7661faecb80210c1468ef16f3304264e2f263195ba74944da00",
    "per-edge-csv": "6164c54d9ab386c3baf67255b698340358bfc10b806c8c4180d0ead347068506",
    "messy/stats": "daabedd4db7cb191940431fd5555644355ba26dcc2ab995495fe090e80ec020e",
    "messy/balance-report": "079f988efbbb9308b9da980ae9864d13940b7a9126f66be1e11e15ff0f4c2b0c",
    "sa-only/report": "0aea5ebebafa66d72832b3b3877b3db91116ecac55924bdad106bf5561eb8be0",
    "sa-only/final-train": "8147407b3b3f7faa6868a25c11a33cf774cba8c70bfd59e5aa00230bef390273",
    "tp-only/report": "cf9d8aa90e970bad72fcff110881076193e329e233c732f79b64616182c2b8df",
    "tp-only/final-train": "35284fcd7b358a4ecaf6f0f2520a3a0dfd8acfdcd346781eae98fe9a1436fc3b",
    "random:drop-edge,0.1/report": "31e77944518b3ee6e970f06293feb21485add69bc075bb5614371d9c03d29198",
    "random:drop-edge,0.1/final-train": "89d693aabb5419078ccd7d42b93ec5125005643d7e0e104259741102ae43954f",
    "random:add-pos,0.1/report": "19da6e6f947a234886e2a2f9516b596de31a8ef0d3ceeadbc77538c02b46c9e3",
    "random:add-pos,0.1/final-train": "81b6dde171caeb9c28dd01d48560cd21a5162c318d2321378f9af57e48a30fae",
    "random:del-pos,0.1/report": "71e8575f7ea3807d05503f944aa8f3629b025083680fb1649bc29d9e7b229bc5",
    "random:del-pos,0.1/final-train": "199a9c71fcba0300837827991bf0cc4a362a29ff43588d9f02b92dec8fabb36e",
    "random:add-neg,0.1/report": "baf26dae56c9f465db89d9b00446136b78e18ca5d614639ddc40a686d1d5bbf3",
    "random:add-neg,0.1/final-train": "87276628fe954d94d74a8f6e40f2645b76504367b9bb27b443c9f9e139f6b142",
    "random:del-neg,0.1/report": "bc74b0c0041eef67d3c6c032cb4793ad34b3a0b57794048a23903900bd8a0f24",
    "random:del-neg,0.1/final-train": "ae6be7d3088844323b4bfcd01b4353f0fe7d21f2460e944d6e4e9c59d66195d7",
    "random:flip-sign,0.1/report": "b5615eb8b4f294788aa47a4892095b26a2b96c45e0dacd426a5c5d88350bcdd7",
    "random:flip-sign,0.1/final-train": "445d50f41faa1650c63e459f7243fcaa36d6956ce77fd2c5720af55d1567d497",
    "sga-diagnostic/report": "2755681cd4992d52710e2f0852ba6d03307c9ccdb945461ea9d1ba0627016586",
    "augment/augmented-train": "25165d0a812165a1d9afd62aa6a829e83f8ff864b21fc108c3e2793df4281ebf",
    "augment/log": "93ef4df828add7909e7eb6afc253b8e8d8e486709350c684034f9935d2ee3fa0",
    "augment/id-map": "65399802054729b553e3a8519d1ca03ba5c18f68f3a794ef59bd8822efafbc28",
    "messy/augment-id-map": "ff6db84671099efce56933f259b45e43ac6319fdeb9023f23e37ecee7512780b",
    "hub/stats": "0e3b0150619f7ba58cd0a3362e9abee01c3ce30ccc21e90ec65cef20d1705504",
    "hub/balance-report": "8b94a494f06b2f4e8269d6f0f5e402bba55d6c0d45ca82edbcc219869959ff9b",
    "hub/per-edge-csv": "2294afaf299a39e0afb0b45830dcca71b9e6dd10818384f96969f1e8f2c7e31b",
    "hub/stats-no-split": "0d2cadd8ac55a9413c91a26630408dc891d9f6c1042da5597ee4a3d8ff47c5a5",
    "hub/stats-split-0.5-seed-7": "f45b3ee84425c1b6745994cf39c87d290377c438715dffdc292b5fadde10e9cd",
}

OTHER_PIPELINES = [
    "sa-only",
    "tp-only",
    *(f"random:{kind},0.1" for kind in PERTURBATION_KINDS),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("pipeline", ["baseline", "sga"])
def test_run_report_and_schedule_are_golden(pipeline, tmp_path, caplog):
    with caplog.at_level("WARNING", logger="sigaug.augment"):
        report = run_experiment(EDGES, pipeline, [3], enc_cfg=ENCODER, aug_cfg=AUGMENT)
    # this run keeps most edges of both signs
    assert not [r for r in caplog.records if "stripped a sign" in r.getMessage()]
    payload = json.dumps(report_payload(report), sort_keys=True).encode()
    schedule_csv = tmp_path / "schedule.csv"
    schedule_to_csv(report.results[0].schedule, schedule_csv)
    assert {
        "report": _sha256(payload),
        "schedule": _sha256(schedule_csv.read_bytes()),
    } == {
        "report": GOLDEN[f"{pipeline}/report"],
        "schedule": GOLDEN[f"{pipeline}/schedule"],
    }


def _rows(edges) -> bytes:
    return "".join(f"{e.u}\t{e.v}\t{e.sign}\n" for e in edges).encode()


@pytest.mark.parametrize("pipeline", OTHER_PIPELINES)
def test_pipeline_report_and_final_train_are_golden(pipeline):
    report = run_experiment(EDGES, pipeline, [3], enc_cfg=ENCODER, aug_cfg=AUGMENT)
    payload = json.dumps(report_payload(report), sort_keys=True).encode()
    assert {
        "report": _sha256(payload),
        "final-train": _sha256(_rows(report.results[0].final_train)),
    } == {
        "report": GOLDEN[f"{pipeline}/report"],
        "final-train": GOLDEN[f"{pipeline}/final-train"],
    }


def test_sga_diagnostic_report_is_golden():
    report = run_experiment(EDGES, "sga", [3], enc_cfg=ENCODER, aug_cfg=AUGMENT, diagnostic=True)
    payload = json.dumps(report_payload(report), sort_keys=True).encode()
    assert _sha256(payload) == GOLDEN["sga-diagnostic/report"]


def test_augment_command_outputs_are_golden(tmp_path, capsys):
    data = tmp_path / "graph.tsv"
    data.write_bytes(_rows(EDGES))
    outdir = tmp_path / "out"
    assert main(["--quiet", "augment", "--dataset", str(data), "--embed-dim", "8",
                 "--epochs", "20", "--eps-add-pos", "0.6", "--eps-add-neg", "0.6",
                 "--seed", "3", "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    assert {
        "augmented-train": _sha256((outdir / "augmented_train.tsv").read_bytes()),
        "log": _sha256((outdir / "augment_log.json").read_bytes()),
        "id-map": _sha256((outdir / "id_map.json").read_bytes()),
    } == {
        "augmented-train": GOLDEN["augment/augmented-train"],
        "log": GOLDEN["augment/log"],
        "id-map": GOLDEN["augment/id-map"],
    }


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_augment_command_matches_an_sa_only_run(seed, tmp_path, capsys):
    # both commands derive the split and pre-train seeds from the one seed in the same way
    data = tmp_path / "graph.tsv"
    data.write_bytes(_rows(EDGES))
    common = ["--dataset", str(data), "--embed-dim", "8", "--epochs", "20",
              "--eps-add-pos", "0.6", "--eps-add-neg", "0.6", "--seed", str(seed)]
    assert main(["--quiet", "augment", *common, "--outdir", str(tmp_path / "augment")]) == 0
    assert main(["--quiet", "run", "--pipeline", "sa-only", *common,
                 "--outdir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    augmented = (tmp_path / "augment" / "augmented_train.tsv").read_bytes()
    assert augmented == (tmp_path / "run" / f"augmented_train_seed{seed}.tsv").read_bytes()


def test_per_edge_csv_is_golden(tmp_path, capsys):
    data = tmp_path / "graph.tsv"
    data.write_bytes(_rows(EDGES))
    per_edge = tmp_path / "edges.csv"
    assert main(["--quiet", "balance-report", "--dataset", str(data),
                 "--per-edge-csv", str(per_edge)]) == 0
    capsys.readouterr()
    assert _sha256(per_edge.read_bytes()) == GOLDEN["per-edge-csv"]


def _original_id(u: int) -> str:
    # injective on 0..96 and far from contiguous: 0 -> "user-11", 1 -> "user-48", ...
    return f"user-{(u * 37 + 11) % 97}"


def messy_rating_csv() -> str:
    """``EDGES`` as a rating log with every kind of record the loader folds away.

    It has a header row, string ids, a time column on some rows, ratings
    written as floats or with spaces, reciprocal and duplicate records,
    pairs whose ratings sum to zero, zero ratings (including ``-0.5``,
    which truncates to 0) and self loops.
    """
    lines = ["source,target,rating,time"]
    for i, e in enumerate(EDGES):
        src, dst = _original_id(e.u), _original_id(e.v)
        if i % 2:
            src, dst = dst, src
        rating = e.sign * (1 + i % 10)
        lines.append(f"{src},{dst},{rating},{1000 + i}" if i % 3 else f"{src},{dst},{rating}")
        if i % 11 == 0:
            lines.append(f"{dst},{src},{-rating}")  # sums to zero: pair dropped
        elif i % 5 == 0:
            lines.append(f"{dst},{src},{float(rating)}")  # reciprocal
        elif i % 7 == 0:
            lines.append(f"{src},{dst}, {2 * rating} ")  # duplicate
        elif i % 9 == 0:
            lines.append(f"{dst},{src},{-e.sign}")  # reciprocal with the other sign
        if i % 13 == 0:
            lines.append(f"ghost-{i},{dst},{0 if i % 2 else -0.5}")  # zero: no new id
        if i % 17 == 0:
            lines.append(f"{src},{src},5")  # self loop
    return "\n".join(lines) + "\n"


def test_messy_file_cli_outputs_are_golden(tmp_path, capsys):
    data = tmp_path / "messy.csv"
    data.write_text(messy_rating_csv())
    dataset = ["--dataset", str(data), "--format", "rating-csv"]
    assert main(["--quiet", "stats", *dataset, "--split-ratio", "0.8", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    del stats["dataset"]  # the path differs between runs
    per_edge = tmp_path / "edges.csv"
    assert main(["--quiet", "balance-report", *dataset, "--per-edge-csv", str(per_edge)]) == 0
    totals = capsys.readouterr().out
    assert {
        "stats": _sha256(json.dumps(stats, sort_keys=True).encode()),
        "balance-report": _sha256(totals.encode() + per_edge.read_bytes()),
    } == {
        "stats": GOLDEN["messy/stats"],
        "balance-report": GOLDEN["messy/balance-report"],
    }


def test_messy_file_augment_id_map_is_golden(tmp_path, capsys):
    # string ids: id_map.json holds the tokens of the file, not formatted integers
    data = tmp_path / "messy.csv"
    data.write_text(messy_rating_csv())
    outdir = tmp_path / "out"
    assert main(["--quiet", "augment", "--dataset", str(data), "--format", "rating-csv",
                 "--embed-dim", "8", "--epochs", "20", "--seed", "3",
                 "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    assert _sha256((outdir / "id_map.json").read_bytes()) == GOLDEN["messy/augment-id-map"]


def hub_sign_tsv() -> str:
    """A sign-tsv file with a 200-edge hub and 2,825 triangles, in shuffled line order.

    Its 80% split (seed 0) keeps 1,488 of the triangles and breaks the rest,
    so the split's balance degree depends on which edges the split keeps.
    """
    rng = np.random.default_rng(23)
    edges = hub_records(rng, 300, 200, 3000)
    lines = [f"{e.u}\t{e.v}\t{e.sign}\n" if rng.random() < 0.5 else f"{e.v}\t{e.u}\t{e.sign}\n"
             for e in edges]
    return "".join(lines[i] for i in rng.permutation(len(lines)))


def test_hub_file_cli_outputs_are_golden(tmp_path, capsys):
    data = tmp_path / "hub.tsv"
    data.write_text(hub_sign_tsv())
    dataset = ["--dataset", str(data), "--format", "sign-tsv"]
    assert main(["--quiet", "stats", *dataset, "--split-ratio", "0.8", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    del stats["dataset"]  # the path differs between runs
    per_edge = tmp_path / "edges.csv"
    assert main(["--quiet", "balance-report", *dataset, "--per-edge-csv", str(per_edge)]) == 0
    totals = capsys.readouterr().out
    assert {
        "stats": _sha256(json.dumps(stats, sort_keys=True).encode()),
        "balance-report": _sha256(totals.encode()),
        "per-edge-csv": _sha256(per_edge.read_bytes()),
    } == {
        "stats": GOLDEN["hub/stats"],
        "balance-report": GOLDEN["hub/balance-report"],
        "per-edge-csv": GOLDEN["hub/per-edge-csv"],
    }


@pytest.mark.parametrize("split, key", [
    ([], "hub/stats-no-split"),
    (["--split-ratio", "0.5", "--split-seed", "7"], "hub/stats-split-0.5-seed-7"),
])
def test_hub_file_stats_are_golden(split, key, tmp_path, capsys):
    data = tmp_path / "hub.tsv"
    data.write_text(hub_sign_tsv())
    dataset = ["--dataset", str(data), "--format", "sign-tsv"]
    assert main(["--quiet", "stats", *dataset, *split, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    del stats["dataset"]  # the path differs between runs
    assert _sha256(json.dumps(stats, sort_keys=True).encode()) == GOLDEN[key]


RUN_CONFIG = """\
[dataset]
path = "graph.tsv"
format = "sign-tsv"

[split]
ratio = 0.75
seeds = [3, 5]

[encoder]
embed_dim = 8
epochs = 20

[augment]
eps_add_pos = 0.6
eps_del_pos = 0.2

[pacing]
lambda0 = 0.5
"""

GOLDEN_RUN = {
    "stdout": "4e4a750fc89f0178dad28e1f608e5608b942ceaa016934ed048745a9c5b8e38e",
    "report.json": "34ed2068d85d3a037c98b7a0bb40081b057e5098e1f3084609ba594f6e39de19",
    "config.resolved.json": "eeda9c9f63b6dd77860b8b35c74e83823115782f0d7a1fbac05ed114696a0504",
    "report.csv": "8188a9a98a751b2b8002cb727e43a5d232661e47435d02c6b7ca0f9e72fcbf29",
    "schedule_seed3.csv": "fa2040f663570e13d350562766041bfb10948a3983c84c9f250d989a2abd3061",
    "schedule_seed5.csv": "dfe9d27c818b3eeb44250abbfc95c7cc8305d6d75354a285c28af9b59d08ec35",
    "augmented_train_seed3.tsv": "e4fde61af66d893d25aca7eda8d1f1db9d8af5d24830347f0e88464ec68b69e0",
    "augmented_train_seed5.tsv": "4fc227e235adce43c4395ebe8dfd1867115abd4d0ef95a366772a1e199580887",
}

GOLDEN_SWEEP = {
    "stdout": "067454800a4fac5af186b1b94f01cb8d60920dace900a777ece9e072990c1773",
    "config.resolved.json": "579776f2ddd2d60096f94ac9e7c89b954e613ec49d0c4a3bebb8a7e7e3730481",
    "sweep.csv": "e237590d2e8dfb6b8fb835378d615147a860432d3f75d07a94bbe55dd4a6d832",
    "sweep_auc.dat": "db26b19dc8a92ab6bcd90f5f626165c9d114c0f04e5a30e64abdf2a4d92e028e",
    "sweep_f1_binary.dat": "d557b143ccb66ce19f14883e97b907c19d016bb7f0d302451a1956552f97b2b9",
    "sweep_f1_macro.dat": "778859ba3b2da3af39c615a9f42222a21eda892d6b196ccaa2bda5f1928efdec",
    "sweep_f1_micro.dat": "af3bfca9889cd2d7c008aaa3145b58a608f6bca4bf7bd19a43ec008d0e1709cb",
}


MID_SCALE = bad_actor_records()
MID_SCALE_ENCODER = EncoderConfig(embed_dim=16, epochs=10)

# computed before any encoder, balance or scan change they guard
GOLDEN_MID_SCALE = {
    "records": "38e11ca9a488551bb3ed787c12613d45b8ef5256caa0412f561ebbaf119b2c91",
    "baseline/report": "d9042d070b66e88b269417a0d633b1bff599645be8ab767f56bb9e962738c242",
    "baseline/final-train": "9918cbc498244d54f6f4975b83acfa9e245d4450e88135ca2a92f54c4ac0660e",
    "baseline/schedule": "63d47974c9f0ca1b03fe0213c276b7cb8669b8c3803e4ba146be06f9f59412f8",
    "sga-diagnostic/report": "d429a749a4d89c6f5613420e07fb8e91817a9a0658bf671dcfdefe1caf401289",
    "sga-diagnostic/final-train": "07980459d41d7b0e99388538fbda5d918a402b4ab83912a3fa756680c559d0e3",
    "sga-diagnostic/schedule": "810de3bc997cd00205e565a7593c680b2dffec69959f65118688e57d34151d20",
}


def test_mid_scale_records_are_golden():
    assert _sha256(_rows(MID_SCALE)) == GOLDEN_MID_SCALE["records"]


def _mid_scale_digests() -> dict[str, str]:
    digests = {}
    for pipeline, diagnostic, key in [("baseline", False, "baseline"),
                                      ("sga", True, "sga-diagnostic")]:
        report = run_experiment(MID_SCALE, pipeline, [0, 1], enc_cfg=MID_SCALE_ENCODER,
                                diagnostic=diagnostic)
        payload = json.dumps(report_payload(report), sort_keys=True).encode()
        schedules = b"".join(
            _rows(r.schedule.ordered_edges)
            + np.asarray(r.schedule.difficulties, dtype=np.float64).tobytes()
            for r in report.results
        )
        digests[f"{key}/report"] = _sha256(payload)
        digests[f"{key}/final-train"] = _sha256(b"".join(_rows(r.final_train)
                                                         for r in report.results))
        digests[f"{key}/schedule"] = _sha256(schedules)
    return digests


@pytest.mark.parametrize("budgets", ["default", "small"])
def test_mid_scale_runs_are_golden(budgets):
    # small budgets split the triangle kernel and the two-hop scan into
    # hundreds of blocks, and the loss's 1,000 rows into 333 + 333 + 334;
    # the outputs must not depend on where they split
    expected = {k: v for k, v in GOLDEN_MID_SCALE.items() if k != "records"}
    if budgets == "default":
        assert _mid_scale_digests() == expected
        return
    with mock.patch.object(balance, "_CHUNK_WORK", 1 << 8), \
            mock.patch.object(importlib.import_module("sigaug.augment"), "_SCAN_WORK", 1 << 10), \
            mock.patch.object(encoder, "_LOSS_BLOCK_ROWS", 333):
        assert _mid_scale_digests() == expected


def _pinned_files(outdir, pattern: str) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(outdir.glob(pattern))}


def test_run_command_outputs_are_golden(tmp_path, monkeypatch, capsys):
    # relative paths, so report.json and config.resolved.json name no tmp directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.tsv").write_bytes(_rows(EDGES))
    (tmp_path / "run.toml").write_text(RUN_CONFIG)
    assert main(["--quiet", "run", "--config", "run.toml", "--pipeline", "sga", "--diagnostic",
                 "--eps-add-neg", "0.6", "--eps-del-neg", "0.2", "--big-t", "6",
                 "--outdir", "out"]) == 0
    stdout = capsys.readouterr().out
    outdir = tmp_path / "out"
    report = json.loads((outdir / "report.json").read_text())
    del report["timing"]
    resolved = json.loads((outdir / "config.resolved.json").read_text())
    del resolved["environment"]
    assert {
        "stdout": _sha256(stdout.encode()),
        "report.json": _sha256(json.dumps(report, sort_keys=True).encode()),
        "config.resolved.json": _sha256(json.dumps(resolved, sort_keys=True).encode()),
        **_pinned_files(outdir, "report.csv"),
        **_pinned_files(outdir, "schedule_seed*.csv"),
        **_pinned_files(outdir, "augmented_train_seed*.tsv"),
    } == GOLDEN_RUN


def test_sweep_command_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.tsv").write_bytes(_rows(EDGES))
    assert main(["--quiet", "sweep", "--dataset", "graph.tsv", "--seeds", "3,5",
                 "--embed-dim", "8", "--epochs", "20", "--eps-add-pos", "0.6",
                 "--eps-add-neg", "0.6", "--lambda0", "0.5", "--param", "big_t",
                 "--values", "2,5,10", "--outdir", "out"]) == 0
    stdout = capsys.readouterr().out
    outdir = tmp_path / "out"
    resolved = json.loads((outdir / "config.resolved.json").read_text())
    del resolved["environment"]
    assert {
        "stdout": _sha256(stdout.encode()),
        "config.resolved.json": _sha256(json.dumps(resolved, sort_keys=True).encode()),
        **_pinned_files(outdir, "sweep.csv"),
        **_pinned_files(outdir, "sweep_*.dat"),
    } == GOLDEN_SWEEP
