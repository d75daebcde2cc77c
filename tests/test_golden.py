"""Golden outputs of a short run, pinned as SHA-256 digests.

The digests lock the report payload, the curriculum schedule CSVs, the
final training edges of every pipeline, the ``augment`` command's files and
the per-edge balance CSV bit for bit on one fixed seeded graph, and the
``stats`` and ``balance-report`` CLI outputs on a messy rating file built
from the same graph.  A refactor must leave them unchanged; a change that
moves them on purpose says why in CHANGES.md and pins the new digests here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import community_records
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
}

OTHER_PIPELINES = [
    "sa-only",
    "tp-only",
    *(f"random:{kind},0.1" for kind in PERTURBATION_KINDS),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("pipeline", ["baseline", "sga"])
def test_run_report_and_schedule_are_golden(pipeline, tmp_path):
    report = run_experiment(EDGES, pipeline, [3], enc_cfg=ENCODER, aug_cfg=AUGMENT)
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
    } == {
        "augmented-train": GOLDEN["augment/augmented-train"],
        "log": GOLDEN["augment/log"],
    }


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
