"""Golden outputs of a short run, pinned as SHA-256 digests.

The digests lock the report payload, the curriculum schedule CSVs and the
per-edge balance CSV bit for bit on one fixed seeded graph, and the
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
from sigaug.evalbench import report_payload, run_experiment

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
}


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


def test_per_edge_csv_is_golden(tmp_path, capsys):
    data = tmp_path / "graph.tsv"
    data.write_text("".join(f"{e.u}\t{e.v}\t{e.sign}\n" for e in EDGES))
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
