"""Golden outputs of a short run, pinned as SHA-256 digests.

The digests lock the report payload, the curriculum schedule CSVs and the
per-edge balance CSV bit for bit on one fixed seeded graph.  A refactor must
leave them unchanged; a change that moves them on purpose says why in
CHANGES.md and pins the new digests here.
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
