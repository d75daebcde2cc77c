"""Run configuration: file loading (TOML or JSON) plus flag overrides.

Config files use six tables: [dataset], [split] and [run], whose keys
``FILE_KEYS`` maps to ``RunConfig`` fields, and [encoder], [augment] and
[pacing], whose keys are the fields of those dataclasses except the two
that can hold only one value (``_FIXED``).  Unknown tables and keys are
errors.  Flags reach the same tables by field name, so a file and its flags
resolve in one pass.  Every run writes the fully resolved
configuration as JSON next to its outputs; feeding that file back in
reproduces the run.  TOML files are read with the stdlib ``tomllib``.
"""

from __future__ import annotations

import json
import os
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .augment import AugmentConfig
from .curriculum import PacingConfig
from .encoder import EncoderConfig, _is_number, _require_numbers

KNOWN_DATASETS = {
    "bitcoin-alpha": ("soc-sign-bitcoinalpha.csv", "rating-csv"),
    "bitcoin-otc": ("soc-sign-bitcoinotc.csv", "rating-csv"),
    "epinions": ("soc-sign-epinions.txt", "sign-tsv"),
    "slashdot": ("soc-sign-Slashdot090221.txt", "sign-tsv"),
    "wiki-elec": ("wiki-elec.tsv", "sign-tsv"),
    "wiki-rfa": ("wiki-rfa.tsv", "sign-tsv"),
}


# [dataset], [split] and [run] keys as {file key: RunConfig field}; the keys of
# [encoder], [augment] and [pacing] are the fields of those dataclasses
FILE_KEYS = {
    "dataset": {"path": "dataset", "format": "dataset_format"},
    "split": {key: key for key in ("ratio", "seeds")},
    "run": {key: key for key in ("pipeline", "output_dir", "diagnostic", "save_encoders")},
}
SECTIONS = {"encoder": EncoderConfig, "augment": AugmentConfig, "pacing": PacingConfig}
# the table write_resolved records the software versions in; read back, it is ignored
ENVIRONMENT = "environment"


def _coerce_seeds(value) -> list[int]:
    """Seeds from a count (5 -> 0..4) or a list, either one possibly as text ("5", "0,2,4").

    A count or seed that is not a whole number (1.5, true) is an error.
    """
    if isinstance(value, str):
        value = [int(v) for v in value.split(",") if v.strip()] if "," in value else int(value)
    if _is_number(value, whole=True):
        return list(range(value))
    if not isinstance(value, (list, tuple)) or not all(_is_number(v, whole=True) for v in value):
        raise ValueError(f"seeds must be a whole-number count or list of them, got {value!r}")
    return list(value)


@dataclass
class RunConfig:
    """Everything one experiment run needs, nested by concern."""

    dataset: str = ""
    dataset_format: str | None = None
    ratio: float = 0.8
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    pipeline: str = "baseline"
    output_dir: str = "sigaug-out"
    diagnostic: bool = False
    save_encoders: bool = False
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    pacing: PacingConfig = field(default_factory=PacingConfig)

    def __post_init__(self):
        # as a file or flag may give them: ratio = 1, diagnostic = 1, seeds = 5 or "0,2"
        _require_numbers(self, "ratio")
        # as a file may give them: [dataset] path = 5 or format = 5, [run] output_dir = 5
        for label, value, types in (("dataset path", self.dataset, str),
                                    ("dataset format", self.dataset_format, (str, type(None))),
                                    ("output_dir", self.output_dir, str)):
            if not isinstance(value, types):
                raise ValueError(f"{label} must be a string, got {value!r}")
        for name in ("diagnostic", "save_encoders"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value in (0, 1)):
                raise ValueError(f"{name} must be true or false, got {value!r}")
            setattr(self, name, bool(value))
        self.ratio, self.seeds = float(self.ratio), _coerce_seeds(self.seeds)

    def resolve_dataset(self, root: Path = Path()) -> tuple[Path, str]:
        """Map a dataset name or path to (file path, format).

        A known name is looked up under ``$SIGAUG_DATA_DIR``, then under
        ``root``/datasets.
        """
        if not self.dataset:
            raise ValueError("no dataset given (use --dataset or a config file)")
        if self.dataset in KNOWN_DATASETS:
            filename, fmt = KNOWN_DATASETS[self.dataset]
            env = os.environ.get("SIGAUG_DATA_DIR")
            data_dirs = [Path(d) for d in (env, root / "datasets") if d]
            for base in data_dirs:
                candidate = base / filename
                if candidate.exists():
                    return candidate, self.dataset_format or fmt
            searched = ", ".join(str(d) for d in data_dirs)
            raise FileNotFoundError(
                f"dataset {self.dataset!r} not found as {filename} under: {searched} "
                "(see datasets/README.md for retrieval instructions)"
            )
        path = Path(self.dataset)
        if not path.exists():
            raise FileNotFoundError(f"dataset file {path} does not exist")
        fmt = self.dataset_format
        if fmt is None:
            fmt = "sign-tsv" if path.suffix in (".tsv", ".txt") else "rating-csv"
        return path, fmt

    def to_dict(self) -> dict:
        """Every config-file table with the value of each of its keys."""
        return {
            table: {
                key: getattr(getattr(self, table) if table in SECTIONS else self, name)
                for key, name in keys.items()
            }
            for table, keys in _TABLES.items()
        }


# section fields no file may set, as each can hold only one value: the encoder
# seed 0 (each run seed derives its encoder seeds) and the pacing total_epochs,
# the encoder's epochs
_FIXED = {"encoder": {"seed"}, "pacing": {"total_epochs"}}
# every config-file table as {file key: field name}
_TABLES = {
    **FILE_KEYS,
    **{
        table: {f.name: f.name for f in fields(cls) if f.name not in _FIXED.get(table, ())}
        for table, cls in SECTIONS.items()
    },
}


def config_from_dict(
    data: dict, flags: dict | None = None, defaults: dict | None = None
) -> RunConfig:
    """RunConfig from config-file tables, overlaid with ``flags``.

    ``flags`` and ``defaults`` map field names to values; a None value counts
    as not given.  A field takes its flag, else its file value, else its
    ``defaults`` entry, else the dataclass default.  Unknown tables and keys
    are errors, and so is a value of the wrong type (see the dataclasses'
    checks).  Pacing is resolved last, over the final epoch count: big_t
    defaults to half of it, and total_epochs equals it.
    """
    flags, defaults = flags or {}, defaults or {}
    unknown = sorted(set(data) - set(_TABLES) - {ENVIRONMENT})
    if unknown:
        raise ValueError(
            f"unknown config table(s) {', '.join(f'[{t}]' for t in unknown)}; "
            f"known tables: {', '.join(f'[{t}]' for t in _TABLES)}"
        )
    merged: dict[str, dict] = {}
    for table, keys in _TABLES.items():
        given = data.get(table, {})
        unknown = sorted(set(given) - set(keys))
        if unknown:
            raise ValueError(
                f"unknown key(s) {', '.join(unknown)} in config table [{table}]; "
                f"known keys: {', '.join(keys)}"
            )
        merged[table] = {
            name: value
            for layer in (defaults, {keys[k]: v for k, v in given.items()}, flags)
            for name, value in layer.items()
            if name in keys.values() and value is not None
        }
    top = {name: value for table in FILE_KEYS for name, value in merged[table].items()}
    encoder = EncoderConfig(**merged["encoder"])
    return RunConfig(
        **top,
        encoder=encoder,
        augment=AugmentConfig(**merged["augment"]),
        pacing=PacingConfig.for_epochs(encoder.epochs, **merged["pacing"]),
    )


def read_config_file(path: str | Path) -> dict:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return tomllib.loads(text)


def write_resolved(cfg: RunConfig, path: str | Path, environment: dict) -> None:
    payload = cfg.to_dict()
    payload[ENVIRONMENT] = environment
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
