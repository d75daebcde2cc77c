"""Run configuration: file loading (TOML or JSON) plus flag overrides.

Config files use four tables -- [dataset], [split], [encoder], [augment],
[pacing], [run] -- whose keys mirror the dataclass fields.  Every run writes
the fully resolved configuration as JSON next to its outputs; feeding that
file back in reproduces the run.

TOML parsing uses the stdlib ``tomllib`` (Python >= 3.11) or ``tomli`` when
installed.  When neither exists, a strict fallback reader covers the subset
these configs need: tables, strings, ints, floats, booleans, and flat arrays.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .augment import AugmentConfig
from .curriculum import PacingConfig
from .encoder import EncoderConfig

try:  # pragma: no cover - depends on interpreter version
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None

KNOWN_DATASETS = {
    "bitcoin-alpha": ("soc-sign-bitcoinalpha.csv", "rating-csv"),
    "bitcoin-otc": ("soc-sign-bitcoinotc.csv", "rating-csv"),
    "epinions": ("soc-sign-epinions.txt", "sign-tsv"),
    "slashdot": ("soc-sign-Slashdot090221.txt", "sign-tsv"),
    "wiki-elec": ("wiki-elec.tsv", "sign-tsv"),
    "wiki-rfa": ("wiki-rfa.tsv", "sign-tsv"),
}


def _parse_toml_value(raw: str, path: str, lineno: int):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_toml_value(part, path, lineno) for part in inner.split(",")]
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: cannot parse TOML value {raw!r}") from None


def _fallback_toml(text: str, path: str) -> dict:
    data: dict = {}
    table = data
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            table = data.setdefault(name, {})
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        table[key.strip()] = _parse_toml_value(raw, path, lineno)
    return data


def _read_config_file(path: Path) -> dict:
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if _toml is not None:
        return _toml.loads(text)
    return _fallback_toml(text, str(path))


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
    pacing: PacingConfig | None = None

    def resolved_pacing(self) -> PacingConfig:
        if self.pacing is not None:
            return self.pacing
        return PacingConfig.for_epochs(self.encoder.epochs)

    def resolve_dataset(self, data_dirs: list[Path]) -> tuple[Path, str]:
        """Map a dataset name or path to (file path, format)."""
        if self.dataset in KNOWN_DATASETS:
            filename, fmt = KNOWN_DATASETS[self.dataset]
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
        return {
            "dataset": {"path": self.dataset, "format": self.dataset_format},
            "split": {"ratio": self.ratio, "seeds": list(self.seeds)},
            "encoder": asdict(self.encoder),
            "augment": asdict(self.augment),
            "pacing": asdict(self.resolved_pacing()),
            "run": {
                "pipeline": self.pipeline,
                "output_dir": self.output_dir,
                "diagnostic": self.diagnostic,
                "save_encoders": self.save_encoders,
            },
        }


def _coerce_seeds(value) -> list[int]:
    if isinstance(value, int):
        return list(range(value))
    return [int(v) for v in value]


def config_from_dict(data: dict) -> RunConfig:
    cfg = RunConfig()
    ds = data.get("dataset", {})
    cfg.dataset = ds.get("path", cfg.dataset)
    cfg.dataset_format = ds.get("format", cfg.dataset_format)
    split = data.get("split", {})
    cfg.ratio = float(split.get("ratio", cfg.ratio))
    if "seeds" in split:
        cfg.seeds = _coerce_seeds(split["seeds"])
    if "encoder" in data:
        cfg.encoder = EncoderConfig(**data["encoder"])
    if "augment" in data:
        cfg.augment = AugmentConfig(**data["augment"])
    if "pacing" in data:
        pacing = dict(data["pacing"])
        total = pacing.pop("total_epochs", cfg.encoder.epochs)
        cfg.pacing = PacingConfig.for_epochs(total, **pacing)
    run = data.get("run", {})
    cfg.pipeline = run.get("pipeline", cfg.pipeline)
    cfg.output_dir = run.get("output_dir", cfg.output_dir)
    cfg.diagnostic = bool(run.get("diagnostic", cfg.diagnostic))
    cfg.save_encoders = bool(run.get("save_encoders", cfg.save_encoders))
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(_read_config_file(Path(path)))


def write_resolved(cfg: RunConfig, path: str | Path, environment: dict) -> None:
    payload = cfg.to_dict()
    payload["environment"] = environment
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
