"""Experiment configuration: JSON in, validated dataclasses out.

One file (or the built-in defaults) describes the dataset, the partition, the
model zoo, the training hyper-parameters, and the output layout, plus a
single top-level master seed from which every random draw in the run is
derived.  Unknown keys are rejected with their dotted path so typos never
silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field

from .data import PARTITION_SCHEMES
from .errors import ContractError
from .federation import SCENARIOS, RoundConfig
from .losses import AlignmentKind
from .models import ArchitectureSpec


@dataclass
class DatasetConfig:
    classes: int = 10
    input_dim: int = 16
    samples_per_class: int = 100
    separation: float = 0.7
    noise: float = 0.32


@dataclass
class PartitionConfig:
    scheme: str = "dirichlet"  # one of data.PARTITION_SCHEMES
    alpha: float = 0.1
    shift_scale: float = 1.0
    clients: int = 8


@dataclass
class ModelConfig:
    hidden_widths: list[list[int]] = field(
        default_factory=lambda: [[], [16], [32, 16], [64, 32, 16]]
    )
    feature_dim: int = 8
    scenario: str = "hetero"  # one of federation.SCENARIOS


@dataclass
class TrainingConfig:
    alignment: str = "gcsa"
    temperature: float = 0.5
    lam: float = 1.0
    gamma: float = 1.0
    local_epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.18
    participation_fraction: float = 1.0
    prototype_mode: str = "aggregate"
    rounds: int = 30


@dataclass
class OutputConfig:
    directory: str = "results"
    prototype_snapshots: bool = False
    normalized_stacking: bool = False


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for (block, name), key in _EXTERNAL_KEYS.items():
            out[block][key] = out[block].pop(name)
        return out


# (block, field) -> its external key name: "lambda"/"gamma" match the CLI flags
_EXTERNAL_KEYS = {("training", "lam"): "lambda"}


def _fill(obj, payload, block: str | None = None) -> None:
    """Copy a JSON object onto a config dataclass; unknown keys are rejected."""
    if not isinstance(payload, dict):
        raise ContractError(f"config {block or 'root'} must be a JSON object")
    # key -> field; a field with an external key is known by that key only
    names = {_EXTERNAL_KEYS.get((block, f.name), f.name): f.name for f in dataclasses.fields(obj)}
    for key, value in payload.items():
        if key not in names:
            raise ContractError(f"unknown config key {block + '.' if block else ''}{key}")
        name = names[key]
        if dataclasses.is_dataclass(getattr(obj, name)):
            _fill(getattr(obj, name), value, name)
        else:
            setattr(obj, name, value)


def config_from_dict(payload: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    _fill(cfg, payload)
    return validate_config(cfg)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractError(f"config {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ContractError(f"config {path} is not valid UTF-8: {exc}") from exc
    return config_from_dict(payload)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# declared field type -> (what a value must be, its test); the float bound
# also rejects NaN, the infinities and JSON integers beyond the float range
_TYPE_RULES = {
    int: ("an integer", _is_int),
    float: ("a finite number", lambda value: (_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max),
    bool: ("true or false", lambda value: isinstance(value, bool)),
    str: ("a string", lambda value: isinstance(value, str)),
    list[list[int]]: ("a non-empty list of integer lists", lambda value: isinstance(value, list)
                      and len(value) > 0
                      and all(isinstance(ws, list) and all(map(_is_int, ws)) for ws in value)),
}


def _check_types(obj, block: str | None = None) -> None:
    """Reject any field whose value does not have the field's declared type."""
    for name, kind in typing.get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if dataclasses.is_dataclass(kind):
            _check_types(value, name)
        elif not _TYPE_RULES[kind][1](value):
            key = _EXTERNAL_KEYS.get((block, name), name)
            path = f"{block}.{key}" if block else key
            raise ContractError(f"{path} must be {_TYPE_RULES[kind][0]}, got {value!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every field's type, then build the run objects so their rules apply.

    RoundConfig, AlignmentKind and ArchitectureSpec own the training and model
    rules and check them here, at load time.  The data generator and the
    partitioners own the dataset and partition ranges and check them when a
    run builds its shards, before any training.
    """
    _check_types(cfg)
    if cfg.seed < 0:
        raise ContractError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.partition.scheme not in PARTITION_SCHEMES:
        raise ContractError(
            f"partition.scheme must be one of {PARTITION_SCHEMES}, got {cfg.partition.scheme!r}"
        )
    if cfg.model.scenario not in SCENARIOS:
        raise ContractError(
            f"model.scenario must be one of {SCENARIOS}, got {cfg.model.scenario!r}"
        )
    for block, build in (("training", round_config), ("model", architectures)):
        try:
            build(cfg)
        except ContractError as exc:
            raise ContractError(f"{block}: {exc}") from exc
    return cfg


def echo_config(cfg: ExperimentConfig, path) -> None:
    """Write the fully-resolved configuration (defaults + overrides applied)."""
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def architectures(cfg: ExperimentConfig) -> list[ArchitectureSpec]:
    return [
        ArchitectureSpec(tuple(widths), cfg.model.feature_dim)
        for widths in cfg.model.hidden_widths
    ]


def round_config(cfg: ExperimentConfig) -> RoundConfig:
    tr = cfg.training
    return RoundConfig(
        alignment=AlignmentKind.parse(tr.alignment, tr.temperature),
        lam=tr.lam,
        gamma=tr.gamma,
        local_epochs=tr.local_epochs,
        batch_size=tr.batch_size,
        learning_rate=tr.learning_rate,
        participation_fraction=tr.participation_fraction,
        prototype_mode=tr.prototype_mode,
    )
