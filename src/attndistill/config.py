"""Run configuration: one dataclass, each field of which is a CLI flag.

`TrainConfig` extends `distill.DistillConfig`, so the loss weights and
their range checks are declared once, and a run config is the loss config
`train` hands to its epoch loop. SGD's momentum 0.9 and the x0.1 drop at
each `lr_drops` epoch are fixed parts of the recipe, not fields.

A JSON config file may supply any field; explicit CLI flags override the
file, and everything else falls back to the defaults below. `CHOICES` maps
each closed-set field to the tuple its implementing module declares. A
CIFAR dataset fixes `classes`: flags or a file may restate its count (so
stored configs load) but not give another. The full resolved config is
embedded in every checkpoint manifest and metrics run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .data import DATASETS
from .distill import DistillConfig
from .errors import ConfigError
from .models import DEPTHS, VARIANTS
from .sparse import MODES

CHOICES = {"dataset": DATASETS, "depth": DEPTHS, "variant": VARIANTS, "prune_mode": MODES}
# the class count of each CIFAR dataset, which a run may restate but not change
_CIFAR_CLASSES = {"cifar10": 10, "cifar100": 100}
# the least value of each count or non-negative field
_LEAST = {"seed": 0, "classes": 1, "synth_train": 1, "synth_test": 1, "epochs": 1, "batch_size": 1,
          "weight_decay": 0}


# field annotation -> (JSON value types it takes, how an error names them)
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "tuple": ((list, tuple), "a list of integers"),
}


def _fits(value, kind: str) -> bool:
    """Whether a decoded JSON value fits a field annotated `kind`; a bool is not a number."""
    if not isinstance(value, _KINDS[kind][0]) or (kind == "bool") != isinstance(value, bool):
        return False
    return kind != "tuple" or all(_fits(v, "int") for v in value)


@dataclass
class TrainConfig(DistillConfig):
    # run
    out_dir: str = "runs/default"
    seed: int = 0
    deterministic: bool = False
    # data
    dataset: str = "synthetic"
    data_dir: str = ""
    classes: int = 2
    synth_train: int = 1000
    synth_test: int = 500
    # optimization
    epochs: int = 30
    batch_size: int = 100
    lr: float = 0.1
    weight_decay: float = 1e-4
    lr_drops: tuple = (18, 24, 27)
    # model
    depth: str = "toy"
    variant: str = "hybrid"
    extent: int = 3
    heads: int = 2
    # sparsity
    density: float = 0.25
    prune_mode: str = "irregular"
    prune_rate0: float = 0.5
    stem_prunable: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"config field {f.name} must be finite, got {getattr(self, f.name)!r}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"config field {name} must be one of {allowed}, got {getattr(self, name)!r}")
        self.classes = _CIFAR_CLASSES.get(self.dataset, self.classes)
        for name, least in _LEAST.items():
            if getattr(self, name) < least:
                raise ConfigError(f"config field {name} must be >= {least}, got {getattr(self, name)!r}")
        if self.lr <= 0:
            raise ConfigError(f"config field lr must be > 0, got {self.lr!r}")
        if not 0 < self.density <= 1:
            raise ConfigError(f"density must be in (0, 1], got {self.density}")
        if not 0 <= self.prune_rate0 < 1:
            raise ConfigError(f"prune_rate0 must be in [0, 1), got {self.prune_rate0}")
        self.lr_drops = tuple(int(e) for e in self.lr_drops)
        if any(e < 0 for e in self.lr_drops):
            raise ConfigError(f"config field lr_drops must hold epochs >= 0, got {list(self.lr_drops)}")
        super().__post_init__()  # range checks for the distillation fields

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lr_drops"] = list(self.lr_drops)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(d).__name__}")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in d.items():
            if not _fits(value, kinds[name]):
                raise ConfigError(f"config field {name} must be {_KINDS[kinds[name]][1]}, got {value!r}")
        fixed = _CIFAR_CLASSES.get(d.get("dataset"))
        if fixed is not None and d.get("classes", fixed) != fixed:
            raise ConfigError(f"dataset {d['dataset']} has {fixed} classes, config field classes says {d['classes']}")
        return cls(**d)

    @classmethod
    def load(cls, path=None, overrides: dict | None = None) -> "TrainConfig":
        """Defaults <- JSON file <- explicit overrides, in that order."""
        base: dict = {}
        if path:
            with open(path, encoding="utf-8") as f:
                try:
                    base = json.load(f)
                except (json.JSONDecodeError, UnicodeDecodeError) as e:
                    raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {e}") from e
            if not isinstance(base, dict):
                raise ConfigError(f"config file {path} must hold a JSON object, got {type(base).__name__}")
        if overrides:
            base.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(base)
