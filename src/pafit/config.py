"""Experiment configuration: a single strict, versioned JSON document.

Unknown keys are rejected (fail-fast reproducibility) and every field is
validated before any run. The fitness distribution and the attachment
model are tagged objects:

    {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]}
    {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]],
     "atom_at_one": 0.0}
    {"type": "beta", "alpha": 2.0, "beta": 3.0, "atom_at_one": 0.0}
    {"type": "uniform"}

    {"type": "poisson"} | {"type": "multinomial"}
    | {"type": "pairs_demo"} | {"type": "uniform_demo"}
    | {"type": "bursty_demo"} | {"type": "coupled_demo"}

The demo kernels are deliberate contract violators used by the
``check-kernel`` subcommand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import measures, simulator

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def build_distribution(spec: dict) -> measures.FitnessDistribution:
    spec = dict(spec)
    kind = spec.pop("type", None)
    try:
        if kind == "discrete":
            points = spec.pop("points")
            try:
                pairs = [(float(v), float(m)) for v, m in points]
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"fitness points must be [value, mass] pairs, got {points!r}"
                ) from exc
            dist = measures.FiniteDiscrete(pairs)
        elif kind == "density":
            dist = measures.PiecewiseDensity(
                spec.pop("edges"), spec.pop("coeffs"), spec.pop("atom_at_one", 0.0)
            )
        elif kind == "beta":
            dist = measures.BetaShape(
                spec.pop("alpha"), spec.pop("beta"), spec.pop("atom_at_one", 0.0)
            )
        elif kind == "uniform":
            dist = measures.Uniform01()
        else:
            raise ConfigError(f"unknown fitness distribution type {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"{kind} fitness needs the key {exc}") from None
    except measures.MeasureError as exc:
        raise ConfigError(f"invalid fitness distribution: {exc}") from exc
    if spec:
        raise ConfigError(f"unknown fitness keys {sorted(spec)}")
    return dist


def build_model(spec: dict, lam: float) -> simulator.AttachmentModel:
    spec = dict(spec)
    kind = spec.pop("type", None)
    if spec:
        raise ConfigError(f"unknown model keys {sorted(spec)}")
    if kind == "poisson":
        return simulator.PoissonOutdegree()
    if kind == "multinomial":
        return simulator.FixedOutdegree()
    from . import kernel_contract  # the demo kernels' module loads scipy.stats

    if kind == "pairs_demo":
        return kernel_contract.pair_emitting_kernel(lam)
    if kind == "uniform_demo":
        return kernel_contract.uniform_target_kernel(lam)
    if kind == "bursty_demo":
        return kernel_contract.bursty_variance_kernel(lam)
    if kind == "coupled_demo":
        return kernel_contract.coupled_pair_kernel()
    raise ConfigError(f"unknown model type {kind!r}")


_FIELDS = {
    "schema_version",
    "model",
    "lambda",
    "fitness",
    "n_target",
    "checkpoints",
    "replicas",
    "base_seed",
    "bins",
    "max_tracked_impact",
    "epsilon",
    "out_dir",
    "edge_log",
}


def _integer(key: str, value) -> int:
    """A JSON integer, or an integral float such as ``1e6``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _number(key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    lam: float
    fitness: dict
    n_target: int
    out_dir: str
    checkpoints: tuple[int, ...] | None = None
    replicas: int = 1
    base_seed: int = 0
    bins: int = 100
    max_tracked_impact: int = 10
    epsilon: float = 0.01
    edge_log: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("lambda must be positive and finite")
        if self.n_target < 1:
            raise ConfigError("n_target must be >= 1")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.bins < 1:
            raise ConfigError("bins must be >= 1")
        if self.max_tracked_impact < 1:
            raise ConfigError("max_tracked_impact must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in (0, 1]")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        cps = self.checkpoints
        if cps is not None and (
            any(c < 1 or c > self.n_target for c in cps) or list(cps) != sorted(set(cps))
        ):
            raise ConfigError("checkpoints must be sorted, unique, within [1, n_target]")
        # construct both to validate; raises ConfigError on bad specs
        dist = build_distribution(self.fitness)
        try:
            measures.require_normalized(dist)
        except measures.MeasureError as exc:
            raise ConfigError(str(exc)) from exc
        model = build_model(self.model, self.lam)
        if isinstance(model, simulator.FixedOutdegree) and self.lam != int(self.lam):
            raise ConfigError("multinomial model needs integer lambda")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        unknown = set(data) - (_FIELDS - {"schema_version"})
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = {"model", "lambda", "fitness", "n_target", "out_dir"} - set(data)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        for key in ("model", "fitness"):
            if not isinstance(data[key], dict):
                raise ConfigError(f"{key} must be an object, got {data[key]!r}")
        checkpoints = data.get("checkpoints")
        if not isinstance(checkpoints, (list, tuple, type(None))):
            raise ConfigError(f"checkpoints must be a list, got {checkpoints!r}")
        edge_log = data.get("edge_log", False)
        if not isinstance(edge_log, bool):
            raise ConfigError(f"edge_log must be true or false, got {edge_log!r}")
        return cls(
            model=dict(data["model"]),
            lam=_number("lambda", data["lambda"]),
            fitness=dict(data["fitness"]),
            n_target=_integer("n_target", data["n_target"]),
            out_dir=str(data["out_dir"]),
            checkpoints=(
                None if checkpoints is None
                else tuple(_integer("checkpoints", c) for c in checkpoints)
            ),
            replicas=_integer("replicas", data.get("replicas", 1)),
            base_seed=_integer("base_seed", data.get("base_seed", 0)),
            bins=_integer("bins", data.get("bins", 100)),
            max_tracked_impact=_integer("max_tracked_impact", data.get("max_tracked_impact", 10)),
            epsilon=_number("epsilon", data.get("epsilon", 0.01)),
            edge_log=edge_log,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": dict(self.model),
            "lambda": self.lam,
            "fitness": dict(self.fitness),
            "n_target": self.n_target,
            "checkpoints": list(self.checkpoints) if self.checkpoints is not None else None,
            "replicas": self.replicas,
            "base_seed": self.base_seed,
            "bins": self.bins,
            "max_tracked_impact": self.max_tracked_impact,
            "epsilon": self.epsilon,
            "out_dir": self.out_dir,
            "edge_log": self.edge_log,
        }

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- derived objects ---------------------------------------------------

    def distribution(self) -> measures.FitnessDistribution:
        return build_distribution(self.fitness)

    def attachment_model(self) -> simulator.AttachmentModel:
        return build_model(self.model, self.lam)

    def bin_edges(self):
        from . import empirics

        return empirics.collision_free_edges(self.distribution(), self.bins)
