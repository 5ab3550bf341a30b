"""Search-space definition and unit-hypercube genotype encoding.

Optimizers operate exclusively on genotypes in [0, 1]^d; this module maps
them onto typed hyperparameter values.  Continuous parameters use a linear
(or log-linear) map, integers round the continuous map to the nearest
value, and categorical parameters split the unit interval into k
equal-width bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

KINDS = ("continuous", "integer", "categorical")


@dataclass(frozen=True)
class ParameterSpec:
    """Declaration of a single hyperparameter.

    Args:
        name: Unique parameter name.
        kind: One of ``continuous``, ``integer``, ``categorical``.
        lower: Finite lower bound (continuous/integer only; whole if integer).
        upper: Finite upper bound (continuous/integer only; whole if integer).
        log: Sample on a log scale (requires ``lower > 0``).
        choices: Value list for categorical parameters.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    log: bool = False
    choices: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if self.kind in ("continuous", "integer"):
            if self.lower is None or self.upper is None:
                raise ValueError(f"{self.name}: numeric parameters need bounds")
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise ValueError(f"{self.name}: bounds must be finite")
            if self.kind == "integer" and (self.lower % 1 or self.upper % 1):
                raise ValueError(f"{self.name}: integer bounds must be whole numbers")
            if not self.lower < self.upper:
                raise ValueError(f"{self.name}: lower must be < upper")
            if self.log and self.lower <= 0:
                raise ValueError(f"{self.name}: log scale requires lower > 0")
        else:
            if len(self.choices) == 0:
                raise ValueError(f"{self.name}: choices must be non-empty")
            if len(set(self.choices)) != len(self.choices):
                raise ValueError(f"{self.name}: duplicate choices")


@dataclass(frozen=True)
class SearchSpace:
    """Ordered collection of parameters; genotype dimension == len(params)."""

    params: tuple[ParameterSpec, ...]

    def __post_init__(self):
        if len(self.params) < 1:
            raise ValueError("search space needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")

    def __len__(self) -> int:
        return len(self.params)


def encode_sample(space: SearchSpace, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random genotype in [0, 1]^d."""
    return rng.uniform(0.0, 1.0, size=len(space))


def _decode(spec: ParameterSpec, c: float):
    """The value of the parameter ``spec`` at genotype component ``c``."""
    if spec.kind == "categorical":
        # Equal-width bins; c == 1.0 falls into the last bin.
        k = len(spec.choices)
        return spec.choices[min(math.floor(c * k), k - 1)]
    if spec.log:
        lo = math.log(spec.lower)
        raw = math.exp(lo + c * (math.log(spec.upper) - lo))
    else:
        raw = spec.lower + c * (spec.upper - spec.lower)
    if spec.kind == "continuous":
        return raw
    # Round half up so decoding is a monotone step function of c.
    return min(max(math.floor(raw + 0.5), int(spec.lower)), int(spec.upper))


def check_genotype(space: SearchSpace, genotype) -> np.ndarray:
    """The genotype as a float array, once it is checked to lie in [0, 1]^d.

    Raises:
        DimensionError: If the genotype length does not match the space.
        ValueError: If a component lies outside [0, 1] or is NaN.
    """
    genotype = np.asarray(genotype, dtype=float)
    if genotype.shape != (len(space),):
        raise DimensionError(
            f"genotype has shape {genotype.shape}, expected ({len(space)},)"
        )
    if not all(0.0 <= c <= 1.0 for c in genotype.tolist()):  # NaN fails too
        raise ValueError("genotype components must lie in [0, 1]")
    return genotype


def decode(space: SearchSpace, genotype) -> dict:
    """Map a genotype in [0, 1]^d (``check_genotype``) to a {name: value}
    configuration."""
    values = config_key(space, check_genotype(space, genotype))
    return dict(zip((p.name for p in space.params), values))


def config_key(space: SearchSpace, genotype) -> tuple:
    """The decoded parameter values as a hashable tuple, in space order.

    Two genotypes have equal keys exactly when ``decode`` maps them to the
    same configuration.  Unlike ``decode`` it neither validates the
    genotype nor builds a dict, so it is cheap enough to call per draw.
    """
    values = np.asarray(genotype, dtype=float).tolist()
    return tuple([_decode(spec, c) for spec, c in zip(space.params, values)])
