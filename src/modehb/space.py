"""Search-space definition and unit-hypercube genotype encoding.

Optimizers operate exclusively on genotypes in [0, 1]^d; this module maps
them onto typed hyperparameter values.  Continuous parameters use a linear
(or log-linear) map, integers round the continuous map to the nearest
value, and categorical parameters split the unit interval into k
equal-width bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionError

KINDS = ("continuous", "integer", "categorical")


@dataclass(frozen=True)
class ParameterSpec:
    """Declaration of a single hyperparameter.

    Args:
        name: Unique parameter name.
        kind: One of ``continuous``, ``integer``, ``categorical``.
        lower: Lower bound (continuous/integer only).
        upper: Upper bound (continuous/integer only).
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

    params: tuple[ParameterSpec, ...] = field(default_factory=tuple)
    # One decoder per parameter, built once so config_key skips the kind
    # dispatch on every call.
    decoders: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.params) < 1:
            raise ValueError("search space needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        object.__setattr__(self, "decoders", tuple(map(_decoder, self.params)))

    def __len__(self) -> int:
        return len(self.params)


def encode_sample(space: SearchSpace, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random genotype in [0, 1]^d."""
    return rng.uniform(0.0, 1.0, size=len(space))


def _linear(lower: float, span: float, c: float) -> float:
    return lower + c * span


def _log_linear(log_lower: float, log_span: float, c: float) -> float:
    return math.exp(log_lower + c * log_span)


def _rounded(raw, lower: int, upper: int, c: float) -> int:
    # Round half up so decoding is a monotone step function of c.
    return min(max(math.floor(raw(c) + 0.5), lower), upper)


def _choice(choices: tuple, c: float):
    # Equal-width bins; c == 1.0 falls into the last bin.
    k = len(choices)
    return choices[min(math.floor(c * k), k - 1)]


def _decoder(spec: ParameterSpec):
    """The map from one genotype component to the parameter's value."""
    if spec.kind == "categorical":
        return partial(_choice, spec.choices)
    if spec.log:
        lo, hi = math.log(spec.lower), math.log(spec.upper)
        raw = partial(_log_linear, lo, hi - lo)
    else:
        raw = partial(_linear, spec.lower, spec.upper - spec.lower)
    if spec.kind == "continuous":
        return raw
    return partial(_rounded, raw, int(spec.lower), int(spec.upper))


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
    return tuple([decode_value(c) for decode_value, c in zip(space.decoders, values)])
