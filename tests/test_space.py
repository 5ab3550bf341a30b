"""Tests for the search-space encoding and decoding layer."""

import math

import numpy as np
import pytest

from modehb.errors import DimensionError
from modehb.space import (
    ParameterSpec,
    SearchSpace,
    config_key,
    decode,
    encode_sample,
)


def make_space():
    return SearchSpace(
        (
            ParameterSpec("lr", "continuous", lower=1e-4, upper=1.0, log=True),
            ParameterSpec("width", "continuous", lower=0.0, upper=10.0),
            ParameterSpec("depth", "integer", lower=0, upper=10),
            ParameterSpec("act", "categorical", choices=("relu", "tanh", "gelu", "id")),
        )
    )


def test_decode_midpoints():
    space = make_space()
    cfg = decode(space, [0.5, 0.5, 0.5, 0.5])
    assert cfg["lr"] == pytest.approx(1e-2)  # geometric midpoint on log scale
    assert cfg["width"] == pytest.approx(5.0)
    assert cfg["depth"] == 5
    assert cfg["act"] == "gelu"  # bin index floor(0.5 * 4) == 2


def test_decode_boundaries():
    space = make_space()
    lo = decode(space, [0.0, 0.0, 0.0, 0.0])
    hi = decode(space, [1.0, 1.0, 1.0, 1.0])
    assert lo["lr"] == pytest.approx(1e-4)
    assert hi["lr"] == pytest.approx(1.0)
    assert lo["width"] == 0.0 and hi["width"] == 10.0
    assert lo["depth"] == 0 and hi["depth"] == 10
    assert lo["act"] == "relu"
    # c == 1.0 must fall into the last bin, not out of range.
    assert hi["act"] == "id"


def test_all_linear_space_keys_match_the_per_parameter_decoders():
    # config_key and decode agree, in value and in type, with each kind's
    # formula written out: linear, log, integer (round half up, then clamp),
    # log-integer and categorical (k equal-width bins, c == 1.0 in the last).
    choices = ("relu", (1, 2), 3.5, None)
    space = SearchSpace(
        (
            ParameterSpec("linear", "continuous", lower=-3, upper=7),
            ParameterSpec("log", "continuous", lower=1e-4, upper=1.0, log=True),
            ParameterSpec("integer", "integer", lower=-2, upper=8),
            ParameterSpec("log_integer", "integer", lower=1, upper=1000, log=True),
            ParameterSpec("categorical", "categorical", choices=choices),
        )
    )
    log_lo, log_hi = math.log(1e-4), math.log(1.0)
    int_log_lo, int_log_hi = math.log(1), math.log(1000)

    def reference(c):
        return (
            -3 + c * (7 - -3),
            math.exp(log_lo + c * (log_hi - log_lo)),
            min(max(math.floor((-2 + c * (8 - -2)) + 0.5), -2), 8),
            min(max(math.floor(math.exp(int_log_lo + c * (int_log_hi - int_log_lo)) + 0.5), 1), 1000),
            choices[min(math.floor(c * 4), 3)],
        )

    special = [0.0, -0.0, 0.25, 0.5, 1 / 3, math.nextafter(1.0, 0.0), 1.0]
    rng = np.random.default_rng(0)
    for c in special + rng.random(100_000).tolist():
        key, expected = config_key(space, [c] * 5), reference(c)
        assert key == expected
        assert list(map(type, key[:4])) == [float, float, int, int]
        assert key[4] is expected[4]
    for c in special:
        assert tuple(decode(space, [c] * 5).values()) == reference(c)


def test_integer_rounds_half_up():
    space = SearchSpace((ParameterSpec("n", "integer", lower=0, upper=10),))
    assert decode(space, [0.25])["n"] == 3  # raw 2.5 rounds up
    assert decode(space, [0.24])["n"] == 2
    # Monotone step function of the genotype coordinate.
    values = [decode(space, [c])["n"] for c in np.linspace(0.0, 1.0, 101)]
    assert values == sorted(values)


def test_log_integer_decodes_on_the_log_scale():
    space = SearchSpace((ParameterSpec("n", "integer", lower=1, upper=1000, log=True),))
    assert decode(space, [0.0])["n"] == 1
    assert decode(space, [1.0])["n"] == 1000
    # exp(0.5 * ln 1000) = sqrt(1000) = 31.62..., rounded to 32 (linear: 500).
    mid = decode(space, [0.5])["n"]
    assert mid == 32 and isinstance(mid, int)


def test_categorical_bins_are_equal_width():
    space = SearchSpace((ParameterSpec("c", "categorical", choices=(0, 1, 2, 3)),))
    for i in range(4):
        assert decode(space, [(i + 0.5) / 4.0])["c"] == i
        assert decode(space, [i / 4.0])["c"] == i


def test_decode_validates_genotype():
    space = make_space()
    with pytest.raises(DimensionError):
        decode(space, [0.5, 0.5])
    with pytest.raises(ValueError):
        decode(space, [0.5, 0.5, 0.5, 1.5])
    with pytest.raises(ValueError):
        decode(space, [-0.1, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        decode(space, [0.5, np.nan, 0.5, 0.5])


def test_spec_validation():
    with pytest.raises(ValueError):
        ParameterSpec("x", "gaussian")
    with pytest.raises(ValueError):
        ParameterSpec("x", "continuous")  # missing bounds
    with pytest.raises(ValueError):
        ParameterSpec("x", "continuous", lower=1.0, upper=1.0)
    with pytest.raises(ValueError):
        ParameterSpec("x", "continuous", lower=0.0, upper=1.0, log=True)
    with pytest.raises(ValueError):
        ParameterSpec("x", "categorical", choices=())
    with pytest.raises(ValueError):
        ParameterSpec("x", "categorical", choices=("a", "a"))
    # (0, inf) would decode c = 0 to NaN and c = 0.5 to inf.
    for kind in ("continuous", "integer"):
        for lower, upper in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                ParameterSpec("x", kind, lower=lower, upper=upper)
    # Integer bounds (0.5, 3.2) would decode only to 1, 2 or 3.
    for lower, upper in ((0.5, 3.0), (0, 3.2), (0.5, 3.2)):
        with pytest.raises(ValueError, match="whole numbers"):
            ParameterSpec("n", "integer", lower=lower, upper=upper)
    assert ParameterSpec("n", "integer", lower=0.0, upper=3.0).upper == 3.0


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(())
    p = ParameterSpec("x", "continuous", lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        SearchSpace((p, p))


def test_encode_sample_uniform_and_deterministic():
    space = make_space()
    rng = np.random.default_rng(0)
    draws = np.array([encode_sample(space, rng) for _ in range(2000)])
    assert draws.shape == (2000, 4)
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
    assert np.allclose(draws.mean(axis=0), 0.5, atol=0.03)
    again = np.array(
        [encode_sample(space, np.random.default_rng(0)) for _ in range(1)]
    )
    assert np.array_equal(draws[0], again[0])
