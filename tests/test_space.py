"""Tests for the search-space encoding and decoding layer."""

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
    # config_key and decode agree with the per-parameter decoders, bit for
    # bit, on an all-linear continuous space.
    space = SearchSpace(
        (
            ParameterSpec("a", "continuous", lower=0.0, upper=1.0),
            ParameterSpec("b", "continuous", lower=-3, upper=7),
            ParameterSpec("c", "continuous", lower=0.1, upper=0.3),
        )
    )
    rng = np.random.default_rng(0)
    for genotype in [np.zeros(3), np.ones(3), *rng.random((200, 3))]:
        reference = tuple(f(c) for f, c in zip(space.decoders, genotype.tolist()))
        assert config_key(space, genotype) == reference
        assert list(decode(space, genotype).values()) == list(reference)


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
