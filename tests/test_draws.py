"""``dynoscale.draws`` reproduces numpy's ``default_rng`` stream bit for bit,
and the instances verify draws from it are pinned."""

import numpy as np
import pytest

from dynoscale.draws import default_rng
from dynoscale.systems.intervals import random_space
from dynoscale.verify import SUITES

# 2**32 + 5 takes two seed words; 2**130 + 7 five, past the 4-word pool
SEEDS = [*range(300), 2**30, 2**32 + 5, 123456789012, 2**130 + 7]
SMALL_CHOICES = [(1, 1), (2, 2), (8, 8), (16, 1), (16, 3), (64, 5), (20000, 5)]
# Floyd's algorithm over a large range, and the tail shuffle (n > 10000, k > n // 50)
LARGE_CHOICES = [(5000, 5000), (10001, 300), (12000, 12000), (20000, 500)]


def _same(ours, theirs):
    """Equal values of equal type, floats and arrays compared bitwise."""
    if isinstance(theirs, np.ndarray):
        return (isinstance(ours, np.ndarray) and ours.dtype == theirs.dtype
                and ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes())
    if isinstance(theirs, (float, np.floating)):
        return float(ours).hex() == float(theirs).hex()
    return int(ours) == int(theirs)


def _interleaved(rng, choices):
    """One call sequence touching every supported call shape, the 32-bit
    buffer shared between scalar and array draws included."""
    out = [rng.integers(7), rng.integers(3, 10**9), rng.integers(0, 10**9, size=5),
           rng.integers(2**32 - 1), rng.integers(1, 2, size=4)]
    for n, k in choices:
        out += [rng.choice(n, size=k, replace=False), rng.integers(1, 4)]
        out += [rng.integers(-5, 2 * 10**6 - 4, size=6), rng.integers(2, size=3)]
    out += [rng.choice([0.9, 0.3, 0.12, 0.04]), rng.uniform(0.05, 0.8),
            rng.random((3, 5)), rng.integers(1, 9, size=2), rng.random((2, 2))]
    return out


def _check_parity(seeds, choices):
    for seed in seeds:
        ours = _interleaved(default_rng(seed), choices)
        theirs = _interleaved(np.random.default_rng(seed), choices)
        for step, (a, b) in enumerate(zip(ours, theirs)):
            assert _same(a, b), (seed, step, a, b)


def test_stream_matches_numpy_on_small_draws():
    _check_parity(SEEDS, SMALL_CHOICES)


def test_stream_matches_numpy_on_large_choices():
    # each large choice costs thousands of draws, so fewer seeds
    _check_parity([*range(60), *SEEDS[300:]], LARGE_CHOICES)


@pytest.mark.parametrize("call", [
    lambda rng: rng.integers(2**32),
    lambda rng: rng.integers(-1, 2**32 - 1),
    lambda rng: rng.integers(3, 3),
    lambda rng: rng.integers(5, 2),
    lambda rng: rng.integers(0),
    lambda rng: rng.integers(2**63, 2**63 + 2),
    lambda rng: rng.choice(5),
    lambda rng: rng.choice(5, size=2),
    lambda rng: rng.choice(5, size=6, replace=False),
    lambda rng: rng.choice(2**32, size=1, replace=False),
    lambda rng: rng.choice([1.0, 2.0], size=2, replace=False),
    lambda rng: rng.uniform(1.0, 0.0),
    lambda rng: rng.uniform(0.0, float("inf")),
    lambda rng: default_rng(-1),
])
def test_unsupported_call_raises(call):
    with pytest.raises(ValueError):
        call(default_rng(0))


def test_random_space_coordinates_are_frozen():
    want = {
        0: ["3305527/200000000", "40973523/1000000000", "75240141/1000000000",
            "269786713/1000000000", "153914711/500000000", "511136479/1000000000",
            "636961687/1000000000", "34024969/40000000"],
        1: ["4356569/125000000", "36039903/250000000", "311831451/1000000000",
            "63977703/125000000", "205735919/250000000", "869025247/1000000000",
            "474324723/500000000", "59403981/62500000"],
        2**31 - 1: ["38646831/200000000", "135427049/500000000", "6865901/15625000",
                    "511705899/1000000000", "80559671/125000000", "203951931/250000000",
                    "225006283/250000000", "18677989/20000000"],
    }
    for seed, coords in want.items():
        assert [str(c) for c in random_space(8, seed).coords] == coords


def test_verify_instances_are_frozen():
    # the first check of every randomized loop at seed 0
    want = {
        "quantization-bounds": [
            ("q-below-cover", {"system": "binshift-exp-d6", "n": 1, "eps": 0.43,
                               "kind": "lp", "support": 1, "q": 1, "cover": 2})],
        "transport-floor": [
            ("transport-floor", {"instance": 0, "n": 3, "eps": 0.12, "count": 32,
                                 "smaller": 16, "w1": 0.34926647811676315,
                                 "bound": 0.031875, "holds": True})],
        "domination": [
            ("domination", {"pair": 0, "n": 3, "eps": 0.2, "t": "3/4", "kind": "lp",
                            "q_eta": 3, "q_nu": 4})],
        "oracle-equivalence": [
            ("counts-vs-oracle", {"instance": 0, "points": 8, "eps": 0.08500639634339144,
                                  "brute": (3, 3, 3), "sep": 3, "span": 3, "cover": 3}),
            ("transport-vs-oracle", {"instance": 0, "value": 0.425, "brute": 0.425}),
            ("partial-cover-vs-oracle", {"instance": 0, "want": 1, "got": 1})],
    }
    for suite, checks in want.items():
        first = {}
        for check in SUITES[suite](seed=0).checks:
            first.setdefault(check.name, (check.name, check.detail))
        assert list(first.values()) == checks, suite
