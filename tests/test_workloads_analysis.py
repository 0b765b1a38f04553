"""Tests for workload distributions and the analysis helpers."""

import random

import pytest

from repro.apps.workloads import bimodal, constant, lognormal, pareto
from repro.metrics.analysis import (
    duplicate_deliveries,
    prefix_consistency_violations,
)
from tests.conftest import make_cluster


# ----------------------------------------------------------------------
# workload distributions
# ----------------------------------------------------------------------
def test_constant():
    f = constant(500.0)
    assert [f() for _ in range(3)] == [500.0, 500.0, 500.0]
    with pytest.raises(ValueError):
        constant(0)


def test_pareto_mean_and_tail():
    rng = random.Random(1)
    f = pareto(rng, mean=100_000.0, alpha=1.5)
    samples = [f() for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(100_000.0, rel=0.25)
    # Heavy tail: the max dwarfs the median.
    assert max(samples) > 20 * sorted(samples)[len(samples) // 2]
    # All samples at least x_min.
    assert min(samples) >= 100_000.0 * (0.5 / 1.5) - 1e-6


def test_pareto_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        pareto(rng, mean=-1)
    with pytest.raises(ValueError):
        pareto(rng, mean=1, alpha=1.0)


def test_lognormal_mean():
    rng = random.Random(2)
    f = lognormal(rng, mean=50_000.0, sigma=1.0)
    samples = [f() for _ in range(20000)]
    assert sum(samples) / len(samples) == pytest.approx(50_000.0, rel=0.2)
    with pytest.raises(ValueError):
        lognormal(rng, mean=1, sigma=0)


def test_bimodal_proportions():
    rng = random.Random(3)
    f = bimodal(rng, small=1000.0, large=1_000_000.0, p_large=0.1)
    samples = [f() for _ in range(5000)]
    large = sum(1 for s in samples if s == 1_000_000.0)
    assert 0.07 < large / len(samples) < 0.13
    assert set(samples) == {1000.0, 1_000_000.0}
    with pytest.raises(ValueError):
        bimodal(rng, small=0, large=1)
    with pytest.raises(ValueError):
        bimodal(rng, small=1, large=1, p_large=2.0)


# ----------------------------------------------------------------------
# analysis helpers
# ----------------------------------------------------------------------
def test_prefix_consistency_detects_violation():
    good = {"A": [("A", 1), ("B", 1)], "B": [("A", 1), ("B", 1)]}
    assert prefix_consistency_violations(good) == []
    bad = {"A": [("A", 1), ("B", 1)], "B": [("B", 1), ("A", 1)]}
    assert prefix_consistency_violations(bad) == [("A", "B")]


def test_prefix_consistency_ignores_disjoint():
    orders = {"A": [("A", 1)], "B": [("B", 9)]}
    assert prefix_consistency_violations(orders) == []


@pytest.mark.integration
def test_analysis_on_live_cluster(abcd):
    for i in range(6):
        abcd.node("ABCD"[i % 4]).multicast(f"m{i}")
    abcd.run(2.0)
    assert all(len(abcd.listener(n).deliveries) == 6 for n in "ABCD")
    assert duplicate_deliveries(abcd) == {n: 0 for n in "ABCD"}
    assert prefix_consistency_violations(abcd.all_delivery_orders()) == []
