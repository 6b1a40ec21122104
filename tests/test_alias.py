import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fane.alias import build_alias
from oracles.alias_reference import alias_sample, implied_probs
from oracles.stat_helpers import chisquare_gof_pvalue


@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_alias_encodes_exact_distribution(weights):
    probs = np.asarray(weights) / np.sum(weights)
    accept, alias = build_alias(probs)
    assert np.allclose(implied_probs(accept, alias), probs, atol=1e-12)


def test_alias_single_bin():
    accept, alias = build_alias(np.array([1.0]))
    assert alias_sample(accept, alias, 0.73, 0.2) == 0


def test_alias_rejects_empty():
    with pytest.raises(ValueError):
        build_alias(np.array([]))


def test_alias_sampling_chi_square():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(8))
    accept, alias = build_alias(probs)
    n = 100_000
    u = rng.random((n, 2))
    k = len(probs)
    j = np.minimum((u[:, 0] * k).astype(np.int64), k - 1)
    take = u[:, 1] < accept[j]
    draws = np.where(take, j, alias[j])
    counts = np.bincount(draws, minlength=k)
    assert chisquare_gof_pvalue(counts, probs) > 0.01
