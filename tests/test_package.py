import importlib

import pytest

import graphcoupling
from graphcoupling.posterior import PosteriorSampler

#: Dense oracles and single-case wrappers that no fit, init, score, plot
#: or diagnose calls, by the module that defined them.  tests/oracles.py
#: keeps those the tests compare against.
NOT_IN_THE_LIBRARY = [
    ("ccpca", "averaged_projector"),
    ("graph", "cc_projector"),
    ("evaluation", "neighbor_indices"),
    ("evaluation", "kary_agreement"),
    ("posterior", "sample_posterior_graph"),
    ("posterior", "symmetrize_row_affinity"),
    ("posterior", "umap_threshold_prob"),
    ("linalg", "block_sq_dists"),
]


def test_star_import_binds_every_exported_name():
    # A stale entry in __all__ makes the star import itself raise.
    namespace = {}
    exec("from graphcoupling import *", namespace)
    assert [name for name in graphcoupling.__all__ if name not in namespace] == []
    assert len(set(graphcoupling.__all__)) == len(graphcoupling.__all__)


@pytest.mark.parametrize("module, name", NOT_IN_THE_LIBRARY,
                         ids=[f"{module}.{name}" for module, name in NOT_IN_THE_LIBRARY])
def test_test_oracles_are_not_library_names(module, name):
    assert name not in graphcoupling.__all__
    assert not hasattr(graphcoupling, name)
    assert not hasattr(importlib.import_module(f"graphcoupling.{module}"), name)


def test_sampler_draws_only_in_batches():
    # draws([rng])[0] is the one-generator draw.
    assert not hasattr(PosteriorSampler, "draw")
