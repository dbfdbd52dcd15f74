"""Shared fixtures: the canonical parameter grid and model ensembles."""

import pytest

from minqet.measurement import coefficient_block, random_measurement
from minqet.model import ModelParams, ParamsBlock

# Nine-point log grid used by every ensemble check.
PAIRS = [(h, k) for h in (0.5, 1.0, 2.0) for k in (0.5, 1.0, 2.0)]

OUTCOME_CYCLE = (2, 3, 4, 6)


def case_block(cases):
    """A ParamsBlock and the padded coefficient block (N, n, 4) of (params, model, ...) cases."""
    params, models = zip(*(case[:2] for case in cases))
    return ParamsBlock.of(params), coefficient_block(models)


def model_ensemble(size, seed0=0):
    """size (params, model) pairs, round-robin over the nine (h, k) points."""
    members = []
    for i in range(size):
        h, k = PAIRS[i % len(PAIRS)]
        model = random_measurement(seed=seed0 + i, n_outcomes=OUTCOME_CYCLE[i % 4])
        members.append((ModelParams(h=h, k=k), model))
    return members


@pytest.fixture(scope="session")
def unit_params():
    return ModelParams(h=1.0, k=1.0)


@pytest.fixture(scope="session")
def small_ensemble():
    """Forty models for per-module spot checks; acceptance runs the big ones."""
    return model_ensemble(40)
