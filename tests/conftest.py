"""Shared fixtures: the canonical parameter grid, model ensembles and block helpers."""

import dataclasses
import types

import numpy as np
import pytest

from minqet import entanglement, protocol
from minqet.measurement import coefficient_block, kraus_operators, random_measurement
from minqet.model import ModelParams, ParamsBlock, ground_state

# Nine-point log grid used by every ensemble check.
PAIRS = [(h, k) for h in (0.5, 1.0, 2.0) for k in (0.5, 1.0, 2.0)]

OUTCOME_CYCLE = (2, 3, 4, 6)


def case_block(cases):
    """A ParamsBlock and the padded coefficient block (N, n, 4) of (params, model, ...) cases."""
    params, models = zip(*(case[:2] for case in cases))
    return ParamsBlock.of(params), coefficient_block(models)


def policy_table(policies, n):
    """Angles (N, n) and axes (N, n, 3) of policies given as (omega, nx, ny, nz) rows.

    Each policy is padded to n outcomes with the identity, no turn about the y axis.
    """
    pad = [(0.0, 0.0, 1.0, 0.0)]
    table = np.array([list(rows) + pad * (n - len(rows)) for rows in policies], dtype=float)
    return table[..., 0], table[..., 1:]


def run_batch(cases):
    """``run_many``'s columns for (params, model, policy rows) cases."""
    block, coeffs = case_block(cases)
    table = policy_table([case[2] for case in cases], coeffs.shape[1])
    return protocol.run_many(block, coeffs, *table)


def case_report(columns, i, n):
    """Case i of ``run_many``'s columns as plain numbers, its outcome rows cut to n outcomes."""
    case = {f.name: getattr(columns, f.name)[i].tolist() for f in dataclasses.fields(columns)}
    case["per_outcome"] = case["per_outcome"][:n]
    case["reduced_eigenvalues"] = case["reduced_eigenvalues"][:n]
    return types.SimpleNamespace(**case)


def consumption_columns(cases):
    """``consumption_block`` of (params, model) cases, their kets M|g> zero-padded to n outcomes."""
    ground = np.array([ground_state(params) for params, _ in cases])
    kets = np.zeros((len(cases), max(model.n_outcomes for _, model in cases), 4), dtype=complex)
    for i, (_, model) in enumerate(cases):
        kets[i, : model.n_outcomes] = kraus_operators(model.rows) @ ground[i]
    return entanglement.consumption_block(ground, kets)


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
