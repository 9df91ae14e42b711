"""Shared fixtures for the test suite.

Expensive objects (anything that solves QSP phase factors or prepares a
circuit-level backend) are session-scoped so the cost is paid once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import PoissonProblem, random_workload
from repro.core import ClassicalLUSolver, QSVTLinearSolver
from repro.linalg import BandedOperator, random_matrix_with_condition_number, random_rhs
from repro.problems import ConvectionDiffusionFamily


@pytest.fixture()
def rng():
    """Fresh deterministic generator for each test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def small_system(rng):
    """A well-conditioned 4x4 system (matrix, rhs, exact solution)."""
    matrix = random_matrix_with_condition_number(4, 5.0, rng=rng)
    rhs = random_rhs(4, rng=rng)
    return matrix, rhs, np.linalg.solve(matrix, rhs)


@pytest.fixture()
def medium_workload():
    """The paper's Sec. IV setting: N = 16, κ = 10, seeded."""
    return random_workload(16, 10.0, rng=7)


@pytest.fixture()
def poisson_problem():
    """An 8-point 1-D Poisson problem (quantum-ready)."""
    return PoissonProblem(8)


@pytest.fixture(scope="session")
def prepared_circuit_solver():
    """A circuit-level QSVT solver prepared once for the whole session.

    Small condition number and loose ε_l keep the polynomial degree low so the
    phase-factor solve stays fast.
    """
    matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
    return QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="circuit")


@pytest.fixture(scope="session")
def prepared_ideal_solver():
    """An ideal-polynomial-backend solver prepared once for the whole session."""
    matrix = random_matrix_with_condition_number(16, 50.0, rng=43)
    return QSVTLinearSolver(matrix, epsilon_l=1e-3, backend="ideal")


def _inner_solver(route: str):
    """A freshly synthesised inner solver for one solve route."""
    dense = random_workload(16, 10.0, rng=7).matrix
    banded = BandedOperator.toeplitz(64, {0: 4.0, 1: -1.0, -1: -1.0})
    if route == "circuit-dense":
        return QSVTLinearSolver(dense, epsilon_l=1e-2, backend="circuit")
    if route == "circuit-banded-plan":
        return QSVTLinearSolver(banded, epsilon_l=1e-2, backend="circuit")
    if route == "ideal-dense":
        return QSVTLinearSolver(dense, epsilon_l=1e-2, backend="ideal")
    if route == "ideal-matrix-free":
        return QSVTLinearSolver(banded, epsilon_l=1e-2, backend="ideal")
    if route == "ideal-dilated-matrix-free":
        system = ConvectionDiffusionFamily().workloads(num_points=12,
                                                       peclet=0.8)[0]
        return QSVTLinearSolver(system.matrix, epsilon_l=1e-3, backend="ideal",
                                kappa=system.condition_number)
    if route == "exact-rng":
        return QSVTLinearSolver(dense, epsilon_l=1e-2, backend="exact", rng=3)
    if route == "classical-lu":
        return ClassicalLUSolver(dense)
    raise ValueError(f"unknown solve route {route!r}")


@pytest.fixture()
def make_inner_solver():
    """Factory of fresh inner solvers by route name, for the tests that pin
    ``solve(b)`` to ``solve_batch(b[None])[0]``.

    Routes: ``circuit-dense``, ``circuit-banded-plan`` (N = 64),
    ``ideal-dense``, ``ideal-matrix-free`` (symmetric ``BandedOperator``),
    ``ideal-dilated-matrix-free`` (non-symmetric convection-diffusion),
    ``exact-rng`` (seeded surrogate) and ``classical-lu``.  Every call
    synthesises anew, so two solvers of a seeded route draw the same noise.
    """
    return _inner_solver


#: a ``ClusterEngine``'s lifecycle counters: event kind, ``stats()`` key,
#: ``healthz()`` key (``None`` = not reported there), ``/metrics`` family.
_FRONTEND_COUNTERS = (
    ("failover", "failovers", "failovers", "repro_cluster_failovers_total"),
    ("redispatch", "redispatched", None, "repro_cluster_redispatched_total"),
    ("hedge_dispatch", "hedged", "hedged", "repro_cluster_hedged_total"),
    ("hedge_win", "hedge_wins", "hedge_wins",
     "repro_cluster_hedge_wins_total"),
    ("worker_death", "worker_deaths", "worker_deaths",
     "repro_cluster_worker_deaths_total"),
    ("worker_respawn", "restarts", "restarts",
     "repro_cluster_restarts_total"),
)


def _total(value):
    """A per-worker ``{worker: n}`` report summed, a scalar as is."""
    return sum(value.values()) if isinstance(value, dict) else value


@pytest.fixture()
def assert_counters_match_events():
    """Checker for a quiescent ``ClusterEngine``: every lifecycle counter
    equals the number of events of its kind on the engine's event log, and
    ``stats()``, ``healthz()`` and ``metrics_snapshot()`` report that same
    number.  Call it once no request is in flight and no respawn pending."""
    from repro.obs.events import count_kinds

    def check(cluster) -> dict:
        counts = count_kinds(cluster.observability.events.events())
        stats = cluster.stats(include_workers=False)
        health = cluster.healthz()
        metrics = cluster.metrics_snapshot(worker_snapshots={})
        for kind, stats_key, health_key, family in _FRONTEND_COUNTERS:
            expected = counts.get(kind, 0)
            assert _total(stats[stats_key]) == expected, kind
            if health_key is not None:
                assert _total(health[health_key]) == expected, kind
            assert sum(metrics[family]["series"].values()) == expected, kind
        return counts

    return check
