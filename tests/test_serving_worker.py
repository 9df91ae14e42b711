"""The serving worker's synchronous batch loop, driven in-process.

:func:`repro.serving.worker._serve` reads request tuples from one queue and
writes response tuples to another.  These tests hand it plain
:class:`queue.Queue` objects holding a whole burst that ends in a shutdown
message, run the loop to completion on the test thread, and check every
response — no worker processes involved.
"""

from __future__ import annotations

import queue
import time

import numpy as np

from repro.core.qsvt_solver import QSVTLinearSolver
from repro.engine import CompiledSolverCache
from repro.linalg import random_matrix_with_condition_number, random_rhs
from repro.serving.worker import (
    MSG_DRAIN,
    MSG_SHUTDOWN,
    MSG_SOLVE,
    MSG_STATS,
    WorkerConfig,
    _serve,
)

KAPPA = 4.0
PARAMS = {"epsilon_l": 1e-2, "backend": "ideal", "kappa": KAPPA}


def _system(seed: int, n: int = 8):
    return random_matrix_with_condition_number(n, KAPPA, rng=seed)


def _solve(request_id, matrix, rhs, **params):
    return (MSG_SOLVE, request_id, matrix, rhs, {**PARAMS, **params})


def _run(messages, **config):
    """Serve ``messages`` plus a final shutdown; return the responses."""
    requests, responses = queue.Queue(), queue.Queue()
    for message in [*messages, (MSG_SHUTDOWN, None)]:
        requests.put(message)
    cache = CompiledSolverCache()
    _serve(WorkerConfig(worker_id="worker-test", **config), cache,
           requests, responses)
    answers = []
    while not responses.empty():
        answers.append(responses.get_nowait())
    return answers


def _by_id(answers, kind):
    return {answer[2]: answer for answer in answers if answer[1] == kind}


def test_same_key_burst_is_one_sweep_matching_solve_batch():
    matrix = _system(1)
    stack = np.stack([random_rhs(8, rng=seed) for seed in range(5)])
    answers = _run([_solve(i, matrix, rhs) for i, rhs in enumerate(stack)])
    results = _by_id(answers, "result")
    assert sorted(results) == list(range(5))
    final = answers[-1]
    assert final[1] == "shutdown"
    assert final[3]["batches"] == 1 and final[3]["largest_batch"] == 5
    assert final[3]["requests"] == 5 and final[3]["served"] == 5
    reference = QSVTLinearSolver(matrix, **PARAMS).solve_batch(stack)
    for i, record in enumerate(reference):
        assert np.array_equal(results[i][3]["x"], record.x)
        assert np.array_equal(results[i][3]["direction"], record.direction)


def test_distinct_keys_sweep_separately_and_batches_split():
    matrix_a, matrix_b = _system(2), _system(3)
    rhs = random_rhs(8, rng=4)
    messages = [_solve(i, matrix_a, rhs) for i in range(7)]
    messages += [_solve(10, matrix_b, rhs),
                 _solve(11, matrix_a, rhs, epsilon_l=5e-2)]
    answers = _run(messages, max_batch_size=3)
    assert len(_by_id(answers, "result")) == 9
    stats = answers[-1][3]
    # A at 1e-2: 3 + 3 + 1; B: 1; A at 5e-2: 1
    assert stats["batches"] == 5 and stats["largest_batch"] == 3
    assert stats["cache"]["compiles"] == 3


def test_drain_ack_follows_every_earlier_answer():
    matrix = _system(5)
    rhs = random_rhs(8, rng=6)
    messages = [_solve(i, matrix, rhs) for i in range(3)]
    messages += [(MSG_DRAIN, "drain-1")]
    messages += [_solve(i, matrix, rhs) for i in range(3, 5)]
    answers = _run(messages)
    kinds = [(answer[1], answer[2]) for answer in answers]
    drained_at = kinds.index(("drained", "drain-1"))
    for i in range(3):
        assert kinds.index(("result", i)) < drained_at
    assert answers[drained_at][3]["drains"] == 1
    assert len(_by_id(answers, "result")) == 5


def test_expired_deadline_fails_only_its_own_request():
    matrix = _system(7)
    rhs = random_rhs(8, rng=8)
    answers = _run([
        _solve(0, matrix, rhs),
        _solve(1, matrix, 2 * rhs, deadline_at=time.monotonic() - 1.0),
        _solve(2, matrix, 3 * rhs, deadline_at=time.monotonic() + 60.0),
    ])
    errors, results = _by_id(answers, "error"), _by_id(answers, "result")
    assert sorted(results) == [0, 2] and sorted(errors) == [1]
    assert errors[1][3] == "SolveTimeoutError"
    stats = answers[-1][3]
    assert stats["timeouts"] == 1 and stats["batches"] == 1


def test_bad_rhs_fails_only_itself_in_a_coalesced_burst():
    matrix = _system(9)
    good = random_rhs(8, rng=10)
    answers = _run([_solve(0, matrix, good),
                    _solve(1, matrix, np.zeros(8)),
                    _solve(2, matrix, random_rhs(7, rng=11)),
                    _solve(3, matrix, np.full(8, np.nan)),
                    _solve(4, matrix, 2 * good)])
    errors, results = _by_id(answers, "error"), _by_id(answers, "result")
    assert sorted(results) == [0, 4]
    assert errors[1][3] == "BackendError"
    assert errors[2][3] == "DimensionError"
    assert errors[3][3] == "ValueError"
    assert answers[-1][3]["batches"] == 1
    reference = QSVTLinearSolver(matrix, **PARAMS).solve_batch(
        np.stack([good, 2 * good]))
    assert np.array_equal(results[0][3]["x"], reference[0].x)
    assert np.array_equal(results[4][3]["x"], reference[1].x)


def test_stats_mid_burst_is_answered():
    matrix = _system(12)
    rhs = random_rhs(8, rng=13)
    answers = _run([_solve(0, matrix, rhs), (MSG_STATS, "probe"),
                    _solve(1, matrix, rhs)])
    stats = _by_id(answers, "stats")
    assert list(stats) == ["probe"]
    snapshot = stats["probe"][3]
    assert snapshot["worker_id"] == "worker-test"
    assert snapshot["queue_depth"] >= 1   # the solve joined but unswept
    assert {"requests", "batches", "coalesced_requests", "largest_batch",
            "mean_batch_size", "timeouts", "latency", "cache", "pid",
            "warmed", "heartbeat", "queue_depth"} <= set(snapshot)
    assert len(_by_id(answers, "result")) == 2


def test_shutdown_answers_with_final_stats():
    matrix = _system(14)
    answers = _run([_solve(0, matrix, random_rhs(8, rng=15)),
                    ("bogus", "x")])
    assert answers[0][1:] == ("error", None, "ValueError",
                              "unknown message kind 'bogus'")
    worker_id, kind, request_id, stats = answers[-1]
    assert (worker_id, kind, request_id) == ("worker-test", "shutdown", None)
    assert stats["served"] == 1 and stats["requests"] == 1
    assert stats["latency"]["count"] == 1


def test_unusable_matrix_is_an_error_answer_not_a_crash():
    answers = _run([_solve(0, "not a matrix", np.ones(8))])
    assert answers[0][1] == "error" and answers[0][2] == 0
    assert answers[-1][1] == "shutdown"
