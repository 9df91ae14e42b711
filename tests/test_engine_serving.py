"""Serving-layer tests: shared-memory hand-off, synthesis store, group sweeps.

The serving layer's contract is that none of its shortcuts can change
answers, only costs:

(a) shared-memory segments carry exact bytes, are read-only in workers, and
    are unlinked deterministically (normal exit, error exit, explicit close);
(b) a solver restored from the persistent store solves identically (1e-12)
    to a freshly compiled one, and corrupt/mismatched entries silently fall
    back to recompilation;
(c) the serving worker's group sweep answers same-key requests with one
    fused sweep without changing any result, fails a bad right-hand side
    alone, and propagates shared-sweep failures to every member; asyncio
    callers await the cluster's own futures;
(d) runner telemetry surfaces the per-worker cache/store counters that
    previously died inside the worker processes.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pathlib
import re
import sys
import threading

import numpy as np
import pytest

from repro.core import QSVTLinearSolver
from repro.core.results import SingleSolveRecord
from repro.engine import (
    CompiledSolverCache,
    ScenarioRunner,
    SharedMatrixRegistry,
    SolveJob,
    SynthesisStore,
    TieredSynthesisStore,
    attach_matrix,
    build_scenario,
    detach_all,
    default_store_path,
)
from repro.engine import store as store_module
from repro.exceptions import BackendError, DimensionError
from repro.serving import ClusterEngine
from repro.serving import worker as worker_module
from repro.serving.worker import GroupSweeper, SolveGroup
from repro.linalg import (
    BandedOperator,
    CSROperator,
    random_matrix_with_condition_number,
    random_rhs,
)


def _segment_gone(name: str) -> bool:
    """Whether the shared-memory segment ``name`` no longer exists."""
    shm_dir = pathlib.Path("/dev/shm")
    if shm_dir.is_dir():
        return not (shm_dir / name).exists()
    # non-tmpfs platforms: attaching is the only probe we have
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


# ---------------------------------------------------------------------- #
# (a) shared-memory segment lifecycle
# ---------------------------------------------------------------------- #
def test_publish_attach_roundtrip_and_dedup(rng):
    matrix = rng.standard_normal((8, 8))
    registry = SharedMatrixRegistry()
    try:
        handle = registry.publish(matrix)
        assert handle.shape == (8, 8) and handle.nbytes == matrix.nbytes
        # equal-bytes copy deduplicates onto the same segment
        again = registry.publish(matrix.copy())
        assert again == handle
        assert registry.stats()["segments"] == 1
        assert registry.stats()["copies_saved"] == 1

        view = attach_matrix(handle)
        np.testing.assert_array_equal(view, matrix)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0          # workers get read-only views
        # attaching twice reuses the per-process mapping
        assert attach_matrix(handle) is view
    finally:
        detach_all()
        registry.close()
    assert _segment_gone(handle.segment)


def test_refcounted_release_then_unlink(rng):
    matrix = rng.standard_normal((4, 4))
    registry = SharedMatrixRegistry()
    handle = registry.publish(matrix)
    registry.publish(matrix)                   # refcount 2
    assert registry.release(handle) is False   # still referenced
    assert not _segment_gone(handle.segment)
    assert registry.release(handle) is True    # last reference -> unlink
    assert _segment_gone(handle.segment)
    assert registry.release(handle) is False   # unknown now: no-op
    registry.close()


def test_registry_context_manager_unlinks_on_error(rng):
    matrix = rng.standard_normal((4, 4))
    with pytest.raises(RuntimeError, match="boom"):
        with SharedMatrixRegistry() as registry:
            handle = registry.publish(matrix)
            raise RuntimeError("boom")
    assert _segment_gone(handle.segment)
    # closed registries refuse new segments instead of leaking them
    with pytest.raises(RuntimeError):
        registry.publish(matrix)
    registry.close()  # idempotent


def test_runner_shared_memory_matches_pickle_and_serial():
    jobs = build_scenario("kappa-sweep", dimension=8, kappas=(2.0, 5.0, 8.0),
                          epsilon_l=5e-2, backend="ideal", rng=4).jobs
    serial = ScenarioRunner(mode="serial").run(jobs)
    with ScenarioRunner(mode="process", max_workers=2,
                        use_shared_memory=True) as runner:
        shared = runner.run(jobs)
        names = runner._cluster._registry.segment_names()
        assert len(names) == 3                     # one segment per matrix
    pickled = ScenarioRunner(mode="process", max_workers=2,
                             use_shared_memory=False).run(jobs)
    for name in names:
        assert _segment_gone(name)                 # context exit unlinked all
    for share, pick, ser in zip(shared, pickled, serial):
        assert share.ok and pick.ok and ser.ok
        np.testing.assert_allclose(share.x, ser.x, atol=1e-12, rtol=0)
        np.testing.assert_allclose(pick.x, ser.x, atol=1e-12, rtol=0)
    assert shared.summary["shared_memory"]["segments"] == 3
    assert pickled.summary["shared_memory"] is None


def test_runner_without_context_cleans_up_per_run():
    jobs = build_scenario("poisson-multi-rhs", num_points=8, num_rhs=3,
                          epsilon_l=5e-2, backend="ideal", rng=5).jobs
    runner = ScenarioRunner(mode="process", max_workers=2)
    report = runner.run(jobs)
    assert all(result.ok for result in report)
    # one matrix object across three jobs -> one publish, one segment
    # (the identity memo keeps even the content hash to one per matrix)
    stats = report.summary["shared_memory"]
    assert stats["segments"] == 1 and stats["copies"] == 1
    assert stats["publishes"] == 1
    assert runner._cluster is None


def test_solve_job_requires_matrix_or_handle():
    empty = SolveJob(name="empty", matrix=None, rhs=np.ones(4))
    good = SolveJob(name="good", matrix=np.eye(4) * 2.0, rhs=np.ones(4),
                    backend="exact")
    bad, fine = ScenarioRunner(mode="serial").run([empty, good])
    # a missing matrix fails its own job only
    assert not bad.ok and bad.error and bad.x is None
    assert fine.ok


# ---------------------------------------------------------------------- #
# (b) persistent synthesis store
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["circuit", "ideal"])
def test_store_roundtrip_matches_fresh_compile(tmp_path, backend):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
    rhs = random_rhs(8, rng=1)
    store = SynthesisStore(tmp_path)

    warmer = CompiledSolverCache(store=store)
    compiled = warmer.solver(matrix, epsilon_l=5e-2, backend=backend)
    assert warmer.stats()["compiles"] == 1 and len(store) == 1

    fresh = CompiledSolverCache(store=store)
    restored = fresh.solver(matrix, epsilon_l=5e-2, backend=backend)
    stats = fresh.stats()
    assert stats["compiles"] == 0 and stats["store_hits"] == 1
    assert restored is not compiled
    np.testing.assert_allclose(restored.solve(rhs).x, compiled.solve(rhs).x,
                               atol=1e-12, rtol=0)
    # the restored solver is a full citizen: fingerprinted, sized, described
    assert not restored.is_stale()
    assert restored.payload_bytes() == compiled.payload_bytes()
    assert restored.describe()["backend"] == compiled.describe()["backend"]
    # second lookup through the same cache is a plain in-memory hit
    assert fresh.solver(matrix, epsilon_l=5e-2, backend=backend) is restored
    assert fresh.stats()["hits"] == 1


def test_solver_payload_roundtrip_without_store():
    matrix = random_matrix_with_condition_number(8, 4.0, rng=7)
    rhs = random_rhs(8, rng=8)
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="ideal")
    restored = QSVTLinearSolver.from_payload(solver.export_payload())
    np.testing.assert_allclose(restored.solve(rhs).x, solver.solve(rhs).x,
                               atol=1e-12, rtol=0)
    np.testing.assert_allclose(
        [r.x for r in restored.solve_batch(np.stack([rhs, 2 * rhs]))],
        [r.x for r in solver.solve_batch(np.stack([rhs, 2 * rhs]))],
        atol=1e-12, rtol=0)


def _payload_cases():
    dense = random_matrix_with_condition_number(4, 3.0, rng=13)
    banded = BandedOperator.toeplitz(16, {0: 2.5, 1: -1.0, -1: -1.0})
    nonsym = BandedOperator.toeplitz(16, {0: 3.0, 1: -1.2, -1: -0.6})
    spread = CSROperator.from_dense(3.0 * np.eye(8) + 0.5 * np.eye(8, k=2)
                                    + 0.5 * np.eye(8, k=-2))
    return {"circuit-dense": (dense, "circuit"),
            "circuit-banded-plan": (banded, "circuit"),
            "circuit-densified": (spread, "circuit"),
            "ideal-dense": (dense, "ideal"),
            "ideal-matrix-free": (banded, "ideal"),
            "ideal-matrix-free-nonsym": (nonsym, "ideal")}


_CIRCUIT_META = ["backend", "block", "block_encoding_method", "epsilon_l",
                 "kappa_effective", "phase_residual", "polynomial", "program"]
_IDEAL_META = ["alpha", "backend", "epsilon_l", "kappa_effective", "polynomial"]
_OPERATOR_ARRAYS = ["operator_arr0", "operator_arr1", "operator_arr2"]


@pytest.mark.parametrize("case, meta_keys, array_names", [
    ("circuit-dense", _CIRCUIT_META,
     ["global_phases", "matrix", "phases", "poly_coefficients"]),
    ("circuit-banded-plan", sorted(_CIRCUIT_META + ["operator_state"]),
     ["global_phases"] + _OPERATOR_ARRAYS + ["phases", "poly_coefficients"]),
    ("circuit-densified", _CIRCUIT_META,
     ["global_phases", "matrix", "phases", "poly_coefficients"]),
    ("ideal-dense", _IDEAL_META,
     ["matrix", "poly_coefficients", "svd_sigma", "svd_v", "svd_wh"]),
    ("ideal-matrix-free", sorted(_IDEAL_META + ["operator_state"]),
     _OPERATOR_ARRAYS + ["poly_coefficients"]),
    ("ideal-matrix-free-nonsym", sorted(_IDEAL_META + ["operator_state"]),
     _OPERATOR_ARRAYS + ["poly_coefficients"]),
])
def test_backend_payload_layout_is_pinned(case, meta_keys, array_names):
    # the store format (FORMAT_VERSION 2) is this layout: one shared half
    # (name, eps_l, kappa_eff, polynomial, matrix or operator_state) plus
    # each backend's own; a restored backend exports the identical payload.
    matrix, backend = _payload_cases()[case]
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend=backend)
    payload = solver.backend.export_payload()
    assert sorted(payload["meta"]) == meta_keys
    names = sorted(payload["arrays"])
    assert [n for n in names if not n.startswith("plan")] == array_names
    assert all(re.fullmatch(r"plan\d+_op\d+_(matrix|diagonal)", n)
               for n in names if n.startswith("plan"))
    again = QSVTLinearSolver.from_payload(
        solver.export_payload()).backend.export_payload()
    assert json.dumps(again["meta"], sort_keys=True) == json.dumps(
        payload["meta"], sort_keys=True)
    assert sorted(again["arrays"]) == names
    assert all(np.array_equal(again["arrays"][n], payload["arrays"][n])
               for n in names)


@pytest.mark.parametrize("case", sorted(_payload_cases()))
def test_solver_construction_and_restore_hash_the_matrix_once(case,
                                                               monkeypatch):
    # prepare()/import_payload() hash the matrix they were handed; the
    # solver adopts that digest instead of hashing the same bytes again.
    from repro.core import backends as backends_module
    from repro.core import qsvt_solver as qsvt_solver_module
    from repro.utils import matrix_fingerprint

    calls = []

    def counting(matrix):
        calls.append(type(matrix).__name__)
        return matrix_fingerprint(matrix)

    monkeypatch.setattr(backends_module, "matrix_fingerprint", counting)
    monkeypatch.setattr(qsvt_solver_module, "matrix_fingerprint", counting)
    matrix, backend = _payload_cases()[case]
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend=backend)
    assert len(calls) == 1
    assert solver.fingerprint == matrix_fingerprint(matrix)
    payload = solver.export_payload()
    calls.clear()
    restored = QSVTLinearSolver.from_payload(payload)
    assert len(calls) == 1
    assert restored.fingerprint == matrix_fingerprint(restored.matrix)
    # the structured-to-dense circuit route records the operator it was
    # handed, not its densified copy
    assert not solver.backend.is_stale(solver.matrix)
    assert not solver.is_stale() and not restored.is_stale()


def test_store_corruption_falls_back_to_recompilation(tmp_path):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=9)
    store = SynthesisStore(tmp_path)
    CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2, backend="ideal")
    entry = next(pathlib.Path(tmp_path).glob(f"*{store_module.ENTRY_SUFFIX}"))
    entry.write_bytes(b"this is not an npz archive")

    cache = CompiledSolverCache(store=store)
    solver = cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    assert cache.stats()["compiles"] == 1      # fell back to synthesis
    assert store.stats()["corrupt"] == 1
    assert not solver.is_stale()
    # the corrupt entry was deleted and replaced by the recompilation
    assert len(store) == 1
    fresh = CompiledSolverCache(store=store)
    fresh.solver(matrix, epsilon_l=5e-2, backend="ideal")
    assert fresh.stats()["store_hits"] == 1


def test_store_version_mismatch_is_a_miss(tmp_path, monkeypatch):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=10)
    store = SynthesisStore(tmp_path)
    CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2, backend="ideal")
    monkeypatch.setattr(store_module, "FORMAT_VERSION", 999)
    cache = CompiledSolverCache(store=store)
    cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    assert cache.stats()["compiles"] == 1 and cache.stats()["store_hits"] == 0
    assert store.stats()["corrupt"] == 0       # a miss, not a corruption


def test_store_key_separates_configurations(tmp_path):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=11)
    store = SynthesisStore(tmp_path)
    cache = CompiledSolverCache(store=store)
    cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    cache.solver(matrix, epsilon_l=1e-2, backend="ideal")
    cache.solver(matrix + 1.0, epsilon_l=5e-2, backend="ideal")
    assert len(store) == 3
    assert store.key_for(matrix, epsilon_l=5e-2, backend="ideal") != \
        store.key_for(matrix, epsilon_l=1e-2, backend="ideal")
    assert store.disk_bytes() > 0
    assert store.clear() == 3 and len(store) == 0


def test_store_hits_for_non_float64_matrices(tmp_path):
    # the cache key fingerprints the caller's bytes (any dtype); the solver
    # compiles a float64 copy.  The store must verify entries against the
    # *key* fingerprint, or integer/float32 matrices would never hit and
    # every load would flag phantom corruption.
    matrix = np.diag([4, 3, 2, 1])                 # int64
    store = SynthesisStore(tmp_path)
    CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2,
                                            backend="ideal", kappa=4.0)
    cache = CompiledSolverCache(store=store)
    solver = cache.solver(matrix, epsilon_l=5e-2, backend="ideal", kappa=4.0)
    stats = cache.stats()
    assert stats["store_hits"] == 1 and stats["compiles"] == 0
    assert store.stats()["corrupt"] == 0 and len(store) == 1
    rhs = random_rhs(4, rng=14)
    np.testing.assert_allclose(
        solver.solve(rhs).x, np.linalg.solve(matrix, rhs), atol=0.5)


def test_store_skips_unexportable_backends(tmp_path):
    matrix = random_matrix_with_condition_number(4, 3.0, rng=12)
    store = SynthesisStore(tmp_path)
    cache = CompiledSolverCache(store=store)
    solver = cache.solver(matrix, epsilon_l=5e-2, backend="exact")
    assert solver is not None and len(store) == 0


def test_store_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(store_module.STORE_ENV_VAR, str(tmp_path / "override"))
    assert default_store_path() == tmp_path / "override"
    assert SynthesisStore().path == tmp_path / "override"
    monkeypatch.delenv(store_module.STORE_ENV_VAR)
    assert default_store_path().name == "synthesis"


@pytest.mark.parametrize("case", sorted(_payload_cases()))
def test_store_entry_restores_every_payload_exactly(tmp_path, case):
    # every backend, dense and structured: the restored payload is the
    # exported one bit for bit, and so is the restored solver's answer.
    matrix, backend = _payload_cases()[case]
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend=backend)
    store = SynthesisStore(tmp_path)
    key = (solver.fingerprint, case)
    assert store.save(key, solver)
    restored = store.load(key)
    assert store.stats()["hits"] == 1 and store.stats()["corrupt"] == 0
    exported, again = solver.export_payload(), restored.export_payload()
    assert json.dumps(again["meta"], sort_keys=True) == json.dumps(
        exported["meta"], sort_keys=True)
    assert sorted(again["arrays"]) == sorted(exported["arrays"])
    for name, array in exported["arrays"].items():
        assert again["arrays"][name].dtype == np.asarray(array).dtype
        assert np.array_equal(again["arrays"][name], array)
    rhs = random_rhs(matrix.shape[0], rng=3)
    assert np.array_equal(restored.solve(rhs).x, solver.solve(rhs).x)


def test_store_entry_arrays_restore_exactly_and_read_only():
    rng = np.random.default_rng(5)
    arrays = {
        "plan0_op0_matrix": rng.normal(size=(4, 4))
        + 1j * rng.normal(size=(4, 4)),
        "empty": np.zeros((0, 3)),
        "scalar": np.array(7, dtype=np.int32),
        "fortran": np.asfortranarray(rng.normal(size=(3, 5))),
        "mask": np.array([True, False, True]),
        "big_endian": np.arange(3, dtype=">i8"),
        "tail_empty": np.zeros(0, dtype=np.complex64),
    }
    raw = store_module._encode({"format_version": 3}, arrays)
    header, start = store_module._unpack(raw)
    assert start % 64 == 0
    assert all(spec["offset"] % 64 == 0 for spec in header["arrays"])
    restored = store_module._arrays(raw, start, header["arrays"])
    assert list(restored) == list(arrays)
    for name, array in arrays.items():
        assert restored[name].dtype == array.dtype
        assert restored[name].shape == array.shape
        assert np.array_equal(restored[name], array)
        assert not restored[name].flags.writeable
    assert restored["fortran"].flags.f_contiguous


def test_store_save_refuses_non_numeric_arrays(tmp_path, monkeypatch):
    with pytest.raises(TypeError, match="not numeric"):
        store_module._encode({}, {"blob": np.array([{}], dtype=object)})
    matrix = random_matrix_with_condition_number(4, 3.0, rng=15)
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="ideal")
    payload = solver.export_payload()
    payload["arrays"]["blob"] = np.array(["text"])
    monkeypatch.setattr(solver, "export_payload", lambda: payload)
    store = SynthesisStore(tmp_path)
    assert store.save(("key",), solver) is False
    assert store.stats()["errors"] == 1 and len(store) == 0


def test_tiered_promotion_copies_the_shared_entry_bytes(tmp_path,
                                                        monkeypatch):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=16)
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="circuit")
    shared = SynthesisStore(tmp_path / "shared")
    key = (solver.fingerprint, "promoted")
    assert shared.save(key, solver)

    def no_export(self):
        raise AssertionError("a promotion must not re-export the solver")

    monkeypatch.setattr(QSVTLinearSolver, "export_payload", no_export)
    tiered = TieredSynthesisStore(tmp_path / "local", shared)
    assert tiered.load(key) is not None
    [promoted] = tiered.local._entries()
    [source] = shared._entries()
    assert promoted.name == source.name
    assert promoted.read_bytes() == source.read_bytes()
    assert tiered.load(key) is not None            # now a local hit
    stats = tiered.stats()
    assert stats["promotions"] == 1 and stats["shared_hits"] == 1
    assert stats["local_hits"] == 1 and stats["local"]["stores"] == 1


def test_store_clear_also_removes_legacy_entries(tmp_path):
    matrix = random_matrix_with_condition_number(4, 3.0, rng=17)
    store = SynthesisStore(tmp_path)
    CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2,
                                            backend="ideal")
    (tmp_path / "0123abcd.npz").write_bytes(b"format 2 archive")
    [entry] = store._entries()
    assert len(store) == 1 and store.disk_bytes() == entry.stat().st_size
    assert store.clear() == 2
    assert list(tmp_path.iterdir()) == []


def test_runner_store_skips_synthesis_in_fresh_workers(tmp_path):
    jobs = build_scenario("kappa-sweep", dimension=8, kappas=(2.0, 5.0),
                          epsilon_l=5e-2, backend="ideal", rng=13).jobs
    store = SynthesisStore(tmp_path)
    first = ScenarioRunner(mode="process", max_workers=2, store=store).run(jobs)
    assert all(result.ok for result in first)
    assert len(store) == 2
    # brand-new runner, brand-new worker processes: all restores, no compiles
    second = ScenarioRunner(mode="process", max_workers=2, store=store).run(jobs)
    assert all(result.ok for result in second)
    aggregated = second.summary["cache"]
    assert aggregated["compiles"] == 0
    assert aggregated["store_hits"] == len(jobs)
    for a, b in zip(first, second):
        np.testing.assert_allclose(a.x, b.x, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------- #
# (c) the serving worker's group sweep
# ---------------------------------------------------------------------- #
def _sweep_group(matrix, rhs_list, *, backend="ideal") -> SolveGroup:
    """One same-key group, each member's token its index."""
    group = SolveGroup(matrix, 5e-2, backend, None, None, {})
    for index, rhs in enumerate(rhs_list):
        group.add(rhs, index)
    return group


@pytest.mark.parametrize("backend", ["ideal", "circuit"])
def test_sweep_coalesces_same_key_members(backend):
    # K same-key members cost one fused solve_batch sweep and one synthesis,
    # and every answer is the one-at-a-time solve's to 1e-12.
    matrix = random_matrix_with_condition_number(8, 4.0, rng=20)
    batch = [random_rhs(8, rng=seed) for seed in range(8)]
    sweeper = GroupSweeper(CompiledSolverCache())
    records = sweeper.sweep(_sweep_group(matrix, batch, backend=backend))
    stats = sweeper.stats()
    assert stats["requests"] == 8
    assert stats["batches"] == 1 and stats["largest_batch"] == 8
    assert stats["cache"]["compiles"] == 1
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend=backend)
    for record, rhs in zip(records, batch):
        assert isinstance(record, SingleSolveRecord)
        np.testing.assert_allclose(record.x, solver.solve(rhs).x,
                                   atol=1e-12, rtol=0)


def test_sweep_shared_failure_reaches_every_member():
    sweeper = GroupSweeper(CompiledSolverCache())
    results = sweeper.sweep(_sweep_group(np.zeros((8, 8)),
                                         [random_rhs(8, rng=26)] * 3))
    assert len(results) == 3
    assert all(isinstance(result, Exception) for result in results)
    assert sweeper.stats()["batches"] == 0


@pytest.mark.parametrize("bad_rhs, error", [
    (np.zeros(8), BackendError),
    (np.ones(7), DimensionError),
    (np.array([1.0, np.inf, 0, 0, 0, 0, 0, 0]), ValueError),
])
def test_sweep_bad_rhs_fails_only_its_own_member(bad_rhs, error):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=28)
    good = random_rhs(8, rng=29)
    sweeper = GroupSweeper(CompiledSolverCache())
    record, failure = sweeper.sweep(_sweep_group(matrix, [good, bad_rhs]))
    assert isinstance(failure, error)
    assert isinstance(record, SingleSolveRecord)
    stats = sweeper.stats()
    assert stats["batches"] == 1 and stats["largest_batch"] == 1
    reference = sweeper.cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    assert np.array_equal(record.x, reference.solve(good).x)


def test_async_sequential_requests_still_answer():
    # asyncio callers await the cluster's own futures; awaited one at a
    # time, each request is its worker's whole turn: one sweep apiece
    matrix = random_matrix_with_condition_number(8, 4.0, rng=25)
    batch = [random_rhs(8, rng=seed) for seed in range(3)]
    with ClusterEngine(num_workers=1, event_log_path=False) as cluster:
        async def main():
            return [await asyncio.wrap_future(cluster.submit(
                matrix, rhs, epsilon_l=5e-2, backend="ideal", kappa=4.0))
                for rhs in batch]

        records = asyncio.run(main())
        stats = cluster.worker_stats()["worker-0"]
    assert stats["batches"] == 3 and stats["coalesced_requests"] == 0
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="ideal",
                              kappa=4.0)
    for record, rhs in zip(records, batch):
        np.testing.assert_allclose(record.x, solver.solve(rhs).x,
                                   atol=1e-12, rtol=0)


def test_group_sweeper_counts_concurrent_sweeps_exactly():
    # the engine_* series are registry primitives: every counter update
    # must survive a thread switch at any bytecode.
    matrix = random_matrix_with_condition_number(8, 4.0, rng=30)
    sweeper = GroupSweeper(CompiledSolverCache())
    threads, sweeps = 8, 25

    def run():
        for seed in range(sweeps):
            group = SolveGroup(matrix, 5e-2, "ideal", None, None, {})
            group.add(random_rhs(8, rng=seed), None)
            assert isinstance(sweeper.sweep(group)[0], SingleSolveRecord)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(switch)
    stats = sweeper.stats()
    assert stats["requests"] == stats["batches"] == threads * sweeps
    assert stats["latency"]["count"] == threads * sweeps
    assert stats["largest_batch"] == 1 and stats["cache"]["compiles"] == 1


# ---------------------------------------------------------------------- #
# (d) runner telemetry and worker thread pinning
# ---------------------------------------------------------------------- #
def test_run_report_summary_serial_mode():
    jobs = build_scenario("poisson-multi-rhs", num_points=8, num_rhs=4,
                          epsilon_l=5e-2, backend="ideal", rng=30).jobs
    report = ScenarioRunner(mode="serial").run(jobs)
    assert isinstance(report, list) and len(report) == 4
    summary = report.summary
    assert summary["jobs"] == 4 and summary["ok"] == 4 and summary["failed"] == 0
    assert summary["jobs_per_sec"] > 0
    # one matrix, four jobs: the shared cache saw 1 compile + 3 hits
    assert summary["cache"]["compiles"] == 1 and summary["cache"]["hits"] == 3
    assert "plan_cache" in summary
    empty = ScenarioRunner(mode="serial").run([])
    assert empty == [] and empty.summary["jobs"] == 0


def test_run_report_summary_process_mode_aggregates_workers():
    jobs = build_scenario("poisson-multi-rhs", num_points=8, num_rhs=6,
                          epsilon_l=5e-2, backend="ideal", rng=31).jobs
    report = ScenarioRunner(mode="process", max_workers=2).run(jobs)
    summary = report.summary
    assert summary["workers"] == 2
    aggregated = summary["cache"]
    # one distinct matrix has one owner, which compiles it once
    assert aggregated["compiles"] == 1
    # six single-solve jobs are six requests; each fused sweep is one
    # lookup in the owner's cache
    assert summary["sweeps"]["requests"] == 6
    assert aggregated["hits"] + aggregated["misses"] == \
        summary["sweeps"]["batches"]
    assert set(summary["worker_cache_stats"]) == {"worker-0", "worker-1"}
    assert {result.worker["worker"] for result in report} <= set(
        summary["worker_cache_stats"])


def test_process_mode_sends_one_request_per_inner_solve():
    # Fig. 1 accounting: Algorithm 2 runs in the caller, so a refinement
    # of k iterations is exactly k + 1 solve requests to the workers, and
    # each distinct matrix crosses the process boundary once.
    jobs = build_scenario("kappa-sweep", dimension=8, kappas=(2.0, 5.0, 8.0),
                          epsilon_l=5e-2, backend="ideal", rng=4).jobs
    serial = ScenarioRunner(mode="serial").run(jobs)
    report = ScenarioRunner(mode="process", max_workers=2).run(jobs)
    assert all(result.ok and result.converged for result in report)
    assert [r.iterations for r in report] == [r.iterations for r in serial]
    assert report.summary["sweeps"]["requests"] == sum(
        result.iterations + 1 for result in report)
    assert report.summary["shared_memory"]["publishes"] == len(jobs)


def test_process_mode_survives_a_worker_death(kill_worker, monkeypatch):
    # the owner of the jobs' one matrix is killed just before the tenth
    # inner solve is submitted, so that solve and the ones after it are
    # queued on a dead worker.  It is respawned and its requests
    # redispatched: every job still answers (or fails with its own error),
    # and run() does not raise.
    jobs = build_scenario("poisson-multi-rhs", num_points=16, num_rhs=8,
                          epsilon_l=5e-2, target_accuracy=1e-10,
                          backend="ideal", rng=33).jobs
    with ScenarioRunner(mode="process", max_workers=2) as runner:
        cluster = runner._cluster
        owner = cluster.route(jobs[0].matrix)
        submit, calls = cluster.submit, itertools.count()

        def kill_then_submit(*args, **kwargs):
            if next(calls) == 9:
                kill_worker(cluster, owner)
            return submit(*args, **kwargs)

        monkeypatch.setattr(cluster, "submit", kill_then_submit)
        report = runner.run(jobs)
        assert next(calls) > 10                  # the kill was mid-run
        assert len(report) == len(jobs)
        assert all(result.ok or result.error for result in report)
        assert cluster.stats(include_workers=False)["worker_deaths"] == 1
        # the killed incarnation's requests still count: one per inner solve
        assert report.summary["sweeps"]["requests"] == sum(
            result.iterations + 1 for result in report)
    serial = ScenarioRunner(mode="serial").run(jobs)
    for par, ser in zip(report, serial):
        if par.ok:
            np.testing.assert_allclose(par.x, ser.x, atol=1e-12, rtol=0)


def test_thread_pinning_initializer_and_validation(monkeypatch):
    for var in worker_module._THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    worker_module._limit_worker_threads(3)
    for var in worker_module._THREAD_ENV_VARS:
        assert os.environ[var] == "3"
    for var in worker_module._THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    worker_module._limit_worker_threads(None)   # no-op
    assert worker_module._THREAD_ENV_VARS[0] not in os.environ
    with pytest.raises(ValueError):
        ScenarioRunner(threads_per_worker=0)
    assert ScenarioRunner(threads_per_worker=None).threads_per_worker is None


def test_process_mode_with_pinned_threads_matches_serial():
    jobs = build_scenario("kappa-sweep", dimension=8, kappas=(2.0, 5.0),
                          epsilon_l=5e-2, backend="ideal", rng=32).jobs
    serial = ScenarioRunner(mode="serial").run(jobs)
    pinned = ScenarioRunner(mode="process", max_workers=2,
                            threads_per_worker=2).run(jobs)
    assert pinned.summary["threads_per_worker"] == 2
    for par, ser in zip(pinned, serial):
        assert par.ok and ser.ok
        np.testing.assert_allclose(par.x, ser.x, atol=1e-12, rtol=0)
