"""Problem suite + autotuner: families, chains, registry, profiles.

Covers the acceptance criteria of the problem-suite subsystem:

* every family's workloads carry classically exact solutions and (where the
  spectrum is known) an analytic condition number that agrees with the
  measured SVD value;
* families run end-to-end through ``build_scenario`` → ``ScenarioRunner``
  and their results match the exact solutions;
* time-stepping chains share one fingerprint, so a chain of T steps costs
  exactly one synthesis (cache hit rate (T-1)/T);
* the autotuner's fresh choice equals the cost-model optimum, adapts on
  telemetry in both directions, and round-trips through its on-disk store;
* the scenario registry suggests close matches and rejects duplicates.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cost_model import (
    optimal_epsilon_l,
    predicted_kappa,
    refinement_block_encoding_calls,
)
from repro.engine import (
    Autotuner,
    ProfileStore,
    JobResult,
    RunReport,
    ScenarioRunner,
    SolveJob,
    build_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)
from repro.problems import (
    PROBLEM_FAMILIES,
    GraphLaplacianFamily,
    HeatEquationChainFamily,
    default_epsilon_l,
    lanczos_tridiagonal,
    spectrum_profile,
)
from repro.problems.graphs import _random_regular_adjacency
from repro.utils import matrix_fingerprint

NEW_FAMILIES = ("poisson-2d", "poisson-3d", "heat-chain",
                "convection-diffusion", "helmholtz", "graph-laplacian",
                "prescribed-spectrum")


# ---------------------------------------------------------------------- #
# family construction
# ---------------------------------------------------------------------- #
def test_new_families_registered():
    registered = list_scenarios()
    for name in NEW_FAMILIES:
        assert name in registered
        assert name in PROBLEM_FAMILIES
        assert registered[name]  # non-empty description
    # the applications-level accessor exposes a *copy* of the same suite
    from repro.applications import problem_suite

    suite = problem_suite()
    assert suite == PROBLEM_FAMILIES
    suite.clear()
    assert PROBLEM_FAMILIES  # caller mutations cannot reach the registry


@pytest.mark.parametrize("name", NEW_FAMILIES)
def test_workloads_carry_exact_solutions(name):
    for workload in PROBLEM_FAMILIES[name].workloads():
        residual = np.linalg.norm(workload.matrix @ workload.solution
                                  - workload.rhs)
        assert residual <= 1e-9 * np.linalg.norm(workload.rhs)
        assert workload.condition_number >= 1.0


@pytest.mark.parametrize("name,params", [
    ("poisson-2d", {"grid_points": 4}),
    ("poisson-3d", {"grid_points": 2}),
    ("heat-chain", {"num_points": 16, "dt": 1e-3}),
    ("helmholtz", {"num_points": 16}),
    ("graph-laplacian", {"topology": "path", "num_nodes": 16}),
    ("graph-laplacian", {"topology": "cycle", "num_nodes": 16}),
    ("graph-laplacian", {"topology": "grid", "num_nodes": 16}),
    ("prescribed-spectrum", {"dimension": 16, "condition_number": 50.0}),
    ("prescribed-spectrum", {"dimension": 8, "condition_number": 20.0,
                             "distribution": "linear"}),
])
def test_analytic_kappa_matches_measured(name, params):
    family = PROBLEM_FAMILIES[name]
    analytic = family.analytic_condition_number(**params)
    assert analytic is not None
    workload = family.workloads(**params)[0]
    assert workload.condition_number == pytest.approx(analytic)
    assert workload.measured_condition_number() == pytest.approx(
        analytic, rel=1e-7)


def test_kappa_models_registered():
    assert predicted_kappa("poisson-2d", grid_points=4) == pytest.approx(
        PROBLEM_FAMILIES["poisson-2d"].analytic_condition_number(grid_points=4))
    assert predicted_kappa("poisson-1d", num_points=16) == pytest.approx(
        (2.0 * 17 / np.pi) ** 2)
    with pytest.raises(KeyError, match="unknown kappa model"):
        predicted_kappa("no-such-model")
    # random-regular graphs have no closed form: explicit error, not a guess
    with pytest.raises(ValueError, match="no closed form"):
        predicted_kappa("graph-laplacian", topology="random-regular")
    # misspelled/wrong-family parameter names must raise, never silently
    # evaluate the model at its defaults (poisson uses grid_points, not
    # num_points)
    with pytest.raises(TypeError):
        predicted_kappa("poisson-2d", num_points=32)


def test_convection_diffusion_is_nonsymmetric_and_tunable():
    family = PROBLEM_FAMILIES["convection-diffusion"]
    # the structured default assembles a non-symmetric CSR operator;
    # densify to inspect, and cross-check against the dense assembly
    matrix = family.workloads(peclet=0.8)[0].matrix.to_dense()
    assert not np.allclose(matrix, matrix.T)
    np.testing.assert_allclose(
        matrix, family.workloads(peclet=0.8, assembly="dense")[0].matrix)
    symmetric = family.workloads(peclet=0.0)[0].matrix.to_dense()
    np.testing.assert_allclose(symmetric, symmetric.T)
    # larger Péclet, larger asymmetry
    asym = lambda a: np.linalg.norm(a - a.T)  # noqa: E731
    assert asym(family.workloads(peclet=0.9)[0].matrix.to_dense()) > asym(
        family.workloads(peclet=0.1)[0].matrix.to_dense())


def test_helmholtz_is_indefinite_but_invertible():
    workload = PROBLEM_FAMILIES["helmholtz"].workloads()[0]
    # the structured default assembles a banded operator; densify to inspect
    eigenvalues = np.linalg.eigvalsh(workload.matrix.to_dense())
    assert (eigenvalues < 0).any() and (eigenvalues > 0).any()
    assert np.min(np.abs(eigenvalues)) > 1e-8
    assert workload.metadata["indefinite"] is True
    # a negative shift keeps the operator positive definite: flag follows
    definite = PROBLEM_FAMILIES["helmholtz"].workloads(shift=-1.0)[0]
    assert definite.metadata["indefinite"] is False
    with pytest.raises(ValueError, match="singular"):
        # shifting exactly onto an eigenvalue must be rejected
        lam1 = 4.0 * np.sin(np.pi / 34) ** 2
        PROBLEM_FAMILIES["helmholtz"].workloads(shift=lam1)


def test_prescribed_spectrum_is_banded_with_exact_spectrum():
    spectrum = spectrum_profile(16, 50.0, "logarithmic")
    matrix = lanczos_tridiagonal(spectrum, rng=0)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(matrix)),
                               np.sort(spectrum), rtol=1e-9, atol=1e-12)
    off_band = matrix - np.tril(np.triu(matrix, -1), 1)
    assert np.max(np.abs(off_band)) == 0.0
    with pytest.raises(ValueError, match="distinct"):
        lanczos_tridiagonal([1.0, 1.0, 2.0])
    # kappa = 1 collapses every distribution onto repeated eigenvalues:
    # rejected up front with a parameter-level message, not a Lanczos error
    with pytest.raises(ValueError, match="must be > 1"):
        spectrum_profile(8, 1.0)


def test_random_regular_graph_validation():
    gen = np.random.default_rng(0)
    adjacency = _random_regular_adjacency(16, 3, gen)
    np.testing.assert_allclose(adjacency.sum(axis=1), 3.0)
    np.testing.assert_allclose(adjacency, adjacency.T)
    assert np.max(np.abs(np.diag(adjacency))) == 0.0
    with pytest.raises(ValueError, match="even"):
        _random_regular_adjacency(15, 3, gen)
    with pytest.raises(ValueError, match="regularization"):
        GraphLaplacianFamily().workloads(regularization=0.0)


def test_default_epsilon_l_is_kappa_aware():
    assert default_epsilon_l(2.0) == pytest.approx(1e-2)        # ceiling
    assert default_epsilon_l(1000.0) == pytest.approx(1e-4)     # 0.1 / kappa
    for name in NEW_FAMILIES:
        job = build_scenario(name).jobs[0]
        assert job.epsilon_l * job.kappa <= 0.1 + 1e-12


# ---------------------------------------------------------------------- #
# chains: shared fingerprints and cache reuse
# ---------------------------------------------------------------------- #
def test_chain_steps_share_matrix_and_fingerprint():
    chain = HeatEquationChainFamily().chain(num_points=8, num_steps=6)
    assert len(chain) == 6
    assert len({id(w.matrix) for w in chain.workloads}) == 1
    assert {matrix_fingerprint(w.matrix) for w in chain.workloads} == {
        chain.fingerprint}
    for step, workload in enumerate(chain.workloads):
        assert workload.metadata["step"] == step
    # rhs of step k is the solution of step k-1: a genuine time march
    for prev, nxt in zip(chain.workloads, chain.workloads[1:]):
        np.testing.assert_array_equal(nxt.rhs, prev.solution)
    jobs = chain.jobs(backend="ideal")
    assert len({matrix_fingerprint(j.matrix) for j in jobs}) == 1
    assert chain.states.shape == (7, 8)


def test_chain_of_16_steps_costs_one_synthesis():
    scenario = build_scenario("heat-chain", num_steps=16, backend="ideal")
    report = ScenarioRunner(mode="serial").run(scenario.jobs)
    assert all(result.ok and result.converged for result in report)
    cache = report.summary["cache"]
    assert cache["compiles"] == 1
    assert cache["hit_rate"] >= 15.0 / 16.0
    # the quantum march must track the classical trajectory step by step
    workloads = PROBLEM_FAMILIES["heat-chain"].workloads(num_steps=16)
    for result, workload in zip(report, workloads):
        error = (np.linalg.norm(result.x - workload.solution)
                 / np.linalg.norm(workload.solution))
        assert error <= 1e-6


def test_auto_backend_handles_non_power_of_two():
    """backend='auto' (the families' default) must never pick the circuit
    encodings for sizes they cannot represent."""
    from repro.core.qsvt_solver import auto_backend_name

    assert auto_backend_name(1.8, 1e-2, 10) == "ideal"
    assert auto_backend_name(1.8, 1e-2, 16) == "circuit"
    scenario = build_scenario("graph-laplacian", num_nodes=10,
                              regularization=5.0)
    report = ScenarioRunner(mode="serial").run(scenario.jobs)
    assert all(result.ok and result.converged for result in report)


@pytest.mark.parametrize("name", NEW_FAMILIES)
def test_families_run_end_to_end_through_runner(name):
    scenario = build_scenario(name, backend="ideal")
    assert len(scenario.jobs) >= 1
    report = ScenarioRunner(mode="serial").run(scenario.jobs)
    workloads = PROBLEM_FAMILIES[name].workloads()
    for result, workload in zip(report, workloads):
        assert result.ok, result.error
        assert result.converged
        error = (np.linalg.norm(result.x - workload.solution)
                 / np.linalg.norm(workload.solution))
        assert error <= 1e-4


# ---------------------------------------------------------------------- #
# scenario registry error paths
# ---------------------------------------------------------------------- #
def test_build_scenario_suggests_close_matches():
    with pytest.raises(KeyError, match="did you mean 'poisson'"):
        build_scenario("poison")
    with pytest.raises(KeyError, match="heat-chain"):
        build_scenario("heat-chian")
    # nothing close: plain error with the registered list
    with pytest.raises(KeyError, match="registered"):
        build_scenario("zzzzzz")


def test_register_scenario_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_scenario("poisson")(lambda: [])
    try:
        register_scenario("test-dup-family", description="one")(lambda: [])
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("test-dup-family")(lambda: [])
        register_scenario("test-dup-family", description="two",
                          overwrite=True)(lambda: [])
        assert list_scenarios()["test-dup-family"] == "two"
    finally:
        assert unregister_scenario("test-dup-family")
    assert not unregister_scenario("test-dup-family")


# ---------------------------------------------------------------------- #
# autotuner
# ---------------------------------------------------------------------- #
def _fake_report(*, n=4, converged=True, iterations=1, calls=100,
                 hits=3, misses=1, errors=0):
    results = [JobResult(name=f"job{i}", x=np.zeros(2), scaled_residual=1e-9,
                         converged=converged, iterations=iterations,
                         block_encoding_calls=calls, wall_time=0.01)
               for i in range(n - errors)]
    results += [JobResult(name=f"bad{i}", x=None, scaled_residual=float("nan"),
                          converged=False, iterations=0,
                          block_encoding_calls=0, wall_time=0.01,
                          error="RuntimeError: boom")
                for i in range(errors)]
    return RunReport(results, summary={"cache": {
        "hits": hits, "misses": misses, "store_hits": 0}})


def test_choose_matches_cost_model_optimum(tmp_path):
    kappa = float((2.0 * 17 / np.pi) ** 2)     # 1-D Poisson, N = 16
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    config = tuner.choose(kappa=kappa, dimension=16)
    assert config.source == "cost-model"
    assert config.epsilon_l == optimal_epsilon_l(kappa, 1e-8)
    assert config.epsilon_l * kappa < 1.0
    assert config.predicted_block_encoding_calls == pytest.approx(
        refinement_block_encoding_calls(kappa, 1e-8, config.epsilon_l))
    # the optimum must beat any fixed grid value on the model's own metric
    for fixed in (1e-2, 1e-3, 1e-5):
        if fixed * kappa < 1.0:
            assert config.predicted_block_encoding_calls <= (
                refinement_block_encoding_calls(kappa, 1e-8, fixed))


def test_choose_backend_selection(tmp_path):
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-4)
    assert tuner.choose(kappa=3.0, dimension=8).backend == "circuit"
    assert tuner.choose(kappa=3.0, dimension=12).backend == "ideal"   # not 2**n
    assert tuner.choose(kappa=3.0, dimension=256).backend == "ideal"  # too big
    assert tuner.choose(kappa=500.0, dimension=16).backend == "ideal"  # degree
    with pytest.raises(ValueError, match="kappa"):
        tuner.choose(kappa=0.5)
    # a singular matrix measures kappa = inf: clear error, not a crash deep
    # inside the candidate grid
    with pytest.raises(ValueError, match="finite"):
        tuner.choose(kappa=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        tuner.observe("fam", _fake_report(), kappa=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        tuner.tune([SolveJob(name="singular", matrix=np.ones((4, 4)),
                             rhs=np.ones(4), target_accuracy=1e-8)])
    with pytest.raises(ValueError, match="finite"):
        optimal_epsilon_l(float("inf"), 1e-8)


def test_profile_replay_revalidates_convergence(tmp_path):
    """A profile at its own rho ceiling must not replay for a larger kappa."""
    from repro.engine import FamilyProfile

    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    tuner.profiles["fam"] = FamilyProfile(
        family="fam", kappa=50.0, target_accuracy=1e-8,
        epsilon_l=0.5 / 50.0, backend="ideal")
    replay = tuner.choose(kappa=50.0, family="fam")
    assert replay.source == "profile"
    # kappa doubled: replaying would give epsilon_l * kappa = 1 — must fall
    # back to a fresh, convergent cost-model optimisation instead
    fresh = tuner.choose(kappa=100.0, family="fam")
    assert fresh.source == "cost-model"
    assert fresh.epsilon_l * 100.0 < 1.0


def test_observe_keeps_circuit_backend_for_small_problems(tmp_path):
    """The profile's backend must be sized to the problem, not defaulted."""
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-4)
    assert tuner.choose(kappa=3.0, dimension=8).backend == "circuit"
    report = _fake_report()
    for result in report:
        result.x = np.zeros(8)
    profile = tuner.observe("fam", report, kappa=3.0)
    assert profile.backend == "circuit"
    assert tuner.choose(kappa=3.0, dimension=8, family="fam").backend == "circuit"
    # a profile learned at a circuit-eligible size must not force the
    # circuit backend onto a non-power-of-two problem of the same family
    assert tuner.choose(kappa=3.0, dimension=25, family="fam").backend == "ideal"
    # an explicit dimension overrides the inference
    big = tuner.observe("fam2", _fake_report(), kappa=3.0, dimension=256)
    assert big.backend == "ideal"


def test_observe_attributes_telemetry_to_the_run_epsilon_l(tmp_path):
    """Telemetry must anchor on the ε_l the jobs ran with, not the profile's."""
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    kappa = 50.0
    explicit = 2e-3
    profile = tuner.observe("fam", _fake_report(iterations=0, calls=500),
                            kappa=kappa, epsilon_l=explicit)
    assert profile.best_epsilon_l == pytest.approx(explicit)
    # a profile stored for target 1e-8 would not have been replayed for a
    # 1e-6 run: the seed must be the fresh cost-model choice, not the profile
    seeded = tuner.observe("fam", _fake_report(iterations=0, calls=500),
                           kappa=kappa, target_accuracy=1e-6)
    assert seeded.best_epsilon_l == pytest.approx(
        optimal_epsilon_l(kappa, 1e-6))


def test_observe_uses_last_issued_epsilon_l(tmp_path):
    """Re-running un-retuned jobs must not anchor on an adapted profile."""
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    scenario = tuner.tune_scenario("poisson-2d", num_rhs=2)
    issued = scenario.jobs[0].epsilon_l
    kappa = scenario.jobs[0].kappa
    adapted = tuner.observe("poisson-2d", _fake_report(iterations=0),
                            kappa=kappa)
    assert adapted.epsilon_l != issued        # profile moved on...
    again = tuner.observe("poisson-2d", _fake_report(iterations=0, calls=50),
                          kappa=kappa)
    # ...but a second report for the *same issued jobs* anchors at `issued`
    assert again.best_epsilon_l == pytest.approx(issued)


def test_profile_json_is_strict(tmp_path):
    """Fresh profiles carry NaN sentinels; the file must stay valid JSON."""
    path = tmp_path / "autotune.json"
    tuner = Autotuner(path=path, target_accuracy=1e-8)
    profile = tuner.observe("fam", [], kappa=10.0)   # empty report: all NaN
    assert np.isnan(profile.observed_iterations)
    raw = json.loads(path.read_text(encoding="utf-8"))   # strict parse
    assert raw["profiles"]["fam"]["observed_iterations"] is None
    restored = Autotuner(path=path).profile("fam")
    assert np.isnan(restored.observed_iterations)
    assert np.isnan(restored.best_epsilon_l)


def test_cycle_graph_rejects_degenerate_sizes():
    family = GraphLaplacianFamily()
    with pytest.raises(ValueError, match=">= 3 nodes"):
        family.workloads(topology="cycle", num_nodes=2)
    with pytest.raises(ValueError, match=">= 3 nodes"):
        family.analytic_condition_number(topology="cycle", num_nodes=2)
    workload = family.workloads(topology="cycle", num_nodes=3)[0]
    assert workload.measured_condition_number() == pytest.approx(
        workload.condition_number, rel=1e-8)


def test_profile_round_trip_through_store(tmp_path):
    path = tmp_path / "autotune.json"
    tuner = Autotuner(path=path, target_accuracy=1e-8)
    profile = tuner.observe("poisson-2d", _fake_report(), kappa=9.47)
    restored = Autotuner(path=path, target_accuracy=1e-8).profile("poisson-2d")
    assert restored is not None
    assert restored.to_dict() == profile.to_dict()
    # a compatible profile is replayed by choose()
    config = Autotuner(path=path).choose(kappa=9.47, target_accuracy=1e-8,
                                         family="poisson-2d")
    assert config.source == "profile"
    assert config.epsilon_l == profile.epsilon_l


def test_observe_adapts_in_both_directions(tmp_path):
    kappa = 50.0
    base = Autotuner(path=tmp_path / "a.json",
                     target_accuracy=1e-8).choose(kappa=kappa)
    # non-convergence tightens epsilon_l
    tight = Autotuner(path=tmp_path / "b.json", target_accuracy=1e-8).observe(
        "fam", _fake_report(converged=False), kappa=kappa)
    assert tight.epsilon_l < base.epsilon_l
    # overdelivery (iterations far below the bound) relaxes it
    loose = Autotuner(path=tmp_path / "c.json", target_accuracy=1e-8).observe(
        "fam", _fake_report(iterations=0), kappa=kappa)
    assert base.epsilon_l < loose.epsilon_l <= 0.5 / kappa
    assert loose.cache_hit_rate == pytest.approx(0.75)
    assert loose.best_epsilon_l == pytest.approx(base.epsilon_l)
    # errored jobs count against convergence even when the survivors all
    # converged under the bound: the stream failed, so tighten
    partial = Autotuner(path=tmp_path / "d.json", target_accuracy=1e-8).observe(
        "fam", _fake_report(iterations=0, errors=2), kappa=kappa)
    assert partial.epsilon_l < base.epsilon_l
    assert partial.converged_fraction == pytest.approx(0.5)


def test_observe_hill_climb_retreats_on_regression(tmp_path):
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    kappa = 50.0
    first = tuner.observe("fam", _fake_report(iterations=0, calls=100),
                          kappa=kappa)
    # second round measured *more* calls per job: retreat towards the best
    second = tuner.observe("fam", _fake_report(iterations=0, calls=300),
                           kappa=kappa)
    assert second.best_calls_per_job == pytest.approx(100.0)
    assert second.epsilon_l < first.epsilon_l
    assert second.runs == 2


def test_tune_rewrites_jobs_per_kappa(tmp_path):
    scenario = build_scenario("kappa-sweep", dimension=16,
                              kappas=(5.0, 200.0), target_accuracy=1e-8, rng=0)
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    tuned = tuner.tune(scenario.jobs)
    assert [job.name for job in tuned] == [job.name for job in scenario.jobs]
    for job in tuned:
        assert job.metadata["autotuned"] == "cost-model"
        assert job.epsilon_l == optimal_epsilon_l(job.kappa, 1e-8)
    assert tuned[0].epsilon_l > tuned[1].epsilon_l  # looser for smaller kappa


def test_tune_preserves_single_solve_jobs(tmp_path):
    """target_accuracy=None means one QSVT solve at epsilon_l — tuning must
    not silently promote it to full refinement."""
    scenario = build_scenario("poisson-multi-rhs", num_points=8, num_rhs=2,
                              rng=0)  # builder default: target_accuracy=None
    assert scenario.jobs[0].target_accuracy is None
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    tuned = tuner.tune(scenario.jobs)
    for before, after in zip(scenario.jobs, tuned):
        assert after.target_accuracy is None
        assert after.epsilon_l == before.epsilon_l
        assert after.metadata["autotuned"] == "backend-only"


def test_issued_epsilon_l_only_tracked_when_uniform(tmp_path):
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    # heterogeneous kappas -> distinct eps_l per job -> nothing recorded
    sweep = build_scenario("kappa-sweep", dimension=8, kappas=(2.0, 200.0),
                           target_accuracy=1e-8, rng=0)
    tuner.tune(sweep.jobs, family="kappa-sweep")
    assert "kappa-sweep" not in tuner._issued
    # homogeneous family -> recorded
    tuner.tune_scenario("poisson-2d", num_rhs=2)
    assert "poisson-2d" in tuner._issued


def test_tune_scenario_stamps_family(tmp_path):
    tuner = Autotuner(path=tmp_path / "p.json", target_accuracy=1e-8)
    scenario = tuner.tune_scenario("poisson-2d", num_rhs=2)
    assert len(scenario.jobs) == 2
    assert all(job.metadata["family"] == "poisson-2d" for job in scenario.jobs)
    assert all(job.epsilon_l == optimal_epsilon_l(job.kappa, 1e-8)
               for job in scenario.jobs)


def test_profile_store_merges_concurrent_writers(tmp_path):
    """Two tuners sharing one store path must not erase each other."""
    path = tmp_path / "autotune.json"
    a = Autotuner(path=path, target_accuracy=1e-8)
    b = Autotuner(path=path, target_accuracy=1e-8)   # loaded before a saves
    a.observe("poisson-2d", _fake_report(), kappa=9.47)
    b.observe("helmholtz", _fake_report(), kappa=76.9)
    merged = ProfileStore(path).load()
    assert set(merged) == {"poisson-2d", "helmholtz"}


def test_family_registries_stay_consistent(tmp_path):
    """Re-registering a family name must update all three registries."""
    from repro.problems import (HelmholtzFamily, register_problem_family,
                                unregister_problem_family)

    class Custom(HelmholtzFamily):
        name = "test-custom-family"
        description = "custom"

    try:
        register_problem_family(Custom())
        assert "test-custom-family" in list_scenarios()
        assert predicted_kappa("test-custom-family") > 1.0
        # unregister + re-register cycles cleanly (no stale kappa model)
        assert unregister_problem_family("test-custom-family")
        with pytest.raises(KeyError):
            predicted_kappa("test-custom-family")
        register_problem_family(Custom())
        assert predicted_kappa("test-custom-family") > 1.0
    finally:
        unregister_problem_family("test-custom-family")
    assert not unregister_problem_family("test-custom-family")
    assert "test-custom-family" not in list_scenarios()
    # names the suite does not own are never touched: the built-in
    # poisson-1d kappa model survives a bogus unregister...
    assert not unregister_problem_family("poisson-1d")
    assert predicted_kappa("poisson-1d", num_points=16) > 1.0
    # ...and a directly-registered model sharing a no-analytic family's name
    # survives that family's unregistration
    from repro.core import register_kappa_model, unregister_kappa_model
    from repro.problems import ConvectionDiffusionFamily

    class NoKappa(ConvectionDiffusionFamily):
        name = "test-no-kappa"
        description = "no analytic kappa"

    register_problem_family(NoKappa())
    register_kappa_model("test-no-kappa", lambda **kw: 2.0)
    try:
        assert unregister_problem_family("test-no-kappa")
        assert predicted_kappa("test-no-kappa") == pytest.approx(2.0)
    finally:
        unregister_kappa_model("test-no-kappa")

    class Impostor(HelmholtzFamily):
        name = "poisson-1d"
        description = "would clobber the built-in kappa model"

    # ...and a family colliding with it is refused atomically (no scenario
    # half-registered) unless overwrite is explicit
    with pytest.raises(ValueError, match="outside the problem suite"):
        register_problem_family(Impostor())
    assert "poisson-1d" not in list_scenarios()


def test_problem_registration_is_reload_idempotent():
    import importlib

    import repro.problems as problems

    importlib.reload(problems)
    assert set(NEW_FAMILIES) <= set(list_scenarios())
    assert set(NEW_FAMILIES) <= set(problems.PROBLEM_FAMILIES)


def test_profile_store_is_corruption_safe(tmp_path):
    path = tmp_path / "autotune.json"
    path.write_text("{ this is not json", encoding="utf-8")
    assert ProfileStore(path).load() == {}
    path.write_text(json.dumps({"format_version": -1, "profiles": {}}),
                    encoding="utf-8")
    assert ProfileStore(path).load() == {}
    # valid JSON that is not the expected shape is corruption too
    path.write_text("[1, 2]", encoding="utf-8")
    assert ProfileStore(path).load() == {}
    path.write_text(json.dumps({"format_version": 1, "profiles": [1]}),
                    encoding="utf-8")
    assert ProfileStore(path).load() == {}
    # a corrupt store never breaks the tuner, it just starts fresh
    tuner = Autotuner(path=path, target_accuracy=1e-8)
    assert tuner.profiles == {}
    tuner.observe("fam", _fake_report(), kappa=10.0)
    assert Autotuner(path=path).profile("fam") is not None
