"""Cost-model-driven configuration: pick ε_l, backend and refinement target.

Every job the engine runs has three free knobs — the inner accuracy ``ε_l``
(which sets the Eq.-(4) polynomial degree *and* the Theorem III.1 iteration
count), the simulation backend, and the refinement target — and PRs 1–3
simply inherited the paper's ``ε_l = 10⁻²`` default.  That default is wrong
for most of the problem suite: it diverges outright for ``κ > 100`` and
wastes block-encoding calls for small κ.  :class:`Autotuner` closes the loop:

* **cost model** (Table I): :func:`repro.core.cost_model.optimal_epsilon_l`
  minimises total block-encoding calls (number of solves × polynomial
  degree) over the admissible ``ε_l κ < 1`` grid;
* **backend selection**: circuit-level simulation when the predicted degree
  and the problem size allow it (the same thresholds the solver's ``"auto"``
  mode applies), the ideal-polynomial backend otherwise;
* **live telemetry**: :meth:`Autotuner.observe` folds a
  :class:`~repro.engine.runner.RunReport` back into a per-family profile —
  measured iteration counts tighten ε_l when the model was optimistic, and
  cache/store hit rates ride along for reporting;
* **persistence**: profiles live in a JSON file next to the synthesis store
  (``~/.cache/repro/autotune.json``, override via ``REPRO_AUTOTUNE_STORE``),
  so a restarted service starts from what previous runs learned.

>>> tuner = Autotuner(path=tmp)
>>> jobs = tuner.tune_scenario("poisson-2d", num_rhs=8).jobs
>>> report = ScenarioRunner(mode="serial").run(jobs)
>>> tuner.observe("poisson-2d", report, kappa=jobs[0].kappa)
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..core.convergence import iteration_bound
from ..core.cost_model import (
    epsilon_l_candidates,
    optimal_epsilon_l,
    refinement_block_encoding_calls,
)
from ..core.qsvt_solver import auto_backend_name
from ..utils import atomic_write, is_power_of_two
from .runner import SolveJob
from .store import default_store_path

__all__ = [
    "TunedConfig",
    "FamilyProfile",
    "ProfileStore",
    "Autotuner",
    "default_profile_path",
]

#: environment variable overriding the default profile-store location.
PROFILE_ENV_VAR = "REPRO_AUTOTUNE_STORE"

#: bump when the profile schema changes; mismatched files load as empty.
PROFILE_FORMAT_VERSION = 1


def default_profile_path() -> pathlib.Path:
    """Profile file next to the synthesis store (see module docstring)."""
    env = os.environ.get(PROFILE_ENV_VAR)
    if env:
        return pathlib.Path(env).expanduser()
    return default_store_path().parent / "autotune.json"


@dataclass(frozen=True)
class TunedConfig:
    """One tuned solver configuration for a ``(κ, ε)`` problem."""

    #: inner (single-solve) accuracy of the QSVT solver.
    epsilon_l: float
    #: backend name (``"circuit"`` or ``"ideal"``).
    backend: str
    #: refinement target ``ε`` on the scaled residual.
    target_accuracy: float
    #: condition number the choice was made for.
    kappa: float
    #: Theorem III.1 iteration bound at this ``(κ, ε, ε_l)``.
    predicted_iterations: int
    #: Table I total block-encoding calls of the refined solve.
    predicted_block_encoding_calls: float
    #: ``"cost-model"`` (fresh optimisation) or ``"profile"`` (replayed).
    source: str


@dataclass
class FamilyProfile:
    """What the autotuner knows about one problem family.

    The prediction fields come from the cost model; the ``observed_*`` /
    rate fields are telemetry folded in by :meth:`Autotuner.observe` over
    ``runs`` observations.
    """

    family: str
    kappa: float
    target_accuracy: float
    epsilon_l: float
    backend: str
    predicted_iterations: int = 0
    observed_iterations: float = float("nan")
    converged_fraction: float = float("nan")
    cache_hit_rate: float = float("nan")
    store_hit_rate: float = float("nan")
    total_block_encoding_calls: int = 0
    runs: int = 0
    #: cheapest configuration measured so far (the hill-climb's anchor).
    best_epsilon_l: float = float("nan")
    best_calls_per_job: float = float("nan")

    #: float fields whose NaN sentinel is serialised as JSON ``null`` (bare
    #: ``NaN`` tokens are not standard JSON; jq and strict parsers reject them).
    _NAN_FIELDS = ("observed_iterations", "converged_fraction",
                   "cache_hit_rate", "store_hit_rate", "best_epsilon_l",
                   "best_calls_per_job")

    def to_dict(self) -> dict:
        data = asdict(self)
        for field in self._NAN_FIELDS:
            if isinstance(data[field], float) and np.isnan(data[field]):
                data[field] = None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FamilyProfile":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        for field in cls._NAN_FIELDS:
            if known.get(field) is None:
                known[field] = float("nan")
        return cls(**known)


class ProfileStore:
    """Atomic, corruption-safe JSON persistence for family profiles."""

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = (pathlib.Path(path) if path is not None
                     else default_profile_path())
        self._lock = threading.Lock()

    def load(self) -> dict[str, FamilyProfile]:
        """Read every stored profile; any failure loads as an empty store.

        A profile is a *hint*, never a correctness input — unreadable or
        version-mismatched files cost a re-tune, nothing more.
        """
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            if raw.get("format_version") != PROFILE_FORMAT_VERSION:
                return {}
            return {name: FamilyProfile.from_dict(entry)
                    for name, entry in raw.get("profiles", {}).items()}
        except Exception:  # noqa: BLE001 - "any failure" is the contract
            return {}

    def save(self, profiles: dict[str, FamilyProfile]) -> bool:
        """Atomically merge ``profiles`` into the store; returns success.

        The on-disk contents are re-read and merged *per family* (the
        caller's entries win) before the atomic replace, so concurrent
        :class:`Autotuner` instances sharing one store path usually keep
        each other's families.  The read-merge-replace is serialised only
        within this process (``threading.Lock``); two *processes* saving in
        the same instant can still race, losing one writer's families for
        that save — an accepted trade-off for a hint store whose worst
        failure is a re-tune.
        """
        with self._lock:
            merged = {**self.load(), **profiles}
            document = {
                "format_version": PROFILE_FORMAT_VERSION,
                "profiles": {name: profile.to_dict()
                             for name, profile in merged.items()},
            }
            text = json.dumps(document, indent=2, allow_nan=False) + "\n"
            try:
                atomic_write(self.path, text)
            except OSError:
                return False
        return True


class Autotuner:
    """Choose per-problem solver configurations from cost model + telemetry.

    Parameters
    ----------
    path:
        Profile-store location (default: :func:`default_profile_path`).
    target_accuracy:
        Refinement target ``ε`` used when a job does not carry one.
    rho_max:
        Convergence margin: candidate ``ε_l`` satisfy ``ε_l κ <= rho_max``.
    objective:
        Cost-model objective passed to
        :func:`~repro.core.cost_model.optimal_epsilon_l`.
    use_profiles:
        Whether :meth:`choose` may replay a stored family profile instead of
        re-optimising (fresh optimisation is always used when no compatible
        profile exists).
    autosave:
        Persist profiles after every :meth:`observe` call.
    """

    def __init__(self, *, path: str | os.PathLike | None = None,
                 target_accuracy: float = 1e-8, rho_max: float = 0.5,
                 objective: str = "block-encoding-calls",
                 use_profiles: bool = True, autosave: bool = True) -> None:
        if not 0.0 < target_accuracy < 1.0:
            raise ValueError("target_accuracy must be in (0, 1)")
        if not 0.0 < rho_max < 1.0:
            raise ValueError("rho_max must be in (0, 1)")
        self.target_accuracy = float(target_accuracy)
        self.rho_max = float(rho_max)
        self.objective = objective
        self.use_profiles = bool(use_profiles)
        self.autosave = bool(autosave)
        self.store = ProfileStore(path)
        self.profiles: dict[str, FamilyProfile] = self.store.load()
        #: ε_l most recently handed out per family by :meth:`tune` /
        #: :meth:`tune_scenario` — what the next report presumably ran with.
        self._issued: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # configuration choice
    # ------------------------------------------------------------------ #
    def choose(self, *, kappa: float, target_accuracy: float | None = None,
               dimension: int | None = None,
               family: str | None = None) -> TunedConfig:
        """Tuned ``(ε_l, backend, ε)`` for a problem of condition number κ.

        A stored profile for ``family`` is replayed when it was learned for
        a compatible problem (same target, κ within a factor of two);
        otherwise the Table I optimisation runs fresh.
        """
        kappa = float(kappa)
        if not np.isfinite(kappa) or not 1.0 <= kappa < 1e15:
            raise ValueError(
                "kappa must be a finite value in [1, 1e15): a singular or "
                "numerically singular matrix cannot be tuned")
        epsilon = float(target_accuracy if target_accuracy is not None
                        else self.target_accuracy)
        profile = self.profiles.get(family) if (family and self.use_profiles) else None
        # replay only while the profile's ε_l still honours this tuner's
        # convergence margin *at the requested κ* — a profile learned at a
        # smaller κ may sit right at its own ceiling rho_max/κ_profile, and
        # replaying it against a larger κ would hand out ε_l κ >= 1.
        if (profile is not None and profile.target_accuracy == epsilon
                and 0.5 <= profile.kappa / kappa <= 2.0
                and profile.epsilon_l * kappa <= self.rho_max):
            return TunedConfig(
                epsilon_l=profile.epsilon_l,
                # the backend rule is deterministic in (κ, ε_l, N): re-derive
                # it at *this* problem's size — the profile may have been
                # learned at a circuit-eligible dimension this one is not.
                backend=(profile.backend if dimension is None
                         else self._pick_backend(kappa, profile.epsilon_l,
                                                 dimension)),
                target_accuracy=epsilon, kappa=kappa,
                # both predictions at the *requested* κ (the replay window
                # tolerates a 2x κ mismatch; the profile's own numbers
                # describe the κ it was learned at).
                predicted_iterations=iteration_bound(
                    epsilon, profile.epsilon_l, kappa),
                predicted_block_encoding_calls=refinement_block_encoding_calls(
                    kappa, epsilon, profile.epsilon_l),
                source="profile")
        epsilon_l = optimal_epsilon_l(
            kappa, epsilon, objective=self.objective,
            candidates=epsilon_l_candidates(kappa, epsilon,
                                            rho_max=self.rho_max))
        return TunedConfig(
            epsilon_l=epsilon_l,
            backend=self._pick_backend(kappa, epsilon_l, dimension),
            target_accuracy=epsilon, kappa=kappa,
            predicted_iterations=iteration_bound(epsilon, epsilon_l, kappa),
            predicted_block_encoding_calls=refinement_block_encoding_calls(
                kappa, epsilon, epsilon_l),
            source="cost-model")

    def _pick_backend(self, kappa: float, epsilon_l: float,
                      dimension: int | None) -> str:
        """Circuit simulation when degree and size permit, ideal otherwise.

        Delegates to the solver's own ``"auto"`` rule
        (:func:`repro.core.qsvt_solver.auto_backend_name`) but decides
        *before* synthesis — jobs carry an explicit backend name, which keeps
        cache keys stable across processes.  Non-power-of-two sizes cannot
        use the circuit encodings at all.
        """
        if dimension is None or not is_power_of_two(int(dimension)):
            return "ideal"
        return auto_backend_name(kappa, epsilon_l, int(dimension))

    # ------------------------------------------------------------------ #
    # job rewriting
    # ------------------------------------------------------------------ #
    def tune(self, jobs, *, family: str | None = None) -> list[SolveJob]:
        """Rewrite each job's ``(ε_l, backend, target)`` with a tuned choice.

        κ comes from the job (pinned by every problem family); jobs without
        one get it measured from the matrix here, once, instead of inside
        the solver on every worker.  Jobs with ``target_accuracy=None`` are
        *single-solve* requests whose ``ε_l`` is the caller's accuracy
        contract — those keep both fields and only have their backend tuned.
        """
        tuned = []
        measured: dict[int, float] = {}
        chosen: dict[tuple, TunedConfig] = {}
        issued: dict[str, set[float]] = {}
        for job in jobs:
            kappa = job.kappa
            if kappa is None:
                # the O(N³) measurement is memoised per matrix object so a
                # chain or multi-RHS stream pays for one SVD, not one per
                # job.
                kappa = measured.get(id(job.matrix))
                if kappa is None:
                    from ..linalg import condition_number
                    from ..utils import is_linear_operator

                    # structured operators report exact bound-derived κ (or
                    # densify behind the operator's own size wall)
                    kappa = (float(condition_number(job.matrix))
                             if is_linear_operator(job.matrix)
                             else float(np.linalg.cond(job.matrix, 2)))
                    measured[id(job.matrix)] = kappa
            dimension = int(job.rhs.shape[-1])
            if job.target_accuracy is None:
                tuned.append(replace(
                    job, kappa=kappa,
                    backend=self._pick_backend(kappa, job.epsilon_l, dimension),
                    metadata={**job.metadata, "autotuned": "backend-only"}))
                continue
            job_family = family if family is not None else job.metadata.get("family")
            # a chain / multi-RHS stream repeats one (family, κ, ε, N)
            # combination job after job: optimise the candidate grid once
            choose_key = (job_family, kappa, job.target_accuracy, dimension)
            config = chosen.get(choose_key)
            if config is None:
                config = self.choose(
                    kappa=kappa, target_accuracy=job.target_accuracy,
                    dimension=dimension, family=job_family)
                chosen[choose_key] = config
            if job_family is not None:
                issued.setdefault(job_family, set()).add(config.epsilon_l)
            tuned.append(replace(
                job, epsilon_l=config.epsilon_l, backend=config.backend,
                target_accuracy=config.target_accuracy, kappa=kappa,
                metadata={**job.metadata, "autotuned": config.source}))
        # remember the hand-out only when it was uniform: a family tuned to
        # several ε_l (e.g. a κ sweep) has no single "configuration the run
        # executed" for observe() to attribute telemetry to.
        for name, values in issued.items():
            if len(values) == 1:
                self._issued[name] = next(iter(values))
            else:
                self._issued.pop(name, None)
        return tuned

    def tune_scenario(self, name: str, **params):
        """Build a registered scenario and tune its jobs in place."""
        from .registry import build_scenario

        scenario = build_scenario(name, **params)
        scenario.jobs = self.tune(scenario.jobs, family=name)
        return scenario

    # ------------------------------------------------------------------ #
    # telemetry feedback
    # ------------------------------------------------------------------ #
    def observe(self, family: str, report, *, kappa: float,
                target_accuracy: float | None = None,
                dimension: int | None = None,
                epsilon_l: float | None = None) -> FamilyProfile:
        """Fold a run's telemetry into the family's persisted profile.

        The cost-model choice seeds the profile; measured iteration counts
        then move ``ε_l`` in whichever direction the Theorem III.1 bound was
        wrong:

        * iterations *beyond* the bound, or non-converged jobs, mean the
          effective contraction is worse than ``ε_l κ`` (backend noise, a κ
          underestimate) — tighten ``ε_l``, quartering it per observation,
          down to the refinement target;
        * iterations strictly *under* the bound mean the backend overdelivers
          (the calibrated polynomials routinely beat their requested
          accuracy), so per-solve degree is being wasted — relax ``ε_l``
          halfway (in log space) towards the loosest guaranteed-convergent
          value ``rho_max/κ``.  Repeated observe/run rounds converge
          geometrically onto the cheapest safe configuration.

        ``dimension`` sizes the backend choice recorded in the profile; when
        omitted it is inferred from the reported solutions.  ``epsilon_l``
        is the inner accuracy the report's jobs actually ran with; when
        omitted it falls back to the value :meth:`tune` last handed out for
        this family, then to the decision rule :meth:`tune` would apply
        now — so telemetry is attributed to the configuration the run
        executed, not to a profile adapted since.
        """
        epsilon = float(target_accuracy if target_accuracy is not None
                        else self.target_accuracy)
        kappa = float(kappa)
        if not np.isfinite(kappa) or not 1.0 <= kappa < 1e15:
            raise ValueError(
                "kappa must be a finite value in [1, 1e15): a singular or "
                "numerically singular matrix cannot be profiled")
        previous = self.profiles.get(family)
        if epsilon_l is None:
            epsilon_l = self._issued.get(family)
        if epsilon_l is None:
            epsilon_l = self.choose(kappa=kappa, target_accuracy=epsilon,
                                    dimension=dimension,
                                    family=family).epsilon_l
        epsilon_l = float(epsilon_l)
        rho_ceiling = self.rho_max / kappa
        # ε_l outside the convergence region predicts nothing: treat every
        # observed iteration as excess, which tightens the profile.
        predicted = (iteration_bound(epsilon, epsilon_l, kappa)
                     if epsilon_l * kappa < 1.0 else 0)
        all_results = list(report)
        results = [result for result in all_results if result.ok]
        converged = [result for result in results if result.converged]
        # errored jobs count against convergence: a stream where some jobs
        # raised must tighten, not relax on the survivors' statistics.
        converged_fraction = (len(converged) / len(all_results)
                              if all_results else float("nan"))
        observed_iterations = (float(np.mean([r.iterations for r in converged]))
                               if converged else float("nan"))
        calls_per_job = (sum(r.block_encoding_calls for r in results)
                         / len(results)) if results else float("nan")
        best_epsilon_l = (previous.best_epsilon_l
                          if previous is not None else float("nan"))
        best_calls = (previous.best_calls_per_job
                      if previous is not None else float("nan"))
        excess = 0.0
        if np.isfinite(observed_iterations):
            excess = max(0.0, observed_iterations - predicted)
        if all_results and converged_fraction < 1.0:
            excess = max(excess, 1.0)
        if excess > 0:
            epsilon_l = max(epsilon_l * 0.25 ** excess, epsilon)
        elif np.isfinite(calls_per_job):
            if np.isfinite(best_calls) and calls_per_job > best_calls:
                # this round regressed: retreat halfway towards the cheapest
                # configuration measured so far.
                epsilon_l = float(np.sqrt(epsilon_l * best_epsilon_l))
            else:
                # new best (or first measurement): anchor the climb here...
                best_epsilon_l, best_calls = epsilon_l, calls_per_job
                if (np.isfinite(observed_iterations)
                        and observed_iterations < predicted
                        and epsilon_l < rho_ceiling):
                    # ...and keep relaxing while the bound stays pessimistic.
                    epsilon_l = float(np.sqrt(epsilon_l * rho_ceiling))
        summary = getattr(report, "summary", None) or {}
        cache = summary.get("cache") or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache_hit_rate = (cache.get("hits", 0) / lookups) if lookups else float("nan")
        store_hit_rate = (cache.get("store_hits", 0) / lookups) if lookups else float("nan")
        # re-derive the backend for the adapted ε_l at the *problem's* size
        # (inferred from the solutions when not given) — inheriting the
        # dimension-less cost-model choice would pin every profile to the
        # ideal backend and silently disable circuit-backend selection.
        if dimension is None:
            for result in results:
                if result.x is not None:
                    dimension = int(np.asarray(result.x).shape[-1])
                    break
        profile = FamilyProfile(
            family=family, kappa=kappa, target_accuracy=epsilon,
            epsilon_l=float(epsilon_l),
            backend=self._pick_backend(kappa, float(epsilon_l), dimension),
            predicted_iterations=(iteration_bound(epsilon, epsilon_l, kappa)
                                  if epsilon_l * kappa < 1.0 else 0),
            observed_iterations=observed_iterations,
            converged_fraction=converged_fraction,
            cache_hit_rate=cache_hit_rate, store_hit_rate=store_hit_rate,
            total_block_encoding_calls=int(sum(
                r.block_encoding_calls for r in results)),
            runs=(previous.runs if previous is not None else 0) + 1,
            best_epsilon_l=best_epsilon_l, best_calls_per_job=best_calls)
        self.profiles[family] = profile
        if self.autosave:
            self.store.save(self.profiles)
        return profile

    def profile(self, family: str) -> FamilyProfile | None:
        """Stored profile for ``family`` (``None`` when never observed)."""
        return self.profiles.get(family)

    def stats(self) -> dict:
        """Snapshot: profile count, store path, per-family ε_l choices."""
        return {
            "path": str(self.store.path),
            "profiles": len(self.profiles),
            "epsilon_l": {name: profile.epsilon_l
                          for name, profile in sorted(self.profiles.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Autotuner(profiles={len(self.profiles)}, "
                f"path={str(self.store.path)!r})")
