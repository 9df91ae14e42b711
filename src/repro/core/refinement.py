"""Mixed-precision iterative refinement driver (Algorithm 2 of the paper).

The driver is generic over the inner solver: any object exposing ``matrix``
and ``solve(rhs) -> SingleSolveRecord`` can be refined, so the same code runs

* Algorithm 2 (QSVT inner solver on a QPU backend,
  :class:`repro.core.qsvt_solver.QSVTLinearSolver`), and
* Algorithm 1 (low-precision LU inner solver,
  :class:`repro.core.classical_refinement.ClassicalLUSolver`).

At every iteration the residual ``r_i = b − A x_i`` and the update
``x_{i+1} = x_i + e_i`` are computed at the *working* precision ``u`` on the
CPU, while the correction ``A e_i = r_i`` is delegated to the inner solver
(accuracy ``ε_l``).  The run stops when the scaled residual
``ω = ||b − A x̃|| / ||b||`` drops below the target ``ε``, when the iteration
budget is exhausted, or when the residual stagnates at the limiting accuracy
of the working precision.

The Algorithm 2 loop lives in :meth:`MixedPrecisionRefinement.solve_batch`;
:meth:`MixedPrecisionRefinement.solve` is a batch of one.  Independent
refinements against the *same* matrix share the loop: every iteration
stacks the residuals of the still-active systems and answers them through
the inner solver's ``solve_batch`` (one fused-plan circuit sweep instead of
one sweep per system), or one ``solve`` at a time when the inner solver has
no batched form.

The driver reads the inner solver once, at construction: its ``describe()``
snapshot, the ``ε_l`` and ``κ`` of the Theorem III.1 bound, and the sizes of
the step-0 uploads of the communication trace.  Every result's
``solver_info`` is a copy of that snapshot, so a driver belongs to the
synthesis it was built on: build a new one after ``recompile()``.
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg import condition_number, relative_forward_error, scaled_residual
from ..obs.trace import span as obs_span
from ..precision import PrecisionContext
from ..utils import as_vector, is_linear_operator
from .communication import CommunicationTrace, TransferEvent
from .convergence import contraction_factor, iteration_bound, limiting_accuracy
from .results import RefinementIteration, RefinementResult

__all__ = ["MixedPrecisionRefinement", "refine"]


class MixedPrecisionRefinement:
    """Iterative refinement around a low-accuracy inner solver.

    Parameters
    ----------
    inner_solver:
        Object with ``matrix`` and ``solve(rhs) -> SingleSolveRecord``
        (e.g. :class:`~repro.core.qsvt_solver.QSVTLinearSolver`).
    target_accuracy:
        Target ``ε`` on the scaled residual.
    max_iterations:
        Iteration budget; defaults to twice the Theorem III.1 bound (plus a
        small margin) when the bound is available, otherwise 50.
    precision:
        :class:`~repro.precision.PrecisionContext` describing the working
        (and optionally residual) precision used on the CPU.
    epsilon_l / kappa:
        Values used for the theoretical bound; by default they are taken from
        the inner solver (preferring the backend's *achieved* accuracy when it
        reports one) and from the exact condition number.
    track_communication:
        Record a :class:`~repro.core.communication.CommunicationTrace`.
    stagnation_iterations:
        Stop after this many consecutive iterations without improving the best
        scaled residual (limiting-accuracy plateau).
    divergence_factor:
        Abort when the scaled residual grows by more than this factor above
        its best value (signals ``ε_l κ >= 1``).

    The inner solver's ``describe()`` is read once, here, and kept for the
    driver's lifetime together with the ``ε_l``, ``κ``, iteration bound and
    communication upload sizes derived from it.  Every caller builds a
    fresh driver per use, so the snapshot is frozen exactly like ``ε_l``,
    ``κ`` and the bound already are.
    """

    def __init__(self, inner_solver, *, target_accuracy: float = 1e-10,
                 max_iterations: int | None = None,
                 precision: PrecisionContext | None = None,
                 epsilon_l: float | None = None, kappa: float | None = None,
                 track_communication: bool = True,
                 stagnation_iterations: int = 3,
                 divergence_factor: float = 100.0) -> None:
        if not 0.0 < target_accuracy < 1.0:
            raise ValueError("target_accuracy must be in (0, 1)")
        self.inner_solver = inner_solver
        self.target_accuracy = float(target_accuracy)
        self.precision = precision if precision is not None else PrecisionContext()
        self.track_communication = bool(track_communication)
        self.stagnation_iterations = int(stagnation_iterations)
        self.divergence_factor = float(divergence_factor)
        # structured operators pass through matrix-free: the residual updates
        # and scaled residuals only ever apply ``A @ x``.
        inner_matrix = inner_solver.matrix
        self.matrix = (inner_matrix if is_linear_operator(inner_matrix)
                       else np.asarray(inner_matrix, dtype=float))
        describe = getattr(inner_solver, "describe", None)
        self._solver_info = describe() if callable(describe) else {}
        self.kappa = float(kappa) if kappa is not None else self._infer_kappa()
        self.epsilon_l = float(epsilon_l) if epsilon_l is not None else self._infer_epsilon_l()
        self.iteration_bound = self._compute_bound()
        if max_iterations is not None:
            self.max_iterations = int(max_iterations)
        elif np.isfinite(self.iteration_bound):
            self.max_iterations = int(2 * self.iteration_bound + 5)
        else:
            self.max_iterations = 50
        self._setup_events = (self._communication_setup()
                              if self.track_communication else ())

    # ------------------------------------------------------------------ #
    def _infer_kappa(self) -> float:
        solver_kappa = getattr(self.inner_solver, "kappa", None)
        if solver_kappa is not None and np.isfinite(solver_kappa):
            return float(solver_kappa)
        return condition_number(self.matrix)

    def _infer_epsilon_l(self) -> float:
        achieved = self._solver_info.get("achieved_epsilon_l")
        if achieved is not None and np.isfinite(achieved) and achieved > 0:
            return float(achieved)
        nominal = getattr(self.inner_solver, "epsilon_l", None)
        if nominal is not None and np.isfinite(nominal) and nominal > 0:
            return float(nominal)
        return float("nan")

    def _compute_bound(self) -> float:
        if not np.isfinite(self.epsilon_l) or self.epsilon_l <= 0:
            return float("nan")
        if contraction_factor(self.epsilon_l, self.kappa) >= 1.0:
            return float("inf")
        return float(iteration_bound(self.target_accuracy, self.epsilon_l, self.kappa))

    def _predicted(self, index: int) -> float:
        if not np.isfinite(self.epsilon_l) or self.epsilon_l <= 0:
            return float("nan")
        rho = contraction_factor(self.epsilon_l, self.kappa)
        return float(rho ** (index + 1))

    # ------------------------------------------------------------------ #
    def _communication_setup(self) -> tuple[TransferEvent, ...]:
        """The step-0 uploads every refined system's trace starts with:
        ``BE(A†)``, the phase factors ``Φ`` and ``SP(b)``."""
        trace = CommunicationTrace()
        rhs_length = self.matrix.shape[0]
        degree = int(self._solver_info.get("polynomial_degree", 0) or 0)
        block = getattr(getattr(self.inner_solver, "backend", None), "block", None)
        if block is not None:
            trace.add_circuit_upload(0, "BE(A†)", self._block_encoding_gate_count(block),
                                     "block-encoding circuit of A†")
        elif degree > 0:
            # ideal backends carry no explicit circuit; account for a compiled
            # dense block-encoding of the same dimension (O(4^n) gates).
            trace.add_circuit_upload(0, "BE(A†)", 2 * rhs_length**2,
                                     "block-encoding circuit of A† (estimated)")
        if degree > 0:
            trace.add_vector_upload(0, "Φ", degree, "QSVT phase factors")
        trace.add_circuit_upload(0, "SP(b)", rhs_length,
                                 "state preparation of the right-hand side")
        return tuple(trace.events)

    @staticmethod
    def _block_encoding_gate_count(block) -> int:
        """Size (in elementary gates) of the compiled block-encoding circuit.

        Dense unitary blocks are expanded through the fault-tolerant resource
        model so the upload size reflects a compiled circuit rather than the
        single opaque gate the simulator applies.
        """
        from ..quantum.resources import estimate_circuit_resources

        try:
            circuit = block.circuit()
            resources = estimate_circuit_resources(circuit)
            gates = resources.cnot_count + resources.rotation_count + resources.explicit_t_count
            return int(max(gates, len(circuit), 1))
        except Exception:  # pragma: no cover - defensive: exotic encodings
            return 1

    # ------------------------------------------------------------------ #
    def solve(self, rhs, *, x_true=None) -> RefinementResult:
        """Run Algorithm 2 on ``A x = rhs`` and return the full history: a
        batch of one through :meth:`solve_batch`."""
        b = as_vector(rhs, name="rhs")
        reference = (None if x_true is None
                     else as_vector(x_true, name="x_true")[None])
        return self.solve_batch(b[None], x_true=reference)[0]

    # ------------------------------------------------------------------ #
    # the Algorithm 2 loop
    # ------------------------------------------------------------------ #
    def _inner_solve_batch(self, rhs_stack: np.ndarray) -> list:
        """Batch the inner solves when the solver supports it (one fused-plan
        sweep per iteration on the circuit backend), looping otherwise."""
        solve_batch = getattr(self.inner_solver, "solve_batch", None)
        if callable(solve_batch):
            return solve_batch(rhs_stack)
        return [self.inner_solver.solve(rhs_stack[i])
                for i in range(rhs_stack.shape[0])]

    def solve_batch(self, rhs_batch, *, x_true=None) -> list[RefinementResult]:
        """Run Algorithm 2 on ``B`` independent right-hand sides at once.

        All systems share the same matrix and compiled synthesis, so the
        residual solves of the refinements are *batched*: every iteration
        stacks the residuals of the still-active systems and answers them
        through the inner solver's ``solve_batch`` — one fused-plan circuit
        sweep per iteration for the whole batch (see
        :meth:`repro.core.qsvt_solver.QSVTLinearSolver.solve_batch`) instead
        of ``B`` sweeps.  Each system keeps its own convergence, stagnation
        and divergence bookkeeping and drops out of the batch as soon as it
        finishes; one :class:`~repro.core.results.RefinementResult` is
        returned per row, and row ``i`` is what ``solve(rhs_batch[i])``
        returns.

        Parameters
        ----------
        rhs_batch:
            Array-like of shape ``(B, N)`` with ``B >= 1``.
        x_true:
            Optional ``(B, N)`` stack of reference solutions for forward
            errors.
        """
        batch = np.atleast_2d(np.asarray(rhs_batch, dtype=float))
        if batch.shape[1] != self.matrix.shape[0]:
            raise ValueError("right-hand side length does not match the matrix")
        size = batch.shape[0]
        if size == 0:
            raise ValueError("rhs_batch must hold at least one right-hand side")
        norms = np.linalg.norm(batch, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("every right-hand side must be nonzero")
        if x_true is None:
            references = [None] * size
        else:
            refs = np.atleast_2d(np.asarray(x_true, dtype=float))
            if refs.shape != batch.shape:
                raise ValueError("x_true must match the shape of rhs_batch")
            references = [refs[i] for i in range(size)]

        traces = [CommunicationTrace(list(self._setup_events))
                  if self.track_communication else None for _ in range(size)]

        histories: list[list[RefinementIteration]] = [[] for _ in range(size)]
        total_calls = [0] * size
        floor = limiting_accuracy(self.precision.u, self.kappa)

        # ---- initial solves x_0 (one batched sweep) ---------------------- #
        start = time.perf_counter()
        with obs_span("refinement_iteration", iteration=0, active=size):
            records = self._inner_solve_batch(batch)
        elapsed = (time.perf_counter() - start) / size
        xs: list[np.ndarray] = []
        omegas = np.empty(size)
        for i, record in enumerate(records):
            x = self.precision.round_working(record.x)
            xs.append(x)
            total_calls[i] += record.block_encoding_calls
            omegas[i] = scaled_residual(self.matrix, x, batch[i])
            histories[i].append(RefinementIteration(
                index=0, scaled_residual=float(omegas[i]),
                predicted_residual=self._predicted(0),
                forward_error=self._forward_error(references[i], x),
                correction_norm=float(np.linalg.norm(record.x)),
                cumulative_block_encoding_calls=total_calls[i],
                wall_time=elapsed))
            if traces[i] is not None:
                traces[i].add_solution_download(0, "x_0", batch.shape[1],
                                                "initial QSVT solution")

        best_omegas = omegas.copy()
        stagnations = [0] * size
        converged = [bool(omegas[i] <= self.target_accuracy) for i in range(size)]
        done = list(converged)
        iterations = [0] * size

        # ---- refinement loop: one batched residual solve per iteration -- #
        iteration = 0
        while not all(done) and iteration < self.max_iterations:
            iteration += 1
            active = [i for i in range(size) if not done[i]]
            start = time.perf_counter()
            with obs_span("refinement_iteration", iteration=iteration,
                          active=len(active)):
                residuals = np.stack([
                    self.precision.residual_of(self.matrix, xs[i], batch[i])
                    for i in active])
                correction_records = self._inner_solve_batch(residuals)
            elapsed = (time.perf_counter() - start) / len(active)
            for i, record in zip(active, correction_records):
                iterations[i] = iteration
                x = self.precision.round_working(xs[i] + record.x)
                xs[i] = x
                total_calls[i] += record.block_encoding_calls
                omega = scaled_residual(self.matrix, x, batch[i])
                omegas[i] = omega
                histories[i].append(RefinementIteration(
                    index=iteration, scaled_residual=float(omega),
                    predicted_residual=self._predicted(iteration),
                    forward_error=self._forward_error(references[i], x),
                    correction_norm=float(np.linalg.norm(record.x)),
                    cumulative_block_encoding_calls=total_calls[i],
                    wall_time=elapsed))
                if traces[i] is not None:
                    traces[i].add_circuit_upload(
                        iteration, f"SP(r_{iteration})", batch.shape[1],
                        "state preparation of the residual")
                    traces[i].add_solution_download(
                        iteration, f"x_{iteration}", batch.shape[1],
                        "refined solution sample")
                converged[i] = omega <= self.target_accuracy
                if omega < best_omegas[i] * (1.0 - 1e-3):
                    best_omegas[i] = omega
                    stagnations[i] = 0
                else:
                    stagnations[i] += 1
                if converged[i]:
                    done[i] = True
                elif omega > self.divergence_factor * max(best_omegas[i], floor):
                    done[i] = True
                elif stagnations[i] >= self.stagnation_iterations:
                    done[i] = True

        return [
            RefinementResult(
                x=xs[i], converged=bool(converged[i]), iterations=iterations[i],
                target_accuracy=self.target_accuracy, history=histories[i],
                iteration_bound=self.iteration_bound, epsilon_l=self.epsilon_l,
                kappa=self.kappa, total_block_encoding_calls=total_calls[i],
                communication=traces[i], solver_info=dict(self._solver_info))
            for i in range(size)
        ]

    @staticmethod
    def _forward_error(reference, x) -> float:
        if reference is None:
            return float("nan")
        return float(relative_forward_error(reference, x))


def refine(matrix, rhs, *, epsilon_l: float = 1e-2, target_accuracy: float = 1e-10,
           backend: str = "auto", x_true=None, **kwargs) -> RefinementResult:
    """One-call convenience API: build the QSVT solver and refine it.

    Equivalent to constructing a
    :class:`~repro.core.qsvt_solver.QSVTLinearSolver` followed by a
    :class:`MixedPrecisionRefinement`; the keyword arguments are forwarded to
    the refinement driver.
    """
    from .qsvt_solver import QSVTLinearSolver

    solver = QSVTLinearSolver(matrix, epsilon_l=epsilon_l, backend=backend)
    driver = MixedPrecisionRefinement(solver, target_accuracy=target_accuracy, **kwargs)
    return driver.solve(rhs, x_true=x_true)
