"""Compiled execution-plan IR: fuse a circuit once, run it everywhere.

A :class:`QuantumCircuit` is a *description*: an ordered list of gates.  Every
execution path of the library (single statevector, ``(B, 2**n)`` batches, the
QSVT backends, the engine cache) replays that description — and the gate list
is fixed the moment it is built, so replaying it gate by gate repeats work
that could be done once.  This module introduces the compile step between the
two: an :class:`ExecutionPlan` is a flat sequence of contraction ops
(:class:`PlanOp`) lowered from a circuit by :func:`compile_plan`,

* **fused dense unitaries** — adjacent gates acting on overlapping qubit sets
  are merged into one matrix on the union of their qubits, bounded by a
  configurable ``max_fused_qubits`` width.  Two gates on *nested* qubit sets
  (one a subset of the other) always fuse regardless of the width cap, since
  the merged op is no wider than the wider operand — this is what collapses
  the QSVT alternation ``U · e^{iφ(2Π−I)} · U† · ...`` (block-encoding on all
  block qubits, projector phase on the ancilla subset) into a handful of
  contractions per sweep;
* **diagonal fast paths** — ops whose fused matrix is exactly diagonal
  (projector phases, ``rz``/``p``/``z`` runs) are applied as a broadcast
  elementwise multiply instead of a ``tensordot``;
* **control-sliced blocks** — controlled gates too wide to expand densely keep
  the slice-the-control-axes kernel of the per-gate simulator, rewriting the
  activated sub-block in place (a replay copies its input once, up front).

Plans are shape-polymorphic: the same compiled op sequence runs on a
``(B, 2**n)`` batch (:meth:`ExecutionPlan.apply_batched`) and on a single
``2**n`` amplitude vector (:meth:`ExecutionPlan.apply`, a batch of one).  The
replay tensor is ``(2,)*n + (B,)``: the batch axis is one more *trailing*
tensor axis, so an op on the leading (ancilla) qubits contracts a contiguous
``(2**k, 2**(n-k)·B)`` view with no transpose copy, exactly as it would on
one state.

Compilation is cached process-wide in a small LRU (:func:`plan_cache`) keyed
on the exact gate bytes (:func:`circuit_plan_fingerprint`), so rebuilding an
identical circuit — e.g. the QSVT circuit rebuilt for an unchanged
block-encoding and phase vector — hits the cache instead of re-running the
fusion pass.

``fusion="none"`` lowers one op per gate with no fusion and no diagonal
detection; it performs exactly the contractions of the legacy per-gate loop
and is the reference the fused paths are tested against (1e-12 agreement).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import DimensionError
from .gates import Gate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .circuit import QuantumCircuit

__all__ = [
    "PlanOp",
    "ExecutionPlan",
    "compile_plan",
    "circuit_plan_fingerprint",
    "PlanCache",
    "plan_cache",
    "DEFAULT_FUSION",
    "DEFAULT_MAX_FUSED_QUBITS",
    "FUSION_MODES",
]

#: fusion mode used when callers pass ``fusion=None``.
DEFAULT_FUSION = "greedy"

#: widest fused dense unitary (in qubits) built by the greedy pass; nested
#: qubit sets fuse beyond this since they never grow the wider operand.
DEFAULT_MAX_FUSED_QUBITS = 4

FUSION_MODES = ("none", "greedy")


# ---------------------------------------------------------------------- #
# contraction kernel (shared by every op kind)
# ---------------------------------------------------------------------- #
def _contract(tensor: np.ndarray, matrix: np.ndarray,
              axes: Sequence[int]) -> np.ndarray:
    """Contract ``matrix`` (acting on ``axes`` of the state tensor)."""
    k = len(axes)
    gate_tensor = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(gate_tensor, tensor,
                         axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(moved, list(range(k)), list(axes))


# ---------------------------------------------------------------------- #
# plan ops
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanOp:
    """One contraction of an :class:`ExecutionPlan`.

    Attributes
    ----------
    kind:
        ``"unitary"`` (dense matrix over ``qubits``), ``"diagonal"`` (the
        matrix is exactly diagonal; applied as an elementwise multiply),
        ``"controlled"`` (matrix over ``qubits`` applied only on the activated
        control sub-block, via control-axis slicing) or ``"shift"`` (an
        optionally controlled cyclic increment ``|x⟩ → |x + shift mod 2^k⟩``
        over ``k`` *contiguous* target qubits, applied as one ``np.roll`` —
        the O(2^n) zero-payload kernel behind the banded block-encoding's
        shift circuits).
    qubits:
        Target qubits the matrix acts on (``qubits[0]`` most significant).
        ``shift`` ops additionally require the qubits to be contiguous and
        ascending, with no control qubit strictly between them.
    matrix:
        ``(2^k, 2^k)`` unitary for ``unitary``/``controlled`` ops (``None``
        for diagonal ops).
    diagonal:
        Length-``2^k`` diagonal for ``diagonal`` ops (``None`` otherwise).
    controls / control_states:
        Control qubits and their activation states (``controlled`` and
        ``shift`` ops).
    shift:
        Cyclic increment of ``shift`` ops (e.g. ``+1`` for ``S|x⟩=|x+1⟩``,
        ``-1`` for its adjoint); ignored by the other kinds.
    source_gates:
        Number of circuit gates fused into this op.
    """

    kind: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = field(default=None, repr=False)
    diagonal: np.ndarray | None = field(default=None, repr=False)
    controls: tuple[int, ...] = ()
    control_states: tuple[int, ...] = ()
    shift: int = 0
    source_gates: int = 1

    # ------------------------------------------------------------------ #
    def payload_bytes(self) -> int:
        """Bytes of numerical payload carried by the op."""
        total = 0
        if self.matrix is not None:
            total += self.matrix.nbytes
        if self.diagonal is not None:
            total += self.diagonal.nbytes
        return total

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        """Apply the op to a ``(2,)*n + (B,)`` state tensor (batch axis last).

        Controlled ops rewrite their activated sub-block of ``tensor`` in
        place and return it; the other kinds return a new tensor.  Callers
        must own ``tensor`` (:meth:`ExecutionPlan.apply_batched` does).
        """
        if self.kind == "diagonal":
            # ``qubits`` is sorted (fusion emits sorted blocks), so the diag
            # axes already appear in register order; interleaving singleton
            # axes makes the factor broadcast against the state tensor.
            targeted = set(self.qubits)
            view_shape = [2 if axis in targeted else 1
                          for axis in range(tensor.ndim)]
            return tensor * self.diagonal.reshape(view_shape)
        if self.kind == "unitary":
            return _contract(tensor, self.matrix, self.qubits)
        if self.kind == "shift" and not self.controls:
            return self._roll(tensor, self.qubits)
        # controlled ops: slice the activated sub-block, transform, and write
        # it back in place — the replay owns its tensor (see apply_batched)
        index: list = [slice(None)] * tensor.ndim
        for qubit, state_bit in zip(self.controls, self.control_states):
            index[qubit] = 1 if state_bit else 0
        sub = tensor[tuple(index)]
        axes = [q - sum(1 for c in self.controls if c < q) for q in self.qubits]
        if self.kind == "shift":
            tensor[tuple(index)] = self._roll(sub, axes)
        else:
            tensor[tuple(index)] = _contract(sub, self.matrix, axes)
        return tensor

    def _roll(self, sub: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        """Cyclic increment over contiguous axes: merge, ``np.roll``, split.

        ``np.roll(a, +1)`` satisfies ``out[x] = a[x-1]`` — amplitude at
        basis state ``|x⟩`` moves to ``|x+1 mod 2^k⟩``, i.e. the cyclic
        shift operator ``S`` of the banded block-encoding.
        """
        lead, k = axes[0], len(axes)
        if list(axes) != list(range(lead, lead + k)):
            raise DimensionError(
                "shift ops require contiguous ascending target axes, got "
                f"{tuple(axes)}")
        shape = sub.shape
        merged = sub.reshape(shape[:lead] + (1 << k,) + shape[lead + k:])
        return np.roll(merged, self.shift, axis=lead).reshape(shape)


# ---------------------------------------------------------------------- #
# execution plan
# ---------------------------------------------------------------------- #
class ExecutionPlan:
    """Compiled, immutable op sequence for one circuit.

    Built by :func:`compile_plan`; execute with :meth:`apply` (one state) or
    :meth:`apply_batched` (a ``(B, 2**n)`` stack).  The plan is stateless and
    thread-safe: the same instance can be replayed concurrently.
    """

    def __init__(self, num_qubits: int, ops: Sequence[PlanOp], *,
                 source_gate_count: int, fusion: str,
                 max_fused_qubits: int) -> None:
        self.num_qubits = int(num_qubits)
        self.ops = tuple(ops)
        self.source_gate_count = int(source_gate_count)
        self.fusion = fusion
        self.max_fused_qubits = int(max_fused_qubits)

    # ------------------------------------------------------------------ #
    @property
    def num_contractions(self) -> int:
        """Contractions per sweep (the quantity fusion minimises)."""
        return len(self.ops)

    @property
    def dimension(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return 2**self.num_qubits

    def payload_bytes(self) -> int:
        """Total bytes of op matrices/diagonals (for byte-accounted caches)."""
        return sum(op.payload_bytes() for op in self.ops)

    def stats(self) -> dict:
        """Compilation summary: op-kind histogram and the fusion ratio."""
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        contractions = max(self.num_contractions, 1)
        return {
            "fusion": self.fusion,
            "max_fused_qubits": self.max_fused_qubits,
            "source_gates": self.source_gate_count,
            "contractions": self.num_contractions,
            "fusion_ratio": self.source_gate_count / contractions,
            "op_kinds": kinds,
            "payload_bytes": self.payload_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionPlan(num_qubits={self.num_qubits}, "
                f"contractions={self.num_contractions}, "
                f"source_gates={self.source_gate_count}, fusion={self.fusion!r})")

    # ------------------------------------------------------------------ #
    def apply(self, data) -> np.ndarray:
        """Run the plan on one amplitude vector (length ``2**n``): a batch of
        one through :meth:`apply_batched`."""
        arr = np.asarray(data, dtype=complex).reshape(-1)
        if arr.shape[0] != self.dimension:
            raise DimensionError(
                f"state has dimension {arr.shape[0]} but the plan expects "
                f"{self.dimension}")
        return self.apply_batched(arr[None, :])[0]

    def apply_batched(self, states) -> np.ndarray:
        """Run the plan on a ``(B, 2**n)`` amplitude stack (one sweep for all).

        The sweep runs on the ``(2,)*n + (B,)`` tensor (batch axis last, see
        the module docstring); the result is handed back as a C-contiguous
        ``(B, 2**n)`` stack.  ``states`` is copied once into a tensor the
        call owns, so controlled ops rewrite their slice in place and the
        caller's array is never written.
        """
        arr = np.array(states, dtype=complex)
        if arr.ndim != 2:
            raise DimensionError(
                f"batched states must be a (B, 2**n) array, got shape {arr.shape}")
        if arr.shape[1] != self.dimension:
            raise DimensionError(
                f"states have dimension {arr.shape[1]} but the plan expects "
                f"{self.dimension}")
        batch = arr.shape[0]
        tensor = arr.T.reshape((2,) * self.num_qubits + (batch,))
        for op in self.ops:
            tensor = op.apply(tensor)
        return np.ascontiguousarray(tensor.reshape(self.dimension, batch).T)


# ---------------------------------------------------------------------- #
# fingerprinting and the process-wide plan cache
# ---------------------------------------------------------------------- #
def circuit_plan_fingerprint(circuit: "QuantumCircuit") -> str:
    """Content hash of a circuit's gate list (exact matrix bytes).

    Two circuits with identical gates (same targets, controls, control states
    and matrix bytes, in the same order, on the same register size) fingerprint
    equally — this keys the plan cache, so the rebuilt-but-identical circuits
    of repeated QSVT applications share one compilation.
    """
    digest = hashlib.sha256()
    digest.update(int(circuit.num_qubits).to_bytes(4, "little"))
    for gate in circuit:
        meta = (gate.targets, gate.controls, gate.control_states)
        digest.update(repr(meta).encode())
        digest.update(np.ascontiguousarray(gate.matrix).tobytes())
    return digest.hexdigest()


class PlanCache:
    """Small thread-safe LRU of compiled plans, keyed on circuit bytes.

    Bounded both by entry count and by **payload bytes** (fused plans can
    hold full ``2**n x 2**n`` dense unitaries, so an entry count alone does
    not bound memory); while the byte budget is exceeded, least-recently-used
    plans are dropped — except the most recent one, so an oversized plan
    still caches.  ``hits`` / ``misses`` counters make the reuse observable
    (the fusion benchmark and the plan tests assert on them), mirroring
    :class:`repro.engine.cache.CompiledSolverCache` one level down.
    """

    def __init__(self, maxsize: int = 64,
                 max_bytes: int | None = 128 * 1024 * 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.maxsize = int(maxsize)
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        self._entry_bytes: dict[tuple, int] = {}
        self._total_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: tuple) -> ExecutionPlan | None:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(key)
            return plan

    def put(self, key: tuple, plan: ExecutionPlan) -> None:
        entry_bytes = plan.payload_bytes()
        with self._lock:
            previous = self._entry_bytes.pop(key, None)
            if previous is not None:
                self._total_bytes -= previous
            self._entries[key] = plan
            self._entries.move_to_end(key)
            self._entry_bytes[key] = entry_bytes
            self._total_bytes += entry_bytes
            while len(self._entries) > self.maxsize:
                self._drop_oldest_locked()
            if self.max_bytes is not None:
                while self._total_bytes > self.max_bytes and len(self._entries) > 1:
                    self._drop_oldest_locked()

    def _drop_oldest_locked(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self._total_bytes -= self._entry_bytes.pop(key, 0)
        self._evictions += 1

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._entry_bytes.clear()
            self._total_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        """Compilations skipped because an identical circuit was seen."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that required running the fusion pass."""
        return self._misses

    def stats(self) -> dict:
        """Counter snapshot (hits, misses, evictions, size, bytes, hit rate)."""
        with self._lock:
            size = len(self._entries)
            total_bytes = self._total_bytes
        total = self._hits + self._misses
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": size,
            "total_bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "hit_rate": (self._hits / total) if total else 0.0,
        }


_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan cache consulted by :func:`compile_plan`."""
    return _PLAN_CACHE


# ---------------------------------------------------------------------- #
# fusion pass
# ---------------------------------------------------------------------- #
def _embed_matrix(matrix: np.ndarray, gate_qubits: Sequence[int],
                  op_qubits: Sequence[int]) -> np.ndarray:
    """Expand ``matrix`` (on ``gate_qubits``, in that order) to ``op_qubits``.

    ``op_qubits`` must be a superset of ``gate_qubits``; the result acts as
    the identity on the extra qubits and respects the ``op_qubits`` ordering
    (first qubit most significant).
    """
    k = len(op_qubits)
    m = len(gate_qubits)
    if m == k and tuple(gate_qubits) == tuple(op_qubits):
        return np.asarray(matrix, dtype=complex)
    full = np.kron(np.asarray(matrix, dtype=complex), np.eye(2**(k - m)))
    order = list(gate_qubits) + [q for q in op_qubits if q not in gate_qubits]
    perm = [order.index(q) for q in op_qubits]
    tensor = full.reshape((2,) * (2 * k))
    tensor = np.transpose(tensor, perm + [k + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**k, 2**k))


def _is_diagonal(matrix: np.ndarray) -> bool:
    """Structurally diagonal (exact zeros off the diagonal, no tolerance)."""
    return np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0


@dataclass
class _PendingBlock:
    """Dense unitary being grown by the greedy fusion pass."""

    qubits: tuple[int, ...]          # sorted
    matrix: np.ndarray
    source_gates: int

    def absorb(self, gate_qubits: Sequence[int], matrix: np.ndarray) -> None:
        union = tuple(sorted(set(self.qubits) | set(gate_qubits)))
        gate_full = _embed_matrix(matrix, gate_qubits, union)
        pending_full = _embed_matrix(self.matrix, self.qubits, union)
        self.qubits = union
        self.matrix = gate_full @ pending_full
        self.source_gates += 1

    def to_op(self) -> PlanOp:
        if _is_diagonal(self.matrix):
            return PlanOp(kind="diagonal", qubits=self.qubits,
                          diagonal=np.ascontiguousarray(np.diag(self.matrix)),
                          source_gates=self.source_gates)
        return PlanOp(kind="unitary", qubits=self.qubits, matrix=self.matrix,
                      source_gates=self.source_gates)


def _lower_gate_verbatim(gate: Gate) -> PlanOp:
    """One op per gate, reproducing the per-gate loop's contractions exactly."""
    if gate.controls:
        return PlanOp(kind="controlled", qubits=gate.targets,
                      matrix=np.asarray(gate.matrix, dtype=complex),
                      controls=gate.controls, control_states=gate.control_states)
    return PlanOp(kind="unitary", qubits=gate.targets,
                  matrix=np.asarray(gate.matrix, dtype=complex))


def _compile_none(circuit: "QuantumCircuit") -> list[PlanOp]:
    return [_lower_gate_verbatim(gate) for gate in circuit]


def _compile_greedy(circuit: "QuantumCircuit", max_fused_qubits: int) -> list[PlanOp]:
    ops: list[PlanOp] = []
    pending: _PendingBlock | None = None

    def flush() -> None:
        nonlocal pending
        if pending is not None:
            ops.append(pending.to_op())
            pending = None

    for gate in circuit:
        pending_set = set(pending.qubits) if pending is not None else None
        if gate.controls:
            # expand a controlled gate densely only when it stays narrow or
            # fits inside the block being grown; otherwise it is a barrier
            # handled by the control-slicing kernel.
            width = len(gate.qubits)
            inside = pending_set is not None and set(gate.qubits) <= pending_set
            if width > max_fused_qubits and not inside:
                flush()
                ops.append(_lower_gate_verbatim(gate))
                continue
            gate_qubits: tuple[int, ...] = gate.qubits   # controls first
            matrix = gate.expanded_matrix()
        else:
            gate_qubits = gate.targets
            matrix = gate.matrix
        if pending is None:
            pending = _PendingBlock(qubits=tuple(sorted(gate_qubits)),
                                    matrix=_embed_matrix(
                                        matrix, gate_qubits,
                                        tuple(sorted(gate_qubits))),
                                    source_gates=1)
            continue
        union = set(pending.qubits) | set(gate_qubits)
        nested = (set(gate_qubits) <= set(pending.qubits)
                  or set(pending.qubits) <= set(gate_qubits))
        if len(union) <= max_fused_qubits or nested:
            pending.absorb(gate_qubits, matrix)
        else:
            flush()
            pending = _PendingBlock(qubits=tuple(sorted(gate_qubits)),
                                    matrix=_embed_matrix(
                                        matrix, gate_qubits,
                                        tuple(sorted(gate_qubits))),
                                    source_gates=1)
    flush()
    return ops


def compile_plan(circuit: "QuantumCircuit", *, fusion: str | None = None,
                 max_fused_qubits: int | None = None,
                 cache: bool = True) -> ExecutionPlan:
    """Lower a circuit to an :class:`ExecutionPlan`.

    Parameters
    ----------
    circuit:
        The circuit to compile.
    fusion:
        ``"greedy"`` (default) merges adjacent gates on overlapping qubit sets
        up to ``max_fused_qubits`` (nested sets always merge); ``"none"``
        lowers one op per gate, replicating the legacy per-gate loop.
    max_fused_qubits:
        Width cap of fused dense unitaries (default
        :data:`DEFAULT_MAX_FUSED_QUBITS`).
    cache:
        Consult/populate the process-wide :func:`plan_cache` (keyed on the
        exact gate bytes), so identical circuits compile once.
    """
    mode = DEFAULT_FUSION if fusion is None else str(fusion)
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {fusion!r}; expected one of "
                         f"{FUSION_MODES}")
    width = DEFAULT_MAX_FUSED_QUBITS if max_fused_qubits is None else int(max_fused_qubits)
    if width < 1:
        raise ValueError("max_fused_qubits must be >= 1")
    key = None
    if cache:
        key = (circuit_plan_fingerprint(circuit), mode, width)
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            return cached
    if mode == "none":
        ops = _compile_none(circuit)
    else:
        ops = _compile_greedy(circuit, width)
    plan = ExecutionPlan(circuit.num_qubits, ops,
                         source_gate_count=len(circuit), fusion=mode,
                         max_fused_qubits=width)
    if key is not None:
        _PLAN_CACHE.put(key, plan)
    return plan
