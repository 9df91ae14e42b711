"""Structured linear operators: banded, CSR, Kronecker-sum and shifted forms.

The paper's headline workloads are *structured* matrices — the tridiagonal
Poisson matrix of Eq. (7), its Kronecker-sum generalisations to 2-D/3-D grids,
graph Laplacians — yet a dense ``N x N`` array costs ``O(N²)`` memory before
the first solve even starts, which walls the problem suite at ``N ≈ 4096``.
A :class:`StructuredOperator` stores only the nonzero structure (``O(nnz)``)
and exposes exactly the contract the rest of the stack needs:

* ``matvec`` / ``matmat`` / ``rmatvec`` / ``rmatmat`` / ``@`` — application
  of ``A`` or ``Aᵀ`` to vectors and stacked right-hand sides, which is all
  the residual updates, the scale recovery of Remark 2 and the matrix-free
  Chebyshev route of the ideal backend consume.  Each operator class has
  exactly one kernel, ``_apply(x, transpose)``, for both operand ranks and
  both orientations; the four public names only coerce to float64 and
  call it;
* ``nnz_bytes()`` — resident bytes of the structured storage, used by the
  compiled-solver cache and the shared-memory registry instead of ``N²·8``;
* ``eigenvalue_bounds()`` — **exact** extreme eigenvalues where the structure
  admits them (symmetric tridiagonal Toeplitz bands, Kronecker sums of
  symmetric terms, shifted spectra), which replaces the dense SVD in the
  subnormalisation/κ sizing of the QSVT polynomial;
* ``solve()`` — a classical structure-exploiting direct solve (Thomas /
  banded LU, Kronecker fast diagonalisation, conjugate gradients) providing
  the checkable reference solutions of the problem suite at ``O(nnz)``-ish
  cost instead of ``O(N³)``;
* ``fingerprint_parts()`` / ``to_state()`` — content hashing and zero-copy
  shared-memory transport of the structured storage without densifying.

Operators are **immutable**: every component array is copied once at
construction and marked read-only, so fingerprints stay valid forever,
:class:`~repro.core.qsvt_solver.QSVTLinearSolver` never re-hashes an operator
to check it is fresh, and caches may share operator objects across threads
and solver entries without defensive copies.  Only an already frozen array
is adopted without a copy: a read-only one whose ``.base`` chain holds no
writable ndarray (another operator's storage, or a view of a shared-memory
segment's buffer).  A read-only *view* of a writable array is copied, since
its owner could still change it.  ``to_dense()`` is lazy — nothing is
materialised until explicitly requested — and refuses above a size wall
unless forced, so an accidental densification of an ``N = 32768`` operator
fails loudly instead of thrashing.
"""

from __future__ import annotations

import abc
import json
import os

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix

from ..exceptions import DimensionError

__all__ = [
    "StructuredOperator",
    "BandedOperator",
    "CSROperator",
    "KroneckerSumOperator",
    "DiagonalShiftOperator",
    "is_structured_operator",
    "operator_from_state",
    "operator_state_payload",
    "operator_from_payload",
    "DENSE_MATERIALIZE_WALL",
    "DENSE_WALL_ENV_VAR",
    "dense_wall",
    "OPERATOR_STATE_VERSION",
]

#: default dimension above which implicit ``to_dense()`` (and the problem
#: families' legacy dense assembly) refuses — an ``N x N`` float64 array
#: above this wall is ≥ 0.5 GiB.  Override at runtime with the
#: ``REPRO_DENSE_WALL`` environment variable; pass ``force=True`` to
#: ``to_dense`` for a one-off escape hatch.
DENSE_MATERIALIZE_WALL = 8192

#: environment variable overriding :data:`DENSE_MATERIALIZE_WALL` — one knob
#: shared by every dense-materialisation guard in the stack.
DENSE_WALL_ENV_VAR = "REPRO_DENSE_WALL"


def dense_wall() -> int:
    """The effective dense-materialisation wall (env override or default)."""
    return int(os.environ.get(DENSE_WALL_ENV_VAR, DENSE_MATERIALIZE_WALL))


#: version tag of the ``operator_state_payload`` layout; bump when the
#: meta/array packing changes so stale store entries become misses.
OPERATOR_STATE_VERSION = 1


def is_structured_operator(obj) -> bool:
    """True when ``obj`` is one of the structured operators of this module."""
    return isinstance(obj, StructuredOperator)


def _writable_alias(arr: np.ndarray) -> bool:
    """True when some ndarray in ``arr``'s ``.base`` chain is writable, i.e.
    ``arr`` is a read-only view whose data its owner can still change."""
    base = arr.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return True
        base = base.base
    return False


def _freeze(array, dtype=np.float64) -> np.ndarray:
    """Read-only C-contiguous copy of ``array``.

    No copy when ``array`` is already frozen: read-only, C-contiguous and
    not a view of a writable ndarray.  A view of a non-ndarray buffer (a
    shared-memory segment) is adopted as is.
    """
    arr = np.asarray(array, dtype=dtype)
    if (arr.flags.c_contiguous and not arr.flags.writeable
            and not _writable_alias(arr)):
        return arr
    arr = np.array(arr, dtype=dtype, order="C", copy=True)
    arr.setflags(write=False)
    return arr


def _fmt(value: float) -> str:
    """Deterministic text form of a float for fingerprint labels."""
    return format(float(value), ".17g")


class StructuredOperator(abc.ABC):
    """A square linear operator stored by structure instead of dense entries.

    Subclasses populate the storage in ``__init__`` and implement the
    ``nnz`` property and four hooks: :meth:`_apply`, the one application
    kernel (``A x`` or ``Aᵀ x`` on a float64 operand of shape ``(N,)`` or
    ``(N, B)``); :meth:`_component_arrays`, the named storage arrays;
    :meth:`_meta`, the JSON-able scalars (extending the base's); and
    :meth:`_dense`, the unchecked densification.  Everything else is
    inherited: ``matvec`` / ``matmat`` / ``rmatvec`` / ``rmatmat`` and ``@``
    (one-line names over :meth:`_apply`), the wall-guarded
    :meth:`to_dense`, byte accounting, fingerprinting, transport and
    condition bounds.  Subclasses may override :attr:`is_symmetric`,
    :meth:`_computed_bounds` and :meth:`solve` where the structure knows
    better than the defaults.

    Parameters
    ----------
    n:
        Dimension (the operator is ``n x n``).
    spectrum_bounds:
        Optional exact extreme eigenvalues ``(λ_min, λ_max)`` supplied by the
        caller (problem families know their analytic spectra); overrides the
        structural computation of :meth:`eigenvalue_bounds`.
    """

    #: structure tag — part of the fingerprint, so a banded and a CSR view of
    #: numerically equal matrices are distinct compiled problems.
    structure: str = "structured"

    def __init__(self, n: int, *, spectrum_bounds=None) -> None:
        self._n = int(n)
        if self._n < 1:
            raise DimensionError("operator dimension must be >= 1")
        if spectrum_bounds is None:
            self._spectrum_bounds = None
        else:
            lo, hi = (float(spectrum_bounds[0]), float(spectrum_bounds[1]))
            if lo > hi:
                raise ValueError("spectrum_bounds must be (min, max)")
            self._spectrum_bounds = (lo, hi)

    # ------------------------------------------------------------------ #
    # shape protocol (ndarray-compatible attributes used across the stack)
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self):
        return np.dtype(np.float64)

    @property
    def dimension(self) -> int:
        """Problem size ``N``."""
        return self._n

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _apply(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """``A x`` (``Aᵀ x`` when ``transpose``) for a float64 ``x`` of shape
        ``(N,)`` or ``(N, B)``: the one kernel each subclass implements.

        The result has ``x``'s shape and is a new array the caller owns
        (:class:`DiagonalShiftOperator` scales and shifts it in place).
        """

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to one vector of length ``N``.

        Dtype contract (shared by the four application names): the input
        is coerced to float64 and the result is always float64 (matching
        :attr:`dtype`) regardless of the input's dtype — a float32
        right-hand side is simply promoted.  The result is a new array the
        caller owns.
        """
        return self._apply(np.asarray(x, dtype=np.float64), False)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to column-stacked vectors of shape ``(N, B)``."""
        return self._apply(np.asarray(x, dtype=np.float64), False)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the adjoint ``Aᵀ`` to one vector of length ``N`` (the
        Golub–Kahan route and the symmetric-dilation solve need ``Aᵀv``)."""
        return self._apply(np.asarray(x, dtype=np.float64), True)

    def rmatmat(self, x: np.ndarray) -> np.ndarray:
        """Apply the adjoint to column-stacked vectors of shape ``(N, B)``."""
        return self._apply(np.asarray(x, dtype=np.float64), True)

    def __matmul__(self, other):
        arr = np.asarray(other, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise DimensionError(
                "operator @ operand requires a 1-D or 2-D operand")
        if arr.shape[0] != self._n:
            raise DimensionError(
                f"operand has {arr.shape[0]} rows but the operator is "
                f"{self._n} x {self._n}")
        return self.matvec(arr) if arr.ndim == 1 else self.matmat(arr)

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _component_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Named storage arrays (the fingerprint / transport payload)."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored (logical nonzero) matrix entries."""

    def nnz_bytes(self) -> int:
        """Resident bytes of the structured storage (arrays deduplicated).

        This is what cache eviction and shared-memory accounting charge —
        the structured analogue of ``matrix.nbytes``.
        """
        seen: set[int] = set()
        total = 0
        for _, arr in self._component_arrays():
            if id(arr) not in seen:
                seen.add(id(arr))
                total += int(arr.nbytes)
        return total

    # ------------------------------------------------------------------ #
    # densification (lazy, wall-guarded)
    # ------------------------------------------------------------------ #
    def to_dense(self, *, force: bool = False) -> np.ndarray:
        """Materialise the dense ``N x N`` array (never cached).

        Refuses above :func:`dense_wall` (default
        :data:`DENSE_MATERIALIZE_WALL`, override with the
        ``REPRO_DENSE_WALL`` environment variable) unless ``force=True`` —
        the whole point of the structured path is that the dense array does
        not exist, so an implicit ``O(N²)`` allocation is a bug, not a
        convenience.
        """
        if not force and self._n > dense_wall():
            raise MemoryError(
                f"refusing to densify a {self._n} x {self._n} "
                f"{self.structure} operator "
                f"({self._n * self._n * 8 / 2**30:.1f} GiB); raise the "
                f"{DENSE_WALL_ENV_VAR} environment variable or pass "
                "force=True if you really mean it")
        return self._dense()

    @abc.abstractmethod
    def _dense(self) -> np.ndarray:
        """Unchecked dense materialisation (subclass implementation)."""

    # ------------------------------------------------------------------ #
    # spectra
    # ------------------------------------------------------------------ #
    @property
    def is_symmetric(self) -> bool:
        """Whether the operator is exactly symmetric (structural check)."""
        return False

    def eigenvalue_bounds(self) -> tuple[float, float] | None:
        """Exact extreme eigenvalues ``(λ_min, λ_max)`` or ``None``.

        Caller-supplied ``spectrum_bounds`` win; otherwise the structural
        closed forms of the subclass (symmetric tridiagonal Toeplitz bands,
        Kronecker sums of symmetric terms) are used.  ``None`` means no exact
        bound is available — callers must pin ``kappa`` or densify.
        """
        if self._spectrum_bounds is not None:
            return self._spectrum_bounds
        return self._computed_bounds()

    def _computed_bounds(self) -> tuple[float, float] | None:
        return None

    def condition_bound(self) -> float | None:
        """Exact 2-norm condition number from the eigenvalue bounds.

        Only available for symmetric definite spectra (where
        ``min |λ| = min(|λ_min|, |λ_max|)`` is attained at an endpoint);
        indefinite or unbounded operators return ``None``.
        """
        bounds = self.eigenvalue_bounds()
        if bounds is None or not self.is_symmetric:
            return None
        lo, hi = bounds
        if lo <= 0.0 <= hi:
            return None  # indefinite/semidefinite: min |λ| is interior
        smax = max(abs(lo), abs(hi))
        smin = min(abs(lo), abs(hi))
        return float(smax / smin)

    # ------------------------------------------------------------------ #
    # classical structure-exploiting solve
    # ------------------------------------------------------------------ #
    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` classically, exploiting the structure.

        ``b`` may be a vector ``(N,)`` or a column stack ``(N, B)``.  The
        base implementation densifies (wall-guarded) — subclasses provide
        Thomas / banded LU, Kronecker fast diagonalisation or CG.
        """
        rhs = np.asarray(b, dtype=np.float64)
        return np.linalg.solve(self.to_dense(), rhs)

    def _cg_solve(self, b, *, tolerance: float = 1e-13) -> np.ndarray:
        """Conjugate-gradient solve (symmetric definite operators only)."""
        from .iterative import conjugate_gradient

        bounds = self.eigenvalue_bounds()
        if not self.is_symmetric or bounds is None or bounds[0] * bounds[1] <= 0:
            raise ValueError(
                f"{self.structure} operator is not symmetric definite; no "
                "structured solve is available (densify or supply one)")
        sign = 1.0 if bounds[0] > 0 else -1.0
        rhs = np.asarray(b, dtype=np.float64)
        flipped = _ScaledView(self, sign) if sign < 0 else self

        def one(column: np.ndarray) -> np.ndarray:
            result = conjugate_gradient(flipped, sign * column,
                                        tolerance=tolerance,
                                        max_iterations=20 * self._n)
            return result.x

        if rhs.ndim == 1:
            return one(rhs)
        return np.column_stack([one(rhs[:, j]) for j in range(rhs.shape[1])])

    # ------------------------------------------------------------------ #
    # fingerprinting / transport
    # ------------------------------------------------------------------ #
    def _meta(self) -> dict:
        """JSON-able structural metadata (everything that is not an array)."""
        meta = {"kind": self.structure, "n": self._n}
        if self._spectrum_bounds is not None:
            meta["spectrum_bounds"] = [_fmt(self._spectrum_bounds[0]),
                                       _fmt(self._spectrum_bounds[1])]
        return meta

    def fingerprint_parts(self):
        """Yield ``(label, array-or-None)`` pairs hashed by ``matrix_fingerprint``.

        The first part is a deterministic text label carrying the structure
        tag and every scalar parameter (dimension, offsets, scale/shift,
        resolved spectrum bounds), so numerically equal matrices stored in
        different structures — or the same structure with different declared
        spectra, which compile to different polynomials — hash distinctly.
        """
        meta = self._meta()
        bounds = self.eigenvalue_bounds()
        if bounds is not None:
            meta["bounds"] = [_fmt(bounds[0]), _fmt(bounds[1])]
        yield "structured:" + json.dumps(meta, sort_keys=True), None
        for name, arr in self._component_arrays():
            yield name, arr

    def to_state(self) -> tuple[dict, list[np.ndarray]]:
        """Split the operator into JSON-able metadata + its storage arrays.

        The inverse is :func:`operator_from_state`; together they are the
        shared-memory transport format (the arrays are packed into one
        segment, the metadata rides on the handle).
        """
        return self._meta(), [arr for _, arr in self._component_arrays()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(n={self._n}, nnz={self.nnz}, "
                f"bytes={self.nnz_bytes()})")


class _ScaledView:
    """Minimal matvec view ``sign * A`` used by the CG sign flip."""

    def __init__(self, base: StructuredOperator, sign: float) -> None:
        self._base = base
        self._sign = sign
        self.shape = base.shape

    def matvec(self, x):
        return self._sign * self._base.matvec(x)

    def __matmul__(self, other):
        return self._sign * (self._base @ other)


# ---------------------------------------------------------------------- #
# banded storage
# ---------------------------------------------------------------------- #
class BandedOperator(StructuredOperator):
    """Diagonal-wise storage ``A[i, i+k] = bands[k][i]`` for a few offsets ``k``.

    Parameters
    ----------
    n:
        Dimension.
    bands:
        Mapping ``offset -> values``; offset ``k >= 0`` is the ``k``-th
        superdiagonal (length ``n - k``), ``k < 0`` the ``|k|``-th
        subdiagonal (length ``n - |k|``).
    spectrum_bounds:
        Optional exact extreme eigenvalues; for symmetric tridiagonal
        *Toeplitz* bands the closed form
        ``d + 2 e cos(jπ/(n+1))`` provides exact bounds automatically.
    """

    structure = "banded"

    def __init__(self, n: int, bands: dict, *, spectrum_bounds=None) -> None:
        super().__init__(n, spectrum_bounds=spectrum_bounds)
        if not bands:
            raise ValueError("at least one band is required")
        frozen: dict[int, np.ndarray] = {}
        for offset, values in bands.items():
            k = int(offset)
            if abs(k) >= self._n:
                raise DimensionError(
                    f"band offset {k} is outside an {self._n} x {self._n} matrix")
            arr = _freeze(values)
            if arr.ndim != 1 or arr.shape[0] != self._n - abs(k):
                raise DimensionError(
                    f"band {k} must have length {self._n - abs(k)}, "
                    f"got shape {arr.shape}")
            frozen[k] = arr
        self._bands = dict(sorted(frozen.items()))
        # the value of every constant (Toeplitz) band, ``None`` for the
        # others: found once here, read by every application and by
        # ``toeplitz_stencil`` (which each fingerprint reaches).
        self._band_constants = {
            k: float(d[0]) if np.all(d == d[0]) else None
            for k, d in self._bands.items()}

    # ------------------------------------------------------------------ #
    @classmethod
    def toeplitz(cls, n: int, stencil: dict, *, spectrum_bounds=None
                 ) -> "BandedOperator":
        """Banded operator with one constant value per diagonal.

        ``stencil`` maps offsets to scalars, e.g. the Poisson stencil
        ``{0: 2.0, 1: -1.0, -1: -1.0}``.  Offsets that fall outside an
        ``n x n`` matrix are dropped (a 1 x 1 "tridiagonal" matrix is just
        its diagonal), so one stencil serves every size.
        """
        bands = {int(k): np.full(int(n) - abs(int(k)), float(v))
                 for k, v in stencil.items() if abs(int(k)) < int(n)}
        return cls(int(n), bands, spectrum_bounds=spectrum_bounds)

    @classmethod
    def from_dense(cls, matrix, *, tol: float = 0.0) -> "BandedOperator":
        """Extract the nonzero diagonals of a dense matrix."""
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError("from_dense requires a square matrix")
        n = mat.shape[0]
        bands = {}
        for k in range(-(n - 1), n):
            diag = np.diagonal(mat, k)
            if np.any(np.abs(diag) > tol) or k == 0:
                bands[k] = diag.copy()
        return cls(n, bands)

    # ------------------------------------------------------------------ #
    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(self._bands)

    @property
    def bandwidth(self) -> int:
        """Largest |offset| with stored values."""
        return max(abs(k) for k in self._bands)

    def band(self, offset: int) -> np.ndarray:
        """The stored values of one diagonal (read-only)."""
        return self._bands[int(offset)]

    def toeplitz_stencil(self) -> dict | None:
        """``offset -> constant`` when every band is constant, else ``None``."""
        if any(c is None for c in self._band_constants.values()):
            return None
        return dict(self._band_constants)

    # ------------------------------------------------------------------ #
    def _apply(self, block: np.ndarray, transpose: bool) -> np.ndarray:
        """Band contraction for 1-D/2-D operands and ``Aᵀ``.

        One ``y[sl] += d * x[sl']`` per stored diagonal in offset order,
        the product formed in one scratch buffer reused by every band; the
        first band's product is written straight into ``y`` (``0 + p = p``
        up to the sign of an exact zero) and only the rows it leaves are
        zeroed.  Constant (Toeplitz) bands multiply by their scalar (found
        at construction), so wide batches never materialise the broadcast
        ``d[:, None] * block``.  The transpose mirrors each offset: the
        entries of band ``k`` land on band ``-k`` of ``Aᵀ`` with unchanged
        values.
        """
        y = np.empty_like(block)
        scratch = np.empty_like(block) if len(self._bands) > 1 else None
        n = self._n
        wide = block.ndim == 2
        for i, (k, d) in enumerate(self._bands.items()):
            coeff = self._band_constants[k]
            if coeff is None:
                coeff = d[:, None] if wide else d
            m = n - abs(k)
            if (k >= 0) != transpose or k == 0:
                dst, src = slice(0, m), slice(abs(k), n)
            else:
                dst, src = slice(abs(k), n), slice(0, m)
            if i == 0:
                np.multiply(coeff, block[src], out=y[dst])
                y[:dst.start] = 0.0
                y[dst.stop:] = 0.0
            else:
                product = scratch[:m]
                np.multiply(coeff, block[src], out=product)
                y[dst] += product
        return y

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return sum(d.shape[0] for d in self._bands.values())

    def _component_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f"band[{k}]", d) for k, d in self._bands.items()]

    def _meta(self) -> dict:
        meta = super()._meta()
        meta["offsets"] = [int(k) for k in self._bands]
        return meta

    def _dense(self) -> np.ndarray:
        out = np.zeros((self._n, self._n))
        for k, d in self._bands.items():
            idx = np.arange(d.shape[0])
            if k >= 0:
                out[idx, idx + k] = d
            else:
                out[idx - k, idx] = d
        return out

    # ------------------------------------------------------------------ #
    @property
    def is_symmetric(self) -> bool:
        for k, d in self._bands.items():
            if k <= 0:
                continue
            mirror = self._bands.get(-k)
            if mirror is None or not np.array_equal(d, mirror):
                return False
        return all(k > 0 or -k in self._bands for k in self._bands)

    def _computed_bounds(self) -> tuple[float, float] | None:
        # exact spectrum of the symmetric tridiagonal Toeplitz matrix:
        # λ_j = d + 2 e cos(jπ/(n+1)), j = 1..n (e = 0 covers scalar
        # multiples of the identity, e.g. a stencil truncated at n = 1).
        stencil = self.toeplitz_stencil()
        if stencil is None or not set(stencil) <= {-1, 0, 1}:
            return None
        e = stencil.get(1, 0.0)
        if e != stencil.get(-1, 0.0):
            return None
        d = stencil.get(0, 0.0)
        c = np.cos(np.pi / (self._n + 1))
        lo, hi = d - 2.0 * abs(e) * c, d + 2.0 * abs(e) * c
        return (float(lo), float(hi))

    # ------------------------------------------------------------------ #
    def solve(self, b) -> np.ndarray:
        rhs = np.asarray(b, dtype=np.float64)
        nl = -min(min(self._bands), 0)
        nu = max(max(self._bands), 0)
        ab = np.zeros((nl + nu + 1, self._n))
        for k, d in self._bands.items():
            if k >= 0:
                ab[nu - k, k:] = d
            else:
                ab[nu - k, :self._n + k] = d
        return solve_banded((nl, nu), ab, rhs)


# ---------------------------------------------------------------------- #
# compressed sparse rows
# ---------------------------------------------------------------------- #
class CSROperator(StructuredOperator):
    """Compressed-sparse-row storage (``data`` / ``indices`` / ``indptr``).

    Rows are kept in canonical order (column-sorted within each row, no
    duplicates); use :meth:`from_coo` to build from unordered triplets.
    """

    structure = "csr"

    def __init__(self, data, indices, indptr, n: int, *,
                 spectrum_bounds=None, symmetric: bool | None = None) -> None:
        super().__init__(n, spectrum_bounds=spectrum_bounds)
        self._data = _freeze(data)
        self._indices = _freeze(indices, dtype=np.int64)
        self._indptr = _freeze(indptr, dtype=np.int64)
        if self._indptr.shape[0] != self._n + 1 or self._indptr[0] != 0:
            raise DimensionError("indptr must have length n + 1 and start at 0")
        if self._indptr[-1] != self._data.shape[0] or np.any(
                np.diff(self._indptr) < 0):
            raise DimensionError("indptr is not a valid monotone row pointer")
        if self._indices.shape != self._data.shape:
            raise DimensionError("indices and data must have equal length")
        if self._data.size and (self._indices.min() < 0
                                or self._indices.max() >= self._n):
            raise DimensionError("column indices out of range")
        self._symmetric = symmetric
        self._row_cache: np.ndarray | None = None
        self._sparse_cache = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, rows, cols, values, n: int, *,
                 spectrum_bounds=None, symmetric: bool | None = None
                 ) -> "CSROperator":
        """Build from triplets; duplicates are summed, rows are sorted."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if not (r.shape == c.shape == v.shape):
            raise DimensionError("rows, cols and values must share one shape")
        encoded = r * int(n) + c
        order = np.argsort(encoded, kind="stable")
        encoded = encoded[order]
        unique, starts = np.unique(encoded, return_index=True)
        summed = np.add.reduceat(v[order], starts) if v.size else v
        out_rows = unique // int(n)
        out_cols = unique % int(n)
        indptr = np.zeros(int(n) + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_rows, minlength=int(n)), out=indptr[1:])
        return cls(summed, out_cols, indptr, int(n),
                   spectrum_bounds=spectrum_bounds, symmetric=symmetric)

    @classmethod
    def from_dense(cls, matrix, *, tol: float = 0.0) -> "CSROperator":
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError("from_dense requires a square matrix")
        rows, cols = np.nonzero(np.abs(mat) > tol)
        return cls.from_coo(rows, cols, mat[rows, cols], mat.shape[0])

    # ------------------------------------------------------------------ #
    @property
    def _rows(self) -> np.ndarray:
        """Row index of every stored entry (derived, cached)."""
        if self._row_cache is None:
            self._row_cache = np.repeat(np.arange(self._n, dtype=np.int64),
                                        np.diff(self._indptr))
        return self._row_cache

    def _scipy_matrix(self, *, transpose: bool = False):
        """scipy CSR matrix of the operator (or its CSC transpose), built on
        first use and kept.

        scipy's single-pass C kernels avoid the ``(nnz, B)`` gather a NumPy
        CSR product would materialise.  Building the wrapper is not free:
        scipy re-casts the frozen int64 ``indices``/``indptr`` to int32
        copies, and at ``N = 16384`` that costs about one matvec; even the
        transpose view costs half of one.  So both are built once per
        operator.  They are a derived cache: pickling and :meth:`to_state`
        leave them out.
        """
        cache = self._sparse_cache
        if cache is None:
            sparse = csr_matrix((self._data, self._indices, self._indptr),
                                shape=(self._n, self._n))
            cache = self._sparse_cache = (sparse, sparse.T)
        return cache[1] if transpose else cache[0]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_row_cache"] = None
        state["_sparse_cache"] = None
        return state

    def _apply(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """Product through scipy's single-pass C kernel (which accumulates
        in float64); an empty batch or an all-zero operator is answered
        with zeros without calling scipy."""
        if x.size == 0 or self.nnz == 0:
            return np.zeros(x.shape)
        return np.asarray(self._scipy_matrix(transpose=transpose) @ x)

    def _matmat_loop(self, x: np.ndarray) -> np.ndarray:
        """The pre-vectorisation per-column kernel (benchmark baseline)."""
        block = np.asarray(x, dtype=np.float64)
        gathered = block[self._indices]
        return np.column_stack([
            np.bincount(self._rows, weights=self._data * gathered[:, j],
                        minlength=self._n)
            for j in range(block.shape[1])])

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self._data.shape[0])

    def _component_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("data", self._data), ("indices", self._indices),
                ("indptr", self._indptr)]

    def _meta(self) -> dict:
        meta = super()._meta()
        if self._symmetric is not None:
            meta["symmetric"] = bool(self._symmetric)
        return meta

    def _dense(self) -> np.ndarray:
        out = np.zeros((self._n, self._n))
        out[self._rows, self._indices] = self._data
        return out

    # ------------------------------------------------------------------ #
    @property
    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            # compare the canonical triplets with their transpose's
            order = np.lexsort((self._rows, self._indices))
            self._symmetric = bool(
                np.array_equal(self._indices[order], self._rows)
                and np.array_equal(self._rows[order], self._indices)
                and np.array_equal(self._data[order], self._data))
        return self._symmetric

    def solve(self, b) -> np.ndarray:
        bounds = self.eigenvalue_bounds()
        if self.is_symmetric and bounds is not None and bounds[0] * bounds[1] > 0:
            return self._cg_solve(b)
        if not self.is_symmetric and self._n > dense_wall():
            # beyond the wall a dense factorisation is off the table: LSQR
            # (Golub–Kahan) solves the non-symmetric system matrix-free.
            return self._lsqr_solve(b)
        return super().solve(b)

    def _lsqr_solve(self, b, *, tolerance: float = 1e-12) -> np.ndarray:
        from .iterative import lsqr

        rhs = np.asarray(b, dtype=np.float64)

        def one(column: np.ndarray) -> np.ndarray:
            result = lsqr(self.matvec, self.rmatvec, column,
                          tolerance=tolerance,
                          max_iterations=40 * self._n)
            return result.x

        if rhs.ndim == 1:
            return one(rhs)
        return np.column_stack([one(rhs[:, j]) for j in range(rhs.shape[1])])


# ---------------------------------------------------------------------- #
# Kronecker sums
# ---------------------------------------------------------------------- #
class KroneckerSumOperator(StructuredOperator):
    """``scale · Σ_i I ⊗ … ⊗ T_i ⊗ … ⊗ I`` over small per-axis terms.

    The d-dimensional Dirichlet Laplacian is exactly this shape: storage is
    ``O(d n²)`` for terms of size ``n`` (versus ``n^{2d}`` dense), one
    ``matvec`` costs ``d`` small tensor contractions, and when every term is
    symmetric the full Kronecker-sum spectrum — hence *exact* extreme
    eigenvalues and an exact fast-diagonalisation :meth:`solve` — follows
    from the ``O(n³)`` eigendecompositions of the terms.
    """

    structure = "kronecker-sum"

    def __init__(self, terms, *, scale: float = 1.0,
                 spectrum_bounds=None) -> None:
        terms = list(terms)  # keep inputs alive: the id-dedup below must
        frozen = []          # never key on a freed object's reused address
        shared: dict[int, np.ndarray] = {}  # same input object -> one copy
        for term in terms:
            arr = shared.get(id(term))
            if arr is None:
                arr = shared[id(term)] = _freeze(term)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise DimensionError("every Kronecker term must be square")
            frozen.append(arr)
        if not frozen:
            raise ValueError("at least one term is required")
        self._terms = tuple(frozen)
        self._dims = tuple(t.shape[0] for t in self._terms)
        super().__init__(int(np.prod(self._dims)),
                         spectrum_bounds=spectrum_bounds)
        self._scale = float(scale)
        self._eigh_cache: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._lam_total_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def terms(self) -> tuple[np.ndarray, ...]:
        return self._terms

    @property
    def scale(self) -> float:
        return self._scale

    def _apply_terms(self, tensor: np.ndarray, *, transpose: bool = False
                     ) -> np.ndarray:
        """Σ_i (T_i along axis i) on a tensor with optional trailing batch axis."""
        acc = np.zeros_like(tensor)
        for axis, term in enumerate(self._terms):
            factor = term.T if transpose else term
            acc += np.moveaxis(np.tensordot(factor, tensor, axes=(1, axis)),
                               0, axis)
        return acc

    def _apply(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        tensor = x.reshape(*self._dims, *x.shape[1:])
        out = self._scale * self._apply_terms(tensor, transpose=transpose)
        return out.reshape(x.shape)

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        total = 0
        for i, term in enumerate(self._terms):
            total += int(np.count_nonzero(term)) * (self._n // self._dims[i])
        return total

    def _component_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f"term[{i}]", term) for i, term in enumerate(self._terms)]

    def _meta(self) -> dict:
        meta = super()._meta()
        meta.update({"dims": list(self._dims), "scale": _fmt(self._scale)})
        return meta

    def _dense(self) -> np.ndarray:
        total = np.zeros((self._n, self._n))
        for axis in range(len(self._terms)):
            factor = np.eye(1)
            for position, dim in enumerate(self._dims):
                block = self._terms[axis] if position == axis else np.eye(dim)
                factor = np.kron(factor, block)
            total += factor
        return self._scale * total

    # ------------------------------------------------------------------ #
    @property
    def is_symmetric(self) -> bool:
        return all(np.array_equal(t, t.T) for t in self._terms)

    def _eigh(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._eigh_cache is None:
            if not self.is_symmetric:
                raise ValueError("eigendecomposition requires symmetric terms")
            self._eigh_cache = [tuple(np.linalg.eigh(t)) for t in self._terms]
        return self._eigh_cache

    def _computed_bounds(self) -> tuple[float, float] | None:
        if not self.is_symmetric:
            return None
        lows = sum(float(lam[0]) for lam, _ in self._eigh())
        highs = sum(float(lam[-1]) for lam, _ in self._eigh())
        lo, hi = sorted((self._scale * lows, self._scale * highs))
        return (lo, hi)

    # ------------------------------------------------------------------ #
    def eigen_apply(self, b, transform) -> np.ndarray:
        """Apply ``Q f(Λ) Qᵀ`` where ``Λ`` is the *unscaled* Kronecker spectrum.

        ``transform`` receives the tensor of eigenvalue sums ``λ_{j_1} + … +
        λ_{j_d}`` (without :attr:`scale`) and returns the spectral multiplier
        — the fast-diagonalisation backbone shared by :meth:`solve` and the
        shifted solves of :class:`DiagonalShiftOperator`.
        """
        factors = self._eigh()
        rhs = np.asarray(b, dtype=np.float64)
        vector = rhs.ndim == 1
        tensor = rhs.reshape(*self._dims, -1)
        for axis, (_, q) in enumerate(factors):
            tensor = np.moveaxis(np.tensordot(q.T, tensor, axes=(1, axis)),
                                 0, axis)
        if self._lam_total_cache is None:
            lam_total = factors[0][0]
            for lam, _ in factors[1:]:
                lam_total = np.add.outer(lam_total, lam)
            lam_total = np.asarray(lam_total)
            lam_total.setflags(write=False)
            self._lam_total_cache = lam_total
        tensor = tensor * np.asarray(
            transform(self._lam_total_cache))[..., None]
        for axis, (_, q) in enumerate(factors):
            tensor = np.moveaxis(np.tensordot(q, tensor, axes=(1, axis)),
                                 0, axis)
        out = tensor.reshape(self._n, -1)
        return out[:, 0] if vector else out

    def solve(self, b) -> np.ndarray:
        """Fast-diagonalisation solve — exact, ``O(N n)`` per right-hand side."""
        return self.eigen_apply(b, lambda lam: 1.0 / (self._scale * lam))


# ---------------------------------------------------------------------- #
# diagonal shifts
# ---------------------------------------------------------------------- #
class DiagonalShiftOperator(StructuredOperator):
    """``scale · B + shift · I`` over a structured base operator ``B``.

    Covers the ridge-regularised Laplacians (``L + γI``), implicit-Euler
    steps (``I + Δt α L``) and spectral shifts (``T − σI``) without storing
    anything beyond the base operator.  Spectrum bounds and fast solves
    transfer from the base: the spectrum maps affinely, a Kronecker base
    solves through the same fast diagonalisation, a banded base through a
    banded factorisation, and symmetric definite shifts through CG.
    """

    structure = "diagonal-shift"

    def __init__(self, base: StructuredOperator, *, shift: float = 0.0,
                 scale: float = 1.0, spectrum_bounds=None) -> None:
        if not is_structured_operator(base):
            raise TypeError("base must be a StructuredOperator")
        super().__init__(base.dimension, spectrum_bounds=spectrum_bounds)
        self._base = base
        self._shift = float(shift)
        self._scale = float(scale)

    # ------------------------------------------------------------------ #
    @property
    def base(self) -> StructuredOperator:
        return self._base

    @property
    def shift(self) -> float:
        return self._shift

    @property
    def scale(self) -> float:
        return self._scale

    def _apply(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """``scale · (B x) + shift · x`` in place on the base product (which
        this call owns); a ``× 1.0`` is exact, so it is skipped."""
        out = self._base._apply(x, transpose)
        if self._scale != 1.0:
            out *= self._scale
        out += x if self._shift == 1.0 else self._shift * x
        return out

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return self._base.nnz + self._n

    def _component_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f"base.{name}", arr)
                for name, arr in self._base._component_arrays()]

    def _meta(self) -> dict:
        meta = super()._meta()
        meta.update({"shift": _fmt(self._shift), "scale": _fmt(self._scale),
                     "base": self._base._meta()})
        return meta

    def _dense(self) -> np.ndarray:
        return (self._scale * self._base.to_dense(force=True)
                + self._shift * np.eye(self._n))

    # ------------------------------------------------------------------ #
    @property
    def is_symmetric(self) -> bool:
        return self._base.is_symmetric

    def _computed_bounds(self) -> tuple[float, float] | None:
        bounds = self._base.eigenvalue_bounds()
        if bounds is None:
            return None
        mapped = sorted((self._scale * bounds[0] + self._shift,
                         self._scale * bounds[1] + self._shift))
        return (float(mapped[0]), float(mapped[1]))

    # ------------------------------------------------------------------ #
    def solve(self, b) -> np.ndarray:
        base = self._base
        if isinstance(base, KroneckerSumOperator) and base.is_symmetric:
            scale = self._scale * base.scale
            return base.eigen_apply(
                b, lambda lam: 1.0 / (scale * lam + self._shift))
        if isinstance(base, BandedOperator):
            bands = {k: self._scale * d for k, d in base._bands.items()}
            diag = bands.get(0, np.zeros(self._n)) + self._shift
            bands[0] = diag
            return BandedOperator(self._n, bands).solve(b)
        bounds = self.eigenvalue_bounds()
        if self.is_symmetric and bounds is not None and bounds[0] * bounds[1] > 0:
            return self._cg_solve(b)
        return super().solve(b)


# ---------------------------------------------------------------------- #
# transport
# ---------------------------------------------------------------------- #
def operator_from_state(meta: dict, arrays: list) -> StructuredOperator:
    """Rebuild an operator from :meth:`StructuredOperator.to_state` output.

    ``arrays`` may be views into a shared-memory segment: read-only
    contiguous float64/int64 arrays are adopted without copying, which is
    what makes the worker-side attach zero-copy.
    """
    kind = meta.get("kind")
    n = int(meta["n"])
    bounds = meta.get("spectrum_bounds")
    if bounds is not None:
        bounds = (float(bounds[0]), float(bounds[1]))
    if kind == "banded":
        offsets = [int(k) for k in meta["offsets"]]
        if len(offsets) != len(arrays):
            raise ValueError("banded state: offsets and arrays disagree")
        return BandedOperator(n, dict(zip(offsets, arrays)),
                              spectrum_bounds=bounds)
    if kind == "csr":
        data, indices, indptr = arrays
        return CSROperator(data, indices, indptr, n, spectrum_bounds=bounds,
                           symmetric=meta.get("symmetric"))
    if kind == "kronecker-sum":
        return KroneckerSumOperator(arrays, scale=float(meta["scale"]),
                                    spectrum_bounds=bounds)
    if kind == "diagonal-shift":
        base = operator_from_state(meta["base"], arrays)
        return DiagonalShiftOperator(base, shift=float(meta["shift"]),
                                     scale=float(meta["scale"]),
                                     spectrum_bounds=bounds)
    raise ValueError(f"unknown structured-operator kind {kind!r}")


def operator_state_payload(operator: StructuredOperator,
                           *, prefix: str = "operator"
                           ) -> tuple[dict, dict]:
    """Versioned (JSON-able meta, named-array dict) form of an operator.

    This is the persistence format: the arrays carry unique names so they
    can ride inside one payload next to a backend's own arrays (the
    :class:`~repro.engine.store.SynthesisStore` entry), and the meta embeds
    :data:`OPERATOR_STATE_VERSION` so a layout change turns old entries
    into clean store misses instead of wrong restores.  The version lives
    in the *payload*, not in :meth:`StructuredOperator._meta`, so operator
    fingerprints are untouched.
    """
    meta, arrays = operator.to_state()
    payload_meta = {
        "state_version": OPERATOR_STATE_VERSION,
        "meta": meta,
        "num_arrays": len(arrays),
    }
    payload_arrays = {f"{prefix}_arr{i}": np.asarray(arr)
                      for i, arr in enumerate(arrays)}
    return payload_meta, payload_arrays


def operator_from_payload(payload_meta: dict, payload_arrays: dict,
                          *, prefix: str = "operator") -> StructuredOperator:
    """Inverse of :func:`operator_state_payload` (version-checked)."""
    version = payload_meta.get("state_version")
    if version != OPERATOR_STATE_VERSION:
        raise ValueError(
            f"operator-state payload version {version!r} is not the "
            f"supported version {OPERATOR_STATE_VERSION}")
    count = int(payload_meta["num_arrays"])
    arrays = [payload_arrays[f"{prefix}_arr{i}"] for i in range(count)]
    return operator_from_state(payload_meta["meta"], arrays)
