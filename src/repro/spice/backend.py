"""Pluggable linear-solver backends for the MNA engine.

Every analysis in :mod:`repro.spice` reduces to solving linear systems
with the *same sparsity structure*: the Newton system ``J dx = -r``
(DC and transient) and the small-signal sweep ``(G + j omega C) X = B``
(AC). A backend owns that structure for one circuit and solves those
systems.

At construction a backend compiles the circuit into a *stamp plan*:
the distinct non-ground coordinates the elements declare in
:meth:`~repro.spice.elements.Element.stamp_coords` are laid out once, in
CSC order, as the slots of a flat value buffer with one trailing sink
slot for ground, and every element's ``load``/``ac_load`` method is
paired with the slots of its declared coordinates. An assembly zeroes a
Python float buffer, runs the loads in element order and converts the
buffer with one numpy call. Every entry is the same left-to-right sum
of the same values as the per-element ``M[row, col] += value`` loop, so
the plan changes no bit of any result. The buffer holds only declared
entries, so assembly cost grows with them, not with ``n ** 2``.

* :class:`DenseBackend` — scatters the buffer into a zeroed
  column-major ``(n, n)`` matrix, which reaches LAPACK without a
  transpose copy. Newton systems are solved by LAPACK ``dgesv``, the
  getrf/getrs pair behind ``numpy.linalg.solve``, called directly. The
  AC sweep is chunked so a long frequency grid never materializes the
  full ``(n_f, n, n)`` tensor at once.
* :class:`SparseBackend` — the buffer *is* the CSC data array of the
  frozen structure. Systems are factorized with SuperLU
  (``scipy.sparse.linalg.splu``); the numeric factorization is cached
  and reused whenever the assembled values are unchanged — which makes
  linear circuits factor once per transient run instead of once per
  Newton iteration.

A custom element without ``stamp_coords``/``load`` is refused with
``NotImplementedError`` when the backend is built.

``resolve_backend(circuit, "auto")`` switches to the sparse backend at
:data:`SPARSE_AUTO_THRESHOLD` unknowns, the empirical dense/sparse
crossover for these Python-assembled systems (see
``benchmarks/test_substrate_sparse.py``).

Backends raise :class:`numpy.linalg.LinAlgError` on singular systems
regardless of the underlying solver, so the analyses translate failures
uniformly.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sparse
from scipy.linalg.lapack import dgesv as _dgesv
from scipy.sparse.linalg import splu as _splu

from .elements import Element, StampContext, padded

__all__ = [
    "DenseBackend",
    "SparseBackend",
    "resolve_backend",
    "SPARSE_AUTO_THRESHOLD",
]

#: Unknown count at which ``backend="auto"`` switches dense -> sparse.
SPARSE_AUTO_THRESHOLD = 128

#: Peak bytes one dense AC frequency chunk may allocate for its
#: ``(chunk, n, n)`` complex system (the chunk size is derived from it).
AC_CHUNK_BYTES = 32 * 1024 * 1024


def _compile(circuit) -> tuple[list, list, list]:
    """Compile ``circuit`` into ``(coords, loads, ac_loads)``.

    ``coords`` are the distinct non-ground declared coordinates sorted
    by column, then row; a buffer slot ``k < len(coords)`` holds entry
    ``coords[k]`` and slot ``len(coords)`` is the ground sink. ``loads``
    and ``ac_loads`` pair each element's bound method, in element order,
    with the slots of its declared coordinates. Raises
    ``NotImplementedError`` naming the class of an element without a
    stamp plan.
    """
    declarations = []
    for element in circuit.elements:
        if type(element).load is Element.load:
            raise NotImplementedError(
                f"{type(element).__name__} does not implement stamp_coords/load"
            )
        declarations.append((element, element.stamp_coords()))
    coords = sorted(
        {
            (row, col)
            for _, declared in declarations
            for row, col in declared
            if row >= 0 and col >= 0
        },
        key=lambda rc: (rc[1], rc[0]),
    )
    slot_of = {coord: slot for slot, coord in enumerate(coords)}
    sink = len(coords)
    loads, ac_loads = [], []
    for element, declared in declarations:
        slots = tuple(slot_of.get(coord, sink) for coord in declared)
        loads.append((element.load, slots))
        ac_loads.append((element.ac_load, slots))
    return coords, loads, ac_loads


def _load_newton(loads: list, nnz: int, n: int, x: np.ndarray, ctx) -> tuple:
    """Run the Newton loads; returns the padded value and residual lists."""
    values = [0.0] * (nnz + 1)
    residual = [0.0] * (n + 1)
    x = padded(x)
    prev = None if ctx.x_prev is None else padded(ctx.x_prev)
    for load, slots in loads:
        load(slots, values, residual, x, prev, ctx)
    return values, residual


def _load_ac(ac_loads: list, nnz: int, n: int, x_op, gmin: float) -> tuple:
    """Run the AC loads; returns the padded ``G``, ``C`` and ``B`` lists."""
    conductance = [0.0] * (nnz + 1)
    susceptance = [0.0] * (nnz + 1)
    rhs = [0j] * (n + 1)
    ctx = StampContext(mode="ac", gmin=gmin)
    x_op = padded(np.asarray(x_op, dtype=float))
    for ac_load, slots in ac_loads:
        ac_load(slots, conductance, susceptance, rhs, x_op, ctx)
    return conductance, susceptance, rhs


class DenseBackend:
    """Dense MNA assembly + LAPACK solves (the historical behavior)."""

    name = "dense"

    def __init__(self, circuit):
        circuit._elaborate_if_needed()
        self.circuit = circuit
        self.n = n = circuit.size
        coords, self._loads, self._ac_loads = _compile(circuit)
        self.nnz = len(coords)
        self._positions = np.array(
            [row + col * n for row, col in coords], dtype=np.intp
        )

    def _matrix(self, values: list) -> np.ndarray:
        """The ``(n, n)`` matrix of a padded value buffer."""
        n = self.n
        flat = np.zeros(n * n)
        flat[self._positions] = values[:-1]
        return flat.reshape(n, n).T

    # ------------------------------------------------------------------
    def assemble(
        self, x: np.ndarray, ctx: StampContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stamp the Newton system; returns ``(jacobian, residual)``."""
        values, residual = _load_newton(self._loads, self.nnz, self.n, x, ctx)
        return self._matrix(values), np.array(residual[:-1])

    def solve_newton(self, x: np.ndarray, ctx: StampContext) -> np.ndarray:
        """Assemble at ``x`` and return the Newton update ``-J^-1 r``."""
        jacobian, residual = self.assemble(x, ctx)
        _, _, delta, info = _dgesv(
            jacobian, -residual, overwrite_a=True, overwrite_b=True
        )
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return delta

    # ------------------------------------------------------------------
    def assemble_ac(
        self, x_op: np.ndarray, gmin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stamp the small-signal system; returns dense ``(G, C, B)``."""
        g, c, rhs = _load_ac(self._ac_loads, self.nnz, self.n, x_op, gmin)
        return self._matrix(g), self._matrix(c), np.array(rhs[:-1], dtype=complex)

    def solve_ac_sweep(
        self, omega: np.ndarray, x_op: np.ndarray, gmin: float
    ) -> np.ndarray:
        """Solve ``(G + j w C) X = B`` for every angular frequency.

        Frequencies are batched through LAPACK in chunks sized so the
        ``(chunk, n, n)`` complex tensor stays below
        :data:`AC_CHUNK_BYTES` — a 10k-point sweep of a large circuit no
        longer allocates the full frequency batch at once. Each matrix
        in a batch is factorized independently, so chunking does not
        change the numerics.
        """
        conductance, susceptance, rhs = self.assemble_ac(x_op, gmin)
        n = self.n
        chunk = max(1, int(AC_CHUNK_BYTES // max(1, 16 * n * n)))
        x = np.empty((omega.size, n), dtype=complex)
        for start in range(0, omega.size, chunk):
            w = omega[start : start + chunk]
            system = (
                conductance[None, :, :]
                + 1j * w[:, None, None] * susceptance[None, :, :]
            )
            stacked_rhs = np.broadcast_to(rhs, (w.size, n))[:, :, None]
            x[start : start + chunk] = np.linalg.solve(system, stacked_rhs)[:, :, 0]
        return x


class SparseBackend:
    """CSC assembly + SuperLU solves with a frozen symbolic structure.

    The CSC ``indices``/``indptr`` arrays and the slot of every declared
    coordinate are computed once in the constructor; every assembly
    afterwards fills the CSC data array by slot. The most recent
    Newton factorization is kept and reused verbatim when the assembled
    values are unchanged, so linear circuits pay for one factorization
    per (dt, method) rather than one per timepoint.
    """

    name = "sparse"

    def __init__(self, circuit):
        circuit._elaborate_if_needed()
        self.circuit = circuit
        self.n = circuit.size
        coords, self._loads, self._ac_loads = _compile(circuit)
        self.nnz = len(coords)
        self._indices = np.array([row for row, _ in coords], dtype=np.int32)
        counts = np.bincount(
            np.array([col for _, col in coords], dtype=np.intp),
            minlength=self.n,
        )
        self._indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(counts, out=self._indptr[1:])
        self._lu = None
        self._lu_data: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _matrix(self, data: np.ndarray) -> "_sparse.csc_matrix":
        return _sparse.csc_matrix(
            (data, self._indices, self._indptr), shape=(self.n, self.n)
        )

    @staticmethod
    def _factorize(matrix):
        """SuperLU factorization, singularity mapped to ``LinAlgError``."""
        try:
            return _splu(matrix)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc

    # ------------------------------------------------------------------
    def assemble(
        self, x: np.ndarray, ctx: StampContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stamp the Newton system; returns ``(csc_data, residual)``."""
        values, residual = _load_newton(self._loads, self.nnz, self.n, x, ctx)
        return np.array(values[:-1]), np.array(residual[:-1])

    def solve_newton(self, x: np.ndarray, ctx: StampContext) -> np.ndarray:
        """Assemble at ``x`` and return the Newton update ``-J^-1 r``."""
        data, residual = self.assemble(x, ctx)
        if self._lu is None or not np.array_equal(data, self._lu_data):
            self._lu = self._factorize(self._matrix(data))
            self._lu_data = data
        return self._lu.solve(-residual)

    # ------------------------------------------------------------------
    def assemble_ac(
        self, x_op: np.ndarray, gmin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stamp the small-signal system; returns ``(g_data, c_data, B)``.

        ``g_data``/``c_data`` are value arrays over the *shared* CSC
        structure, so the frequency-dependent system is the cheap axpy
        ``g_data + j w c_data`` — no restamping across the sweep.
        """
        g, c, rhs = _load_ac(self._ac_loads, self.nnz, self.n, x_op, gmin)
        return (
            np.array(g[:-1]), np.array(c[:-1]), np.array(rhs[:-1], dtype=complex)
        )

    def solve_ac_sweep(
        self, omega: np.ndarray, x_op: np.ndarray, gmin: float
    ) -> np.ndarray:
        """Solve ``(G + j w C) X = B`` for every angular frequency.

        One sparse factorization per frequency over the fixed structure;
        memory stays O(nnz) regardless of the sweep length.
        """
        g_data, c_data, rhs = self.assemble_ac(x_op, gmin)
        x = np.empty((omega.size, self.n), dtype=complex)
        for k, w in enumerate(omega):
            lu = self._factorize(self._matrix(g_data + (1j * w) * c_data))
            x[k] = lu.solve(rhs)
        return x


def resolve_backend(circuit, backend="auto"):
    """Return the solver backend to use for ``circuit``.

    ``backend`` may be ``"dense"``, ``"sparse"``, ``"auto"`` (sparse at
    :data:`SPARSE_AUTO_THRESHOLD` unknowns and beyond), or an already
    constructed backend instance for ``circuit`` — passing an instance
    amortizes the symbolic analysis across repeated solves of the same
    netlist.
    """
    if not isinstance(backend, str):
        if getattr(backend, "circuit", None) is not circuit:
            raise ValueError("backend instance was built for a different circuit")
        return backend
    if backend == "auto":
        backend = "sparse" if circuit.size >= SPARSE_AUTO_THRESHOLD else "dense"
    if backend == "dense":
        return DenseBackend(circuit)
    if backend == "sparse":
        return SparseBackend(circuit)
    raise ValueError(
        f"unknown backend {backend!r}; expected 'dense', 'sparse', 'auto' "
        "or a backend instance"
    )
