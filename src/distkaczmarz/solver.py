"""Relaxed Kaczmarz updates composed into tree and DAG iterations.

One iteration on a tree disperses an estimate from the root to the leaves,
applying the relaxed hyperplane projection of each node's equation on the
way down, then pools the leaf estimates back into a single weighted average.
On a DAG every minimal node holds its own estimate; dispersion walks the
nodes in topological order blending parent estimates with the dispersion
weights before each update, and pooling returns to each minimal node the
estimates of the maximal nodes, weighted by the pooling weights along every
descent.  A tree runs as the DAG whose only minimal node is the root.

Every pass goes through one kernel, built once per system and network and
handed the effective relaxation on each call: :func:`_kernel` keeps it on
the system, for the last network the system ran on, as the system keeps
its row-space basis, so the analyses and solves of one system and network
share one kernel and one SVD.  It runs the network's level
schedule (:class:`~distkaczmarz.topology.Schedule`, cached on the network),
whose level order is the network's ``order``, its Kahn levels one after
another: the nodes of one level never depend on each other, so each level
is one gather or blend of predecessor blocks, one batched ``a_v* X`` and
one broadcast rank-1 update, and pooling is one mass-weighted sum of the
maximal nodes' blocks.  The kernel carries a block of columns instead
of a single vector: one column is the engine, identity columns give the
closed-form affine map of :mod:`distkaczmarz.closedform`, and identity
columns under a per-column relaxation give a whole chunk of sweep points.
One point's map is assembled instead from every node's update written as a
homogeneous ``(d + 1)``-square map, built in one batched step, in one of two
ways.  The walk runs the levels on those maps: a level is one gather or
blend of predecessor states, which carry the constant column's selector as
a last row, and one batched product with the level's maps, two or three
numpy calls instead of about six.  On a tree the levels take D steps for D
levels, so one point's map on a deep, narrow tree is assembled by pointer
doubling (Wyllie's pointer jumping, the prefix scan of Hillis and Steele):
each of ``ceil(log2 D)`` rounds composes every node's map with that of its
current jump target and doubles the jump.  The walk costs ``(d + 1)^2``
products per column and node against the push's ``2 d``, and doubling
``V (d + 1)^3`` flops a round, so :func:`_one_point` prices the push, the
walk and, on a tree, doubling on V, D, d, the column count and whether the
rows are complex, and takes the cheapest; omega stacks and one-column
pushes keep the push.  Maps are assembled without floating-point warnings:
one that overflows holds inf or NaN entries.
``tree_iterate`` and ``dag_iterate`` run the push on one column; ``solve``
reads the pass map ``x -> B x + c`` as the one matrix ``[B | c]`` and
iterates it in homogeneous form: each iterate row carries a trailing 1, so
a pass is one ``[B | c].dot([x; 1])`` into the next row of a buffer.  The
kernel keeps the last one-point map it assembled (:meth:`_Pass.pass_map`),
keyed by the effective relaxation's bits, so an analysis and a solve of
one system, network and relaxation assemble it once.  When
:func:`solve_route` finds that one pass is cheaper than assembling or
applying ``B``, ``solve`` runs the kernel on one column per iteration
instead, and the kernel keeps no map.
Either way ``solve`` has one loop: it fills a block of iterates, one pass
per row, writes the block's steps behind them with one subtraction, and
takes the norms that decide the stop for the whole block with one
reduction (up to 64 passes a block on the map, where a pass costs one
numpy call; 1 on the kernel, where a pass past the stop would be wasted).
Iterate norms only feed the divergence test, so a block whose largest
entry modulus cannot put any block norm past the bound reduces its step
norms alone.

A solve run owns its state and is single threaded; distinct runs over the
same immutable system and network may execute concurrently.  They share
the system's kernel, whose tables do not depend on the relaxation and whose
calls allocate their own state; two threads that fill an empty slot only
build equal kernels twice, and two that need the maps of different
relaxations only assemble them twice, since the map slot is replaced by
one attribute write and a call returns the map it read or made.  Every pass
runs the same numpy operations over the same level layout, and the pooled
sum is one matrix product in a fixed order of the maximal nodes, so
repeated runs give identical results.
"""

from __future__ import annotations

import math
from dataclasses import field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateEquationError, DimensionError, DivergenceError, InvalidNetworkError
from .numerics import _checked, _frozen, _is_int, _is_real, _real_if_exact, _require_counts
from .numerics import _stack, _vector, as_matrix, as_vector, orthonormal_basis, value_dataclass
from .topology import DagNetwork, TreeNetwork

DIVERGENCE_FACTOR = 1e12
# ``solve`` iterates the assembled map while it costs at most a few passes to
# build (about ``s d^2`` work per node) and one ``B x`` stays well below one
# pass (``(s d)^2`` flops against ``V + E`` node and edge visits).
AFFINE_ASSEMBLY_LIMIT = 4096
AFFINE_MATVEC_RATIO = 1024
# Passes per block of ``solve`` on the affine route: one ``B x + c`` costs about
# as much as one numpy call, so the norms of a block are taken together.
AFFINE_BLOCK = 64
RATE_WINDOW = 16  # step ratios behind ``SolveReport.observed_rate``
# ``_one_point`` prices the three ways to assemble one point's map, V nodes on D
# levels with m = s d + 1 columns, in units of one node's share of a batched call:
#   push      PUSH_LEVEL D
#   walk      WALK_LEVEL D + V (1 + m (d+1)^2 / WALK_SQUARE) (COMPLEX if complex)
#   doubling  V ceil(log2 D) (1 + (d+1)^3 / DOUBLING_CUBE) (COMPLEX if complex)
# Fitted, by the least summed regret, to the three ways' times on trees (chains,
# caterpillars, stars, binary and random recursive trees) and layered and random
# DAGs at d = 1..24 with real and complex rows (2-vCPU x86_64, OpenBLAS on one
# thread): a unit is about 70 ns, a push level about 8 us whatever the dtype.
_PUSH_LEVEL = 120
_WALK_LEVEL = 48
_WALK_SQUARE = 800
_DOUBLING_CUBE = 600
_COMPLEX = 4


@value_dataclass
class LinearSystem:
    """One equation per node: <x, a_v> = b_v.

    ``rows[v]`` stores the vector a_v whose conjugate transpose is row v of
    the system matrix, so for real data the rows coincide with the matrix.
    ``rows`` and ``rhs`` are read-only copies of the caller's arrays, both
    ``float64`` when no entry of either has a nonzero imaginary part (also
    when they are given as ``complex128``), else both ``complex128``; every
    pass, map and estimate built from the system takes that dtype.

    A system keeps what it derives without the relaxation, outside its
    fields as a network keeps its schedule: its row-space basis
    (:attr:`row_basis`) and the pass kernel of the last network it ran on
    (:func:`_kernel`), with that kernel's last one-point map
    (:meth:`_Pass.pass_map`).  Equality, repr, copies and pickles see only
    the fields, so a copy starts without them.
    """

    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        rows = as_matrix(self.rows)
        rhs = as_vector(self.rhs)
        if rows.shape[0] != rhs.shape[0]:
            raise DimensionError(
                f"{rows.shape[0]} rows but {rhs.shape[0]} right-hand side entries"
            )
        if rows.imag.any() or rhs.imag.any():
            dtype = np.result_type(rows, rhs)
            rows, rhs = rows.astype(dtype, copy=False), rhs.astype(dtype, copy=False)
        else:  # a real system runs in real arithmetic
            rows, rhs = rows.real, rhs.real
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.argmin(norms))
            raise DegenerateEquationError(f"row {bad} has zero norm")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def node_count(self) -> int:
        return self.rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def row_basis(self) -> np.ndarray:
        """Orthonormal basis of the span of the rows, as the rows of a read-only ``(r, d)`` array.

        One SVD (:func:`~distkaczmarz.numerics.orthonormal_basis`) on first
        read; a race between threads only computes equal values twice.
        """
        return _frozen(_stack(orthonormal_basis(self.rows), self.ambient_dim))

    def system_matrix(self) -> np.ndarray:
        """The matrix A with rows a_v*; A @ x stacks the values <x, a_v>."""
        return self.rows.conj()

    def residual_norm(self, x: np.ndarray) -> float:
        """``|A x - b|`` of one finite estimate of length d, else a named error."""
        return float(np.linalg.norm(self.system_matrix() @ _vector(x, self.ambient_dim) - self.rhs))


def _checked_omega(omega) -> np.ndarray:
    """Relaxation parameters as a float array of any shape; each must be finite and nonnegative."""
    om = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(om)) or np.any(om < 0.0):
        raise ValueError("relaxation parameters must be finite and nonnegative")
    return om


@value_dataclass
class RelaxationAssignment:
    """Per-node relaxation parameters plus a uniform scale in (0, 1].

    ``omega`` is a read-only copy of the caller's array.
    """

    omega: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        om = _checked_omega(self.omega)
        if om.ndim != 1:
            raise DimensionError("omega must be one value per node")
        if not (_is_real(self.scale) and 0.0 < self.scale <= 1.0):
            raise ValueError(f"scale must be a number in (0, 1], got {self.scale!r}")
        object.__setattr__(self, "omega", om)

    @classmethod
    def uniform(cls, node_count: int, value: float = 1.0, scale: float = 1.0):
        """``value`` at each of ``node_count`` nodes; a wrong kind of either is a ``ValueError``."""
        _require_counts(node_count=node_count)
        if not _is_real(value):
            raise ValueError(f"value must be a real number, got {value!r}")
        return cls(np.full(node_count, float(value)), scale)

    def effective(self) -> np.ndarray:
        return self.scale * self.omega

    def scaled(self, scale: float) -> "RelaxationAssignment":
        return RelaxationAssignment(self.omega, scale)


@value_dataclass
class SolverConfig:
    """Pass budget, step tolerance and start.

    ``initial_estimate`` is a read-only copy, narrowed to its real part when
    its imaginary part is exactly zero, as :class:`LinearSystem` narrows.
    Blocks of different shapes raise :class:`DimensionError` naming their
    shapes; :func:`solve` reads every other start by the estimate rule.
    """

    max_iterations: int = 10_000
    step_tolerance: float = 1e-10
    initial_estimate: np.ndarray | None = None

    def __post_init__(self):
        it = self.max_iterations
        if not _is_int(it, 1, math.inf):
            raise ValueError(f"max_iterations must be a positive integer, got {it!r}")
        tol = self.step_tolerance
        if not (_is_real(tol) and 0.0 < tol < math.inf):
            raise ValueError(f"step_tolerance must be a positive finite number, got {tol!r}")
        if (start := self.initial_estimate) is not None:
            try:
                start = np.asarray(start)
            except ValueError:  # numpy's inhomogeneous shape: blocks of different shapes
                shapes = [np.asarray(b, dtype=object).shape for b in start]
                raise DimensionError(f"initial estimate blocks differ in shape: {shapes}") from None
            object.__setattr__(self, "initial_estimate", _real_if_exact(start))


@value_dataclass(frozen=False)
class SolveReport:
    """Iteration outcome; trace lengths equal ``iterations_used``.

    ``final_estimates`` is a single vector for trees and one block per
    minimal node (ascending id) for DAGs.  On DAGs the step and residual
    traces record the worst block per iteration.  ``route`` names how the
    passes ran: ``"affine"`` (the assembled map) or ``"engine"`` (the kernel).
    """

    final_estimates: object
    iterations_used: int
    step_norms: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    converged: bool = False
    route: str = "engine"

    @property
    def observed_rate(self) -> float | None:
        """The contraction per pass seen at the end of the run, ``None`` below two steps.

        The geometric mean of the last ``m`` (at most ``RATE_WINDOW``) ratios
        of consecutive step norms, ``(steps[-1] / steps[-1-m]) ** (1/m)``; the
        theory predicts the restricted spectral radius.
        """
        m = min(len(self.step_norms) - 1, RATE_WINDOW)
        if m < 1:
            return None
        return (self.step_norms[-1] / self.step_norms[-1 - m]) ** (1.0 / m)


# ---------------------------------------------------------------------------
# Single-equation updates


def kaczmarz_update(x, a, b, omega: float) -> np.ndarray:
    """Relaxed Kaczmarz step: x + omega * (b - a*x) / |a|^2 * a; x and a of one length.

    ``omega`` must be a real number (``ValueError`` otherwise).
    """
    if not _is_real(omega):
        raise ValueError(f"omega must be a real number, got {omega!r}")
    av = as_vector(a)
    xv = _vector(x, len(av))
    nrm2 = float(np.vdot(av, av).real)
    if nrm2 == 0.0:
        raise DegenerateEquationError("zero row in Kaczmarz update")
    return xv + omega * ((b - np.vdot(av, xv)) / nrm2) * av


def project_null(x, a) -> np.ndarray:
    """Orthogonal projection of x onto the hyperplane a*x = 0."""
    return kaczmarz_update(x, a, 0.0, 1.0)


def project_affine(x, a, b) -> np.ndarray:
    """Affine projection of x onto the hyperplane a*x = b."""
    return kaczmarz_update(x, a, b, 1.0)


def relaxed_p(x, a, omega: float) -> np.ndarray:
    """(1 - omega) x + omega * project_null(x, a); ``omega`` a real number, else ``ValueError``."""
    if not _is_real(omega):
        raise ValueError(f"omega must be a real number, got {omega!r}")
    return (1.0 - omega) * as_vector(x) + omega * project_null(x, a)


def relaxed_q(x, a, b, omega: float) -> np.ndarray:
    """(1 - omega) x + omega * project_affine(x, a, b); same as kaczmarz_update."""
    return kaczmarz_update(x, a, b, omega)


# ---------------------------------------------------------------------------
# Network iterations


def _require_assignment(sys: LinearSystem, relax: RelaxationAssignment) -> None:
    """Raise unless ``sys`` is a system and ``relax`` an assignment of one value per equation.

    Either of another type raises the ``TypeError`` of
    :func:`~distkaczmarz.numerics._checked`.
    """
    _checked(sys, LinearSystem)
    if _checked(relax, RelaxationAssignment).omega.shape[0] != sys.node_count:
        raise DimensionError(f"{relax.omega.shape[0]} relaxation values for {sys.node_count} nodes")


def _require_valid(sys: LinearSystem, net, expected=(TreeNetwork, DagNetwork), relax=None) -> None:
    """Raise unless ``net`` is a valid network of an ``expected`` type, one node per equation.

    ``sys`` must be a :class:`LinearSystem` and, given, ``relax`` a
    :class:`RelaxationAssignment` of one value per node; a wrong type of
    any of the three raises the ``TypeError`` of
    :func:`~distkaczmarz.numerics._checked`.  The verdict is the one the
    network caches, so a network is validated once.
    """
    if _checked(sys, LinearSystem).node_count != _checked(net, *expected).node_count:
        raise DimensionError("system and network disagree on the node count")
    if relax is not None:
        _require_assignment(sys, relax)
    if net.violations:
        kind = "tree" if isinstance(net, TreeNetwork) else "DAG"
        raise InvalidNetworkError(f"invalid {kind} network", list(net.violations))


class _Pass:
    """Dispersion/pooling passes over a fixed system and network, one level at a time.

    The network's cached :class:`~distkaczmarz.topology.Schedule` gives the
    levels; the kernel keeps the system in their level order, the
    network's ``order``: the equation vectors as columns ``cols`` and
    conjugate rows ``conj``, their squared norms and the right-hand side.
    ``sources`` lists the minimal nodes in ascending order and ``size`` is
    the node plus edge count V + E.  The effective relaxation comes with
    each call, ``(V,)`` or ``(V, m)`` with one column per kernel column, in
    node id order; ``width`` is the kernel columns of one point of
    :meth:`affine`.  ``one_point`` names how :meth:`affine` assembles one
    point, as :func:`_one_point` prices it: ``"doubled"``
    (:meth:`_doubled`), ``"walked"`` (:meth:`_walked`) or ``"pushed"``
    (:meth:`push`).  The kernel holds only what a pass needs: what
    depends on the network alone, such as the path masses and a sweep
    axis's degree, is a walk of the schedule that ``topology`` builds, and
    outside ``topology`` only this class reads the schedule's padded level
    tables.  Its tables do not depend on the relaxation and every call
    allocates its own state, so threads share one kernel; build it with
    :func:`_kernel`, which keeps it on the system.  One slot does depend on
    the relaxation: :meth:`pass_map` keeps the last one-point map it
    assembled, where :func:`solve_route` would iterate it.
    """

    def __init__(self, sys: LinearSystem, net: TreeNetwork | DagNetwork):
        self.schedule = net.schedule
        order = self.schedule.order
        rows = sys.rows[order]
        self.sources = self.schedule.sources
        self.size = self.schedule.size
        self.dim = sys.ambient_dim
        self.width = len(self.sources) * self.dim + 1
        self.rhs = sys.rhs[order]
        self.cols = rows[:, :, None]  # a_v as a column
        self.conj = rows.conj()[:, None, :]  # a_v* as a row
        self.norm2 = np.einsum("ij,ij->i", rows.conj(), rows).real
        self.one_point = _one_point(
            len(order), len(self.schedule.levels), self.width, self.dim, np.iscomplexobj(rows),
            self.schedule.parent is not None,
        )
        self.last_map = None  # (omega.tobytes(), [B | c]) of the last kept point

    def push(self, starts, t: np.ndarray, omega) -> np.ndarray:
        """Carry one (d, m) block per minimal node through the pass at relaxation ``omega``.

        ``starts`` stacks as ``(s, d, m)``.  Node v maps a block X to
        ``X + a_v (omega_v / |a_v|^2)(b_v t - a_v* X)``, where the length-m row
        ``t`` says how much of the right-hand side each column carries.  A
        level first copies or blends its nodes' predecessor blocks with the
        dispersion weights (one gather, or one batched matmul over the
        padded weights), then updates all of them with one batched
        ``a_v* X`` and one broadcast rank-1 step.  Pooling is one
        mass-weighted sum: each minimal node's block is the schedule's
        ``pool`` row times the maximal nodes' blocks.  Returns the pooled
        ``(s, d, m)`` blocks.
        """
        sch, conj, cols = self.schedule, self.conj, self.cols
        starts = np.asarray(starts)
        dtype = np.result_type(cols, self.rhs, starts)
        x = np.empty((len(sch.order) + 1, *starts.shape[1:]), dtype=dtype)
        x[-1] = 0.0  # the padding row of the level tables
        x[: len(sch.sources)] = starts
        gain = (omega[sch.order].T / self.norm2).T
        gain = gain.reshape(len(gain), 1, -1)
        bt = self.rhs[:, None, None] * t  # row v is b_v t
        for lv in sch.levels:  # level 0, the minimal nodes, starts from ``starts``
            z = x[lv.start : lv.stop]
            if lv.copy is not None:
                z[...] = x[lv.copy]
            elif lv.pred.size:
                blocks = x[lv.pred].reshape(*lv.pred.shape, -1)
                np.matmul(lv.w_d[:, None, :], blocks, out=z.reshape(len(z), 1, -1))
            at = slice(lv.start, lv.stop)
            r = bt[at] - conj[at] @ z
            r *= gain[at]
            z += cols[at] * r
        pooled = sch.pool @ x[sch.maximal].reshape(len(sch.maximal), -1)
        return pooled.reshape(len(sch.sources), *starts.shape[1:])

    def vectors(self, xs, omega: np.ndarray) -> np.ndarray:
        """The pass on one estimate vector per minimal node, stacked ``(s, d)``."""
        return self.push(np.asarray(xs)[:, :, None], np.ones(1), omega)[:, :, 0]

    def affine(self, omega: np.ndarray) -> np.ndarray:
        """The pass as ``x -> B x + c`` on the stacked minimal-node estimates, per point.

        ``omega`` is one point ``(V,)`` or a stack ``(V, G)``.  The maps come
        back as a ``(G, n, n + 1)`` stack of ``[B | c]``, with ``n = s d``,
        each C-contiguous when G is 1.  One point is assembled as
        ``one_point`` says: by pointer doubling (:meth:`_doubled`) or by
        walking the node maps (:meth:`_walked`) where :func:`_one_point`
        finds them cheaper than the push.  Otherwise, and for a stack, the
        kernel pushes identity columns: minimal node i starts from the
        identity on its own block of columns and a zero constant column, and
        ``t`` selects the constant column, so the pooled blocks stack into
        ``[B | c]``.  Point p owns the ``width`` kernel columns from
        ``p * width``; one point's relaxation stays ``(V, 1)`` and broadcasts
        across its columns.  Either way the map is assembled without
        overflow warnings: a map that overflows holds inf or NaN entries,
        which the caller reports.
        """
        omega = omega.reshape(omega.shape[0], -1)
        points, k = omega.shape[1], self.width - 1
        with np.errstate(over="ignore", invalid="ignore"):
            if points == 1 and self.one_point == "doubled":
                return self._doubled(omega[:, 0])
            if points == 1 and self.one_point == "walked":
                return self._walked(omega[:, 0])
            eye = np.eye(k + 1, dtype=self.cols.dtype)
            if points > 1:
                eye, omega = np.tile(eye, points), np.repeat(omega, k + 1, axis=1)
            starts = eye[:k].reshape(len(self.sources), self.dim, -1)
            out = self.push(starts, eye[k], omega)
        return out.reshape(k, points, k + 1).transpose(1, 0, 2)

    def pass_map(self, omega: np.ndarray) -> np.ndarray:
        """One point's ``[B | c]`` from :meth:`affine`, read-only and kept for the last ``omega``.

        An ``omega`` equal bit for bit to that of the kept map returns that
        map without assembling it again.  A map is kept only where
        :func:`solve_route` takes the affine route, so a map that ``solve``
        would not iterate, such as a wide DAG's, does not outlive its
        caller.  The slot is replaced by a single attribute write and the
        map returned is the one this call read or made, so threads at
        different relaxations only assemble twice.
        """
        key, held = omega.tobytes(), self.last_map
        if held is not None and held[0] == key:
            return held[1]
        (m,) = self.affine(omega)
        m.flags.writeable = False
        if solve_route(len(self.sources), self.dim, self.size) == "affine":
            self.last_map = (key, m)
        return m

    def _node_maps(self, omega: np.ndarray) -> np.ndarray:
        """Every node's update at one point as a homogeneous ``(d + 1)``-square map, stacked.

        Row p holds the update of the node at position p: top rows
        ``[I | 0] - g_v a_v [a_v* | -b_v]``, ``g_v = omega_v / |a_v|^2``, and
        bottom row ``[0 | 1]``, so it maps ``[x; t]`` to
        ``[x + a_v g_v (b_v t - a_v* x); t]``.  Row V, the padding, holds the
        identity, so the stack is ``(V + 1, d + 1, d + 1)``.
        """
        n, d = len(self.rhs), self.dim
        gain = omega[self.schedule.order] / -self.norm2
        ext = np.concatenate((self.conj, -self.rhs[:, None, None]), axis=2)  # [a_v* | -b_v]
        maps = np.zeros((n + 1, d + 1, d + 1), dtype=self.cols.dtype)
        np.multiply(gain[:, None, None] * self.cols, ext, out=maps[:n, :d])
        maps.reshape(n + 1, -1)[:, :: d + 2] += 1.0  # the identity, on every diagonal
        return maps

    def _doubled(self, omega: np.ndarray) -> np.ndarray:
        """One point's ``(1, d, d + 1)`` map ``[B | c]`` on a tree schedule, by pointer doubling.

        Each round composes every node's map (:meth:`_node_maps`) with the
        map of its jump target and then jumps twice as far,
        ``jump <- jump[jump]``, starting from the schedule's ``parent``:
        after round k a node holds the product of its 2^k nearest ancestors'
        maps and its own, so ``ceil(log2 D)`` rounds over D levels give every
        node its root-to-node product.  The pool row then sums the maximal
        nodes' top rows.
        """
        sch, d = self.schedule, self.dim
        maps, jump = self._node_maps(omega), sch.parent
        for _ in range((len(sch.levels) - 1).bit_length()):
            maps, jump = maps @ maps[jump], jump[jump]
        pooled = sch.pool @ maps[sch.maximal, :d].reshape(len(sch.maximal), -1)
        return pooled.reshape(1, d, d + 1)

    def _walked(self, omega: np.ndarray) -> np.ndarray:
        """One point's ``(1, n, n + 1)`` map ``[B | c]``, ``n = s d``, by walking the node maps.

        The state of a node is its ``(d + 1, n + 1)`` block of the
        identity columns pushed so far with ``t``, the constant column's
        selector, as row d; minimal node i starts from ``[I_i | 0]`` over
        ``[0 | 1]``, where ``I_i`` is the identity on block i's columns.  A
        level gathers (``copy``) or blends its nodes' predecessor states,
        then applies every node's map (:meth:`_node_maps`) with one batched
        product; the pool row then sums the maximal nodes' top rows.  That
        is two or three numpy calls a level instead of the push's six, for
        ``(d + 1)^2`` products per column and node instead of ``2 d``.
        """
        sch, d, k = self.schedule, self.dim, self.width - 1
        maps = self._node_maps(omega)
        x = np.empty((len(sch.order) + 1, d + 1, k + 1), dtype=maps.dtype)
        x[-1] = 0.0  # the padding row of the level tables
        z = np.zeros((len(self.sources), d + 1, k + 1), dtype=maps.dtype)
        z[:, :d, :k] = np.eye(k).reshape(len(self.sources), d, k)
        z[:, d, k] = 1.0
        for lv in sch.levels:  # level 0, the minimal nodes, starts from ``z``
            if lv.copy is not None:
                z = x[lv.copy]
            elif lv.pred.size:
                blocks = x[lv.pred].reshape(*lv.pred.shape, -1)
                z = (lv.w_d[:, None, :] @ blocks).reshape(len(blocks), d + 1, -1)
            np.matmul(maps[lv.start : lv.stop], z, out=x[lv.start : lv.stop])
        pooled = sch.pool @ x[sch.maximal, :d].reshape(len(sch.maximal), -1)
        return pooled.reshape(1, k, k + 1)


def _kernel(sys: LinearSystem, net: TreeNetwork | DagNetwork) -> _Pass:
    """The pass kernel of ``sys`` on ``net``, built once and kept on the system.

    One slot holds the last network and its kernel; a network that is not
    that object itself (``is``) builds a new kernel in its place.  The slot
    is replaced by a single attribute write, so a race between threads only
    builds equal kernels twice.
    """
    held = sys.__dict__.get("_pass")
    if held is None or held[0] is not net:
        held = (net, _Pass(sys, net))
        object.__setattr__(sys, "_pass", held)
    return held[1]


def tree_iterate(
    sys: LinearSystem,
    net: TreeNetwork,
    relax: RelaxationAssignment,
    x,
    validated: bool = False,
) -> np.ndarray:
    """One dispersion/pooling pass over a rooted tree from the root's estimate ``x``.

    ``x`` is read by the estimate rule of :func:`_estimates`: one finite
    vector of length d, else a named error.  The arguments are checked on
    every call, from the verdict the network caches; ``validated`` has no
    effect.
    """
    _require_valid(sys, net, (TreeNetwork,), relax)
    return _kernel(sys, net).vectors(_estimates(sys, 1, [x]), relax.effective())[0]


def dag_iterate(
    sys: LinearSystem,
    net: DagNetwork,
    relax: RelaxationAssignment,
    blocks: Sequence[np.ndarray],
    validated: bool = False,
) -> list[np.ndarray]:
    """One dispersion/pooling pass over a DAG; one estimate per minimal node.

    Minimal nodes apply their own relaxed update at the start of dispersion;
    interior and maximal nodes first blend their parents' estimates with the
    dispersion weights.  Pooling hands each minimal node the maximal nodes'
    estimates weighted by the pooling weights along every descent, so
    interior nodes relay without a second update.  ``blocks`` are read by
    the estimate rule of :func:`_estimates`: one finite vector of length d
    per minimal node, else a named error.  The arguments are checked on
    every call, from the verdict the network caches; ``validated`` has no
    effect.
    """
    _require_valid(sys, net, (DagNetwork,), relax)
    run = _kernel(sys, net)
    return list(run.vectors(_estimates(sys, len(run.sources), blocks), relax.effective()))


# ---------------------------------------------------------------------------
# Driver


def _estimates(sys: LinearSystem, s: int, blocks) -> np.ndarray:
    """The one estimate rule: exactly ``s`` finite vectors of length d, stacked ``(s, d)``.

    Each block goes through :func:`~distkaczmarz.numerics._vector`; a wrong
    count or length raises :class:`DimensionError`.  The stack takes the
    promotion of the system's dtype and the blocks', so a complex estimate
    on a real system runs in complex arithmetic.
    """
    if len(blocks) != s:
        raise DimensionError(f"one estimate per minimal node required: {s}, got {len(blocks)}")
    x = np.array([_vector(b, sys.ambient_dim) for b in blocks])
    return x.astype(np.result_type(sys.rows, x), copy=False)


def _initial_blocks(sys: LinearSystem, tree: bool, s: int, init) -> np.ndarray:
    """One starting estimate per minimal node, stacked ``(s, d)``; a tree's only one is its root.

    No start is the zero estimate; one vector starts every minimal node, and
    a tree takes one vector only.  Any other start goes through
    :func:`_estimates` as one block per minimal node.
    """
    if init is None:
        return np.zeros((s, sys.ambient_dim), dtype=sys.rows.dtype)
    return _estimates(sys, s, [init] * s if np.ndim(init) < 2 or tree else init)


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norms along the last axis: ``np.linalg.norm``'s own formula, without its wrapper."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _worst_norms(blocks: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """The largest norm among the blocks of each iterate of a ``(k, s, m)`` stack.

    ``norms`` are the blocks' plain norms when the caller has taken them.
    When a worst norm is inf, a block of finite entries whose plain norm
    overflowed (past about 1e154, under the caller's ``np.errstate``) is
    scaled by its largest modulus first; every finite plain norm is kept.
    """
    norms = _norms(blocks) if norms is None else norms
    worst = norms.max(axis=1)
    if np.isinf(worst).any():
        over = np.isinf(norms) & np.isfinite(blocks).all(axis=2)
        scale = np.abs(blocks[over]).max(axis=1)
        norms[over] = scale * _norms(blocks[over] / scale[:, None])
        worst = norms.max(axis=1)
    return worst


def _one_point(
    nodes: int, levels: int, columns: int, dim: int, complex_rows: bool, tree: bool
) -> str:
    """How :meth:`_Pass.affine` assembles one point: ``"doubled"``, ``"walked"`` or ``"pushed"``.

    One price table (see ``_PUSH_LEVEL``) for V ``nodes`` on D ``levels``
    with ``columns`` = ``s d + 1``: the push runs D levels of about 6 numpy
    calls; the walk D levels of 2-3 calls and ``(d + 1)^2`` products per
    column and node; doubling, on a tree only, ``ceil(log2 D)`` rounds of 3
    calls and ``V (d + 1)^3`` flops each.  Complex products cost the walk
    and doubling about ``_COMPLEX`` times more.  So doubling pays on deep,
    narrow trees at small d and large d keeps the push.  The cheapest wins,
    ties going to doubling, then the walk.
    """
    c = _COMPLEX if complex_rows else 1
    rounds, side = (levels - 1).bit_length(), dim + 1  # side: a node map's d + 1
    prices = {
        "doubled": nodes * rounds * (1.0 + side**3 / _DOUBLING_CUBE) * c if tree else math.inf,
        "walked": _WALK_LEVEL * levels + nodes * (1.0 + columns * side**2 / _WALK_SQUARE) * c,
        "pushed": _PUSH_LEVEL * levels,
    }
    return min(prices, key=prices.__getitem__)


def solve_route(minimal: int, dim: int, size: int) -> str:
    """``"affine"`` when the pass map is cheap to assemble and to apply, else ``"engine"``.

    ``minimal`` is the minimal-node count s, ``dim`` the dimension d and
    ``size`` the node plus edge count V + E.  Assembly pushes ``s d + 1``
    columns through one pass and ``B`` holds ``(s d)^2`` entries, so large d
    or many minimal nodes on a small network keep the kernel.
    """
    sd = minimal * dim
    cheap = sd * dim <= AFFINE_ASSEMBLY_LIMIT and sd * sd <= AFFINE_MATVEC_RATIO * size
    return "affine" if cheap else "engine"


def solve(
    sys: LinearSystem,
    net: TreeNetwork | DagNetwork,
    relax: RelaxationAssignment,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Iterate until the step norm falls below tolerance or the budget runs out.

    The stopping rule is step-norm based because inconsistent systems keep a
    nonzero limiting residual.  Each iteration is one pass, run on the
    stacked minimal-node estimates by the assembled map or by the kernel, as
    :func:`solve_route` picks.  Iterates are made in blocks: a block fills
    one buffer row per pass (up to ``AFFINE_BLOCK`` rows on the affine
    route, 1 on the engine route, where a pass costs more than the norms and
    a longer block would run passes past the stop), writes its steps into
    the rows behind its iterates with one subtraction, takes the worst block
    norm of every iterate and step with one reduction, and cuts the block
    at the first row that stops.  Iterate norms only feed the divergence
    test: when no entry of the block's iterates has a modulus above
    ``bound / (2 sqrt(d))``, no block norm can pass the bound, and the
    reduction covers the steps alone; any other block, NaN and inf entries
    included, takes every norm.  On the affine route row j is ``[x_j; 1]``
    and a pass is one ``[B | c].dot([x_j; 1])`` into the first ``s d``
    entries of row j + 1, through row views bound once per solve; the map
    is the kernel's kept one when an analysis at the same relaxation
    assembled it (:meth:`_Pass.pass_map`), else assembled and kept; norms
    square whole contiguous rows and reduce them without their last column,
    and every estimate and report reads the rows without it.  The stops are
    those of one pass at a time:

    - ``iterations_used`` is 0, with empty traces, when the first step is
      already under tolerance (the initial estimate was stationary);
    - the last block is cut at ``max_iterations``;
    - the first iterate whose norm exceeds ``1e12 * (1 + initial norm)`` or
      turns non-finite aborts with :class:`DivergenceError` carrying the
      iterate before it, even when its step is also under tolerance.
      Iterates after it may overflow; they are never reported.
    """
    _require_valid(sys, net, relax=relax)
    _checked(config, SolverConfig)
    run, omega, tree = _kernel(sys, net), relax.effective(), isinstance(net, TreeNetwork)
    public = (lambda blocks: blocks[0]) if tree else list  # one tree estimate
    state = _initial_blocks(sys, tree, len(run.sources), config.initial_estimate)
    route = solve_route(len(run.sources), run.dim, run.size)
    block = min(AFFINE_BLOCK if route == "affine" else 1, config.max_iterations)
    # rows 0..block: [iterate j; 1]; the k steps of a k-pass block go to rows k+1..2k
    buf = np.ones((2 * block + 1, state.size + 1), dtype=state.dtype)
    rows = buf[:, :-1].reshape(len(buf), *state.shape)  # one block per minimal node
    rows[0] = state
    if route == "affine":
        # cast once to the iterates' dtype: a complex start on a real system would
        # otherwise cast the map on every pass
        apply = run.pass_map(omega).astype(buf.dtype, copy=False).dot
        passes = list(zip(buf[:block], buf[1 : block + 1, :-1]))
    a_t, tol = sys.system_matrix().T, config.step_tolerance
    steps: list[float] = []
    residuals: list[float] = []
    used, stop = 0, None

    def worst_norms(lo: int, hi: int) -> np.ndarray:
        """``_worst_norms`` of buffer rows ``lo..hi-1``, squared on the contiguous rows."""
        h = buf[lo:hi]
        squares = (h.conj() * h).real[:, :-1].reshape(hi - lo, *state.shape)
        return _worst_norms(rows[lo:hi], np.sqrt(np.add.reduce(squares, axis=-1)))

    # rows from a divergence on may overflow, and norms square past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        if config.initial_estimate is None:  # the zero start
            bound = DIVERGENCE_FACTOR
        else:
            bound = DIVERGENCE_FACTOR * (1.0 + _worst_norms(rows[:1])[0])
        # a block of d entries, none of modulus above ``screen``, has norm at most bound / 2
        screen = bound / (2.0 * math.sqrt(state.shape[-1]))
        while stop is None and used < config.max_iterations:
            k = min(block, config.max_iterations - used)
            if route == "affine":
                for x, out in passes[:k]:
                    apply(x, out=out)
            else:
                rows[1] = run.vectors(rows[0], omega)
            np.subtract(buf[1 : k + 1], buf[:k], out=buf[k + 1 : 2 * k + 1])
            buf[k + 1 : 2 * k + 1, -1] = 1.0  # every row keeps the trailing 1 that passes read
            if np.abs(buf[1 : k + 1]).max() <= screen:  # no iterate can diverge (NaN fails this)
                norms, step = None, worst_norms(k + 1, 2 * k + 1)
                stops = step < tol
            else:
                both = worst_norms(1, 2 * k + 1)
                norms, step = both[:k], both[k:]  # iterate and step norms from one reduction
                # NaN and inf iterate norms fail ``<= bound``: they diverge
                stops = ~(norms <= bound) | (step < tol)
            first = int(stops.argmax())
            if stops[first]:
                stop, k = first, first + 1
                if norms is not None and not norms[stop] <= bound:
                    raise DivergenceError(
                        f"estimate norm {norms[stop]:.3e} exceeded the divergence bound "
                        f"at iteration {used + k}",
                        last_iterate=public(rows[stop].copy()),
                        iteration=used + k,
                        route=route,
                    )
                if used == 0 and stop == 0:  # initial estimate was already stationary
                    rows[0] = rows[1]
                    break
            steps += step[:k].tolist()
            residuals += _worst_norms(rows[1 : k + 1] @ a_t - sys.rhs).tolist()
            used += k
            rows[0] = rows[k]
    return SolveReport(
        final_estimates=public(rows[0].copy()),
        iterations_used=used,
        step_norms=steps,
        residual_norms=residuals,
        converged=stop is not None,
        route=route,
    )
