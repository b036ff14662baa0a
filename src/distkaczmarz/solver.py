"""Relaxed Kaczmarz updates composed into tree and DAG iterations.

One iteration on a tree disperses an estimate from the root to the leaves,
applying the relaxed hyperplane projection of each node's equation on the
way down, then pools the leaf estimates back into a single weighted average.
On a DAG every minimal node holds its own estimate; dispersion walks the
nodes in topological order blending parent estimates with the dispersion
weights before each update, and pooling walks back in reverse order blending
successor estimates with the pooling weights.  A tree runs as the DAG whose
only minimal node is the root.

Every pass goes through one kernel, built once per system and network and
handed the effective relaxation on each call.  It carries a block of
columns instead of a single vector: one column is the engine, identity
columns give the closed-form affine map of :mod:`distkaczmarz.closedform`,
and identity columns under a per-column relaxation give a whole chunk of
sweep points.  ``tree_iterate`` and ``dag_iterate`` run it on one column;
``solve`` assembles the pass map ``x -> B x + c`` once and iterates it,
unless :func:`solve_route` finds that one pass is cheaper than assembling
or applying ``B``, and then runs the kernel on one column per iteration.
Either way ``solve`` has one loop: it fills a block of iterates, one pass
per row, and takes the norms that decide the stop for the whole block at
once (64 passes a block on the map, where a pass costs no more than a
numpy call; 1 on the kernel, where a pass past the stop would be wasted).

A solve run owns its state and is single threaded; distinct runs over the
same immutable system and network may execute concurrently.  Pooling sums
run in a fixed reverse-topological order, successors ascending, so results
are schedule independent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateEquationError, DimensionError, DivergenceError, InvalidNetworkError
from .numerics import as_matrix, as_vector, read_only_copy
from .topology import DagNetwork, TreeNetwork, validate_dag, validate_tree

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


@dataclass(frozen=True)
class LinearSystem:
    """One equation per node: <x, a_v> = b_v.

    ``rows[v]`` stores the vector a_v whose conjugate transpose is row v of
    the system matrix, so for real data the rows coincide with the matrix.
    ``rows`` and ``rhs`` are read-only copies of the caller's arrays.
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
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.argmin(norms))
            raise DegenerateEquationError(f"row {bad} has zero norm")
        object.__setattr__(self, "rows", read_only_copy(rows))
        object.__setattr__(self, "rhs", read_only_copy(rhs))

    @property
    def node_count(self) -> int:
        return self.rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]

    def system_matrix(self) -> np.ndarray:
        """The matrix A with rows a_v*; A @ x stacks the values <x, a_v>."""
        return self.rows.conj()

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.system_matrix() @ x - self.rhs))


def _checked_omega(omega) -> np.ndarray:
    """Relaxation parameters as a float array of any shape; each must be finite and nonnegative."""
    om = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(om)) or np.any(om < 0.0):
        raise ValueError("relaxation parameters must be finite and nonnegative")
    return om


@dataclass(frozen=True)
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
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must lie in (0, 1]")
        object.__setattr__(self, "omega", read_only_copy(om))

    @classmethod
    def uniform(cls, node_count: int, value: float = 1.0, scale: float = 1.0):
        return cls(np.full(node_count, float(value)), scale)

    def effective(self) -> np.ndarray:
        return self.scale * self.omega

    def scaled(self, scale: float) -> "RelaxationAssignment":
        return RelaxationAssignment(self.omega, scale)


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 10_000
    step_tolerance: float = 1e-10
    initial_estimate: np.ndarray | None = None

    def __post_init__(self):
        it = self.max_iterations
        if not isinstance(it, numbers.Integral) or isinstance(it, bool) or it < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {it!r}")
        tol = self.step_tolerance
        if not isinstance(tol, numbers.Real) or isinstance(tol, bool) or not 0.0 < tol < math.inf:
            raise ValueError(f"step_tolerance must be a positive finite number, got {tol!r}")


@dataclass
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
    """Relaxed Kaczmarz step: x + omega * (b - a*x) / |a|^2 * a."""
    xv, av = as_vector(x), as_vector(a)
    nrm2 = float(np.vdot(av, av).real)
    if nrm2 == 0.0:
        raise DegenerateEquationError("zero row in Kaczmarz update")
    return xv + omega * ((b - np.vdot(av, xv)) / nrm2) * av


def project_null(x, a) -> np.ndarray:
    """Orthogonal projection of x onto the hyperplane a*x = 0."""
    xv, av = as_vector(x), as_vector(a)
    nrm2 = float(np.vdot(av, av).real)
    if nrm2 == 0.0:
        raise DegenerateEquationError("zero row in projection")
    return xv - (np.vdot(av, xv) / nrm2) * av


def project_affine(x, a, b) -> np.ndarray:
    """Affine projection of x onto the hyperplane a*x = b."""
    return kaczmarz_update(x, a, b, 1.0)


def relaxed_p(x, a, omega: float) -> np.ndarray:
    """(1 - omega) x + omega * project_null(x, a)."""
    xv = as_vector(x)
    return (1.0 - omega) * xv + omega * project_null(xv, a)


def relaxed_q(x, a, b, omega: float) -> np.ndarray:
    """(1 - omega) x + omega * project_affine(x, a, b); same as kaczmarz_update."""
    return kaczmarz_update(x, a, b, omega)


# ---------------------------------------------------------------------------
# Network iterations


def _require_assignment(sys: LinearSystem, relax: RelaxationAssignment) -> None:
    """Raise unless ``relax`` holds one value per equation of ``sys``."""
    if relax.omega.shape[0] != sys.node_count:
        raise DimensionError(f"{relax.omega.shape[0]} relaxation values for {sys.node_count} nodes")


def _require_valid(sys: LinearSystem, net, expected=(TreeNetwork, DagNetwork), relax=None) -> None:
    """Raise unless ``net`` is a valid network of an ``expected`` type, one node per equation.

    Given ``relax``, it must also hold one value per node.
    """
    if not isinstance(net, expected):
        names = " or ".join(t.__name__ for t in expected)
        raise TypeError(f"expected a {names}, got {type(net).__name__}")
    if sys.node_count != net.node_count:
        raise DimensionError("system and network disagree on the node count")
    if relax is not None:
        _require_assignment(sys, relax)
    tree = isinstance(net, TreeNetwork)
    violations = validate_tree(net) if tree else validate_dag(net)
    if violations:
        raise InvalidNetworkError(f"invalid {'tree' if tree else 'DAG'} network", violations)


class _Pass:
    """Dispersion/pooling passes over a fixed system and network.

    The traversal is prepared once in O(V + E): ``order`` is topological,
    ``up[v]`` pairs each predecessor of v with its dispersion weight,
    ``down[v]`` each successor with its pooling weight, ``sources`` lists
    the minimal nodes in ascending order, and ``size`` is the node plus
    edge count V + E.  A DAG lends its own cached order and in/out lists.
    A tree is the DAG whose only minimal node is the root, ordered breadth
    first, with dispersion weight 1 and pooling weight equal to the edge
    weight.  The effective relaxation comes with each call, ``(V,)`` or
    ``(V, m)`` with one column per kernel column; ``width`` is the kernel
    columns of one point of :meth:`affine`.
    """

    def __init__(self, sys: LinearSystem, net: TreeNetwork | DagNetwork):
        nodes = range(net.node_count)
        if isinstance(net, TreeNetwork):
            order = [net.root]
            for v in order:  # breadth first: the list grows while it is walked
                order.extend(net.children.get(v, ()))
            up = [((net.parent[v], 1.0),) if v in net.parent else () for v in nodes]
            kids = [net.children.get(v, ()) for v in nodes]
            down = [tuple((u, net.edge_weight[(v, u)]) for u in kids[v]) for v in nodes]
            sources = (net.root,)
        else:
            order = net.order
            up = [tuple((u, net.w_d[(u, v)]) for u in net.predecessors[v]) for v in nodes]
            down = [tuple((u, net.w_p[(v, u)]) for u in net.successors[v]) for v in nodes]
            sources = net.minimal_nodes
        rows = sys.rows
        self.order = order
        self.up = up
        self.down = down
        self.sources = sources
        self.size = len(up) + sum(map(len, up))
        self.dim = sys.ambient_dim
        self.width = len(sources) * self.dim + 1
        self.rhs = sys.rhs
        self.cols = list(rows[:, :, None])  # a_v as a column
        self.conj = list(rows.conj())  # a_v* as a row
        self.norm2 = np.einsum("ij,ij->i", rows.conj(), rows).real

    def push(self, starts: Sequence[np.ndarray], t: np.ndarray, omega) -> list[np.ndarray]:
        """Carry one (d, m) block per minimal node through the pass at relaxation ``omega``.

        Node v maps a block X to ``X + a_v (omega_v / |a_v|^2)(b_v t - a_v* X)``,
        where the length-m row ``t`` says how much of the right-hand side each
        column carries.  Dispersion blends predecessor blocks with the
        dispersion weights before each update; pooling then walks the order
        backwards and blends successor blocks with the pooling weights, so
        sums run in a fixed reverse-topological order.  Returns the pooled
        block of every minimal node.
        """
        up, down, cols, conj = self.up, self.down, self.cols, self.conj
        gain = list((omega.T / self.norm2).T)
        bt = self.rhs[:, None] * t  # row v is b_v t
        x: list = [None] * len(up)
        for v, z in zip(self.sources, starts):
            x[v] = z
        for v in self.order:
            z = sum(w * x[u] for u, w in up[v]) if up[v] else x[v]
            x[v] = z + cols[v] * (gain[v] * (bt[v] - conj[v] @ z))
        for v in reversed(self.order):
            if down[v]:
                x[v] = sum(w * x[u] for u, w in down[v])
        return [x[m] for m in self.sources]

    def vectors(self, xs: Sequence[np.ndarray], omega: np.ndarray) -> list[np.ndarray]:
        """The pass on one estimate vector per minimal node."""
        return [y[:, 0] for y in self.push([xv[:, None] for xv in xs], np.ones(1), omega)]

    def affine(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pass as ``x -> B x + c`` on the stacked minimal-node estimates, per point.

        ``omega`` is one point ``(V,)`` or a stack ``(V, G)``.  Minimal node i
        starts from the identity on its own block of columns and a zero
        constant column; ``t`` selects the constant column, so the pooled
        blocks stack into ``[B | c]``.  Point p owns the ``width`` kernel
        columns from ``p * width``; B and c come back stacked by point.
        """
        omega = omega.reshape(omega.shape[0], -1)
        points, k = omega.shape[1], self.width - 1
        eye = np.tile(np.eye(k + 1, dtype=np.complex128), points)
        starts = [eye[i : i + self.dim] for i in range(0, k, self.dim)]
        out = np.vstack(self.push(starts, eye[k], np.repeat(omega, k + 1, axis=1)))
        out = out.reshape(k, points, k + 1).transpose(1, 0, 2)
        return out[:, :, :k], out[:, :, k]

    def masses(self) -> np.ndarray:
        """``masses[i, v]``: total weight with which minimal node i pools the chains through v.

        Descent masses to each minimal node run forward along the pooling
        weights; a maximal node keeps its own, every other node takes the
        dispersion-weighted sum of its successors' (the ascent to any node
        carries mass 1).  O(s (V + E)) without enumerating paths; on a tree
        ``masses[0, v]`` is the root-to-v path weight.
        """
        s = len(self.sources)
        mass = np.zeros((len(self.up), s))
        mass[list(self.sources), range(s)] = 1.0
        for u in self.order:  # descent masses
            for v, w in self.down[u]:
                mass[v] += w * mass[u]
        mass *= np.array([not d for d in self.down])[:, None]  # kept at maximal nodes only
        for u in reversed(self.order):
            for v, w in self.up[u]:
                mass[v] += w * mass[u]
        return mass.T


def tree_iterate(
    sys: LinearSystem,
    net: TreeNetwork,
    relax: RelaxationAssignment,
    x,
    validated: bool = False,
) -> np.ndarray:
    """One dispersion/pooling pass over a rooted tree."""
    if not validated:
        _require_valid(sys, net, (TreeNetwork,), relax)
    return _Pass(sys, net).vectors([as_vector(x)], relax.effective())[0]


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
    dispersion weights.  Pooling blends successor estimates with the pooling
    weights in reverse topological order, so interior nodes relay without a
    second update.
    """
    if not validated:
        _require_valid(sys, net, (DagNetwork,), relax)
    minimal = net.minimal_nodes
    if len(blocks) != len(minimal):
        raise DimensionError(f"expected {len(minimal)} estimate blocks, got {len(blocks)}")
    return _Pass(sys, net).vectors([as_vector(b) for b in blocks], relax.effective())


# ---------------------------------------------------------------------------
# Driver


def _initial_blocks(sys: LinearSystem, tree: bool, s: int, init) -> np.ndarray:
    """One starting estimate per minimal node, stacked ``(s, d)``; a tree's only one is its root."""
    d = sys.ambient_dim
    if init is None:
        return np.zeros((s, d), dtype=np.complex128)
    init = np.asarray(init, dtype=np.complex128)
    if init.ndim == 1 or tree:  # a tree takes one vector only
        init = [init] * s
    elif init.shape[0] != s:
        raise DimensionError(f"one initial block per minimal node required: {s}, got {init.shape[0]}")
    blocks = np.array([as_vector(b) for b in init])
    if blocks.shape[1] != d:
        raise DimensionError(f"initial estimates must have length {d}, got {blocks.shape[1]}")
    return blocks


def _worst_norms(blocks: np.ndarray) -> np.ndarray:
    """The largest norm among the blocks of each iterate of a ``(k, s, m)`` stack.

    A block of finite entries whose plain norm overflowed (past about 1e154,
    under the caller's ``np.errstate``) is scaled by its largest modulus
    first; every finite plain norm is kept.
    """
    norms = np.linalg.norm(blocks, axis=2)
    over = np.isinf(norms)
    if over.any():
        over &= np.isfinite(blocks).all(axis=2)
        scale = np.abs(blocks[over]).max(axis=1)
        norms[over] = scale * np.linalg.norm(blocks[over] / scale[:, None], axis=1)
    return norms.max(axis=1)


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
    net,
    relax: RelaxationAssignment,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Iterate until the step norm falls below tolerance or the budget runs out.

    The stopping rule is step-norm based because inconsistent systems keep a
    nonzero limiting residual.  Each iteration is one pass, run as ``B x + c``
    on the stacked minimal-node estimates or by the kernel, as
    :func:`solve_route` picks.  Iterates are made in blocks: a block fills
    one buffer row per pass (``AFFINE_BLOCK`` rows on the affine route, 1 on
    the engine route, where a pass costs more than the norms and a longer
    block would run passes past the stop), then takes the worst block norm,
    step norm and residual norm of every row at once and cuts the block at
    the first row that stops.  The stops are those of one pass at a time:

    - ``iterations_used`` is 0, with empty traces, when the first step is
      already under tolerance (the initial estimate was stationary);
    - the last block is cut at ``max_iterations``;
    - the first iterate whose norm exceeds ``1e12 * (1 + initial norm)`` or
      turns non-finite aborts with :class:`DivergenceError` carrying the
      iterate before it, even when its step is also under tolerance.
      Iterates after it may overflow; they are never reported.
    """
    _require_valid(sys, net, relax=relax)
    tree = isinstance(net, TreeNetwork)
    run, omega = _Pass(sys, net), relax.effective()
    public = (lambda blocks: blocks[0]) if tree else list  # one tree estimate
    state = _initial_blocks(sys, tree, len(run.sources), config.initial_estimate)
    route = solve_route(len(run.sources), run.dim, run.size)
    block = AFFINE_BLOCK if route == "affine" else 1
    flat = np.empty((block + 1, state.size), dtype=np.complex128)  # row j: iterate j of the block
    rows = flat.reshape(block + 1, *state.shape)  # the same rows, one block per minimal node
    rows[0] = state
    if route == "affine":
        (b,), (c,) = run.affine(omega)
        b = np.ascontiguousarray(b)

        def advance(j):
            np.matmul(b, flat[j], out=flat[j + 1])
            flat[j + 1] += c

    else:

        def advance(j):
            rows[j + 1] = run.vectors(rows[j], omega)

    a_t, tol = sys.system_matrix().T, config.step_tolerance
    steps: list[float] = []
    residuals: list[float] = []
    used, stop = 0, None
    # rows from a divergence on may overflow, and norms square past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        bound = DIVERGENCE_FACTOR * (1.0 + _worst_norms(rows[:1])[0])
        while stop is None and used < config.max_iterations:
            k = min(block, config.max_iterations - used)
            for j in range(k):
                advance(j)
            norms = _worst_norms(rows[1 : k + 1])
            step = _worst_norms(rows[1 : k + 1] - rows[:k])
            diverged = ~np.isfinite(norms) | (norms > bound)
            stops = np.flatnonzero(diverged | (step < tol))
            if stops.size:
                stop = int(stops[0])
                k = stop + 1
                if diverged[stop]:
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
