"""Relaxed Kaczmarz updates composed into tree and DAG iterations.

One iteration on a tree disperses an estimate from the root to the leaves,
applying the relaxed hyperplane projection of each node's equation on the
way down, then pools the leaf estimates back into a single weighted average.
On a DAG every minimal node holds its own estimate; dispersion walks the
nodes in topological order blending parent estimates with the dispersion
weights before each update, and pooling walks back in reverse order blending
successor estimates with the pooling weights.  A tree runs as the DAG whose
only minimal node is the root.

Every pass goes through one kernel that carries a block of columns instead
of a single vector: one column is the engine, identity columns give the
closed-form affine map of :mod:`distkaczmarz.closedform`.

A solve run owns its state and is single threaded; distinct runs over the
same immutable system and network may execute concurrently.  Pooling sums
run in a fixed reverse-topological order, successors ascending, so results
are schedule independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateEquationError, DimensionError, DivergenceError, InvalidNetworkError
from .numerics import as_matrix, as_vector
from .topology import DagNetwork, TreeNetwork, topological_order, validate_dag, validate_tree

DIVERGENCE_FACTOR = 1e12


@dataclass(frozen=True)
class LinearSystem:
    """One equation per node: <x, a_v> = b_v.

    ``rows[v]`` stores the vector a_v whose conjugate transpose is row v of
    the system matrix, so for real data the rows coincide with the matrix.
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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

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


@dataclass(frozen=True)
class RelaxationAssignment:
    """Per-node relaxation parameters plus a uniform scale in (0, 1]."""

    omega: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        if om.ndim != 1:
            raise DimensionError("omega must be one value per node")
        if not np.all(np.isfinite(om)) or np.any(om < 0.0):
            raise ValueError("relaxation parameters must be finite and nonnegative")
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must lie in (0, 1]")
        object.__setattr__(self, "omega", om)

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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.step_tolerance > 0.0:
            raise ValueError("step_tolerance must be positive")


@dataclass
class SolveReport:
    """Iteration outcome; trace lengths equal ``iterations_used``.

    ``final_estimates`` is a single vector for trees and one block per
    minimal node (ascending id) for DAGs.  On DAGs the step and residual
    traces record the worst block per iteration.
    """

    final_estimates: object
    iterations_used: int
    step_norms: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    converged: bool = False


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


def _require_valid_tree(sys: LinearSystem, net: TreeNetwork) -> None:
    if sys.node_count != net.node_count:
        raise DimensionError("system and network disagree on the node count")
    violations = validate_tree(net)
    if violations:
        raise InvalidNetworkError("invalid tree network", violations)


def _require_valid_dag(sys: LinearSystem, net: DagNetwork) -> None:
    if sys.node_count != net.node_count:
        raise DimensionError("system and network disagree on the node count")
    violations = validate_dag(net)
    if violations:
        raise InvalidNetworkError("invalid DAG network", violations)


class _Pass:
    """One dispersion/pooling pass over a fixed system, network and relaxation.

    The traversal is prepared once in O(V + E): ``order`` is topological,
    ``up[v]`` pairs each predecessor of v with its dispersion weight,
    ``down[v]`` each successor with its pooling weight, and ``sources``
    lists the minimal nodes in ascending order.  A tree is the DAG whose
    only minimal node is the root, with dispersion weight 1 and pooling
    weight equal to the edge weight.
    """

    def __init__(self, sys: LinearSystem, relax: RelaxationAssignment, order, up, down, sources):
        rows = sys.rows
        self.order = order
        self.up = up
        self.down = down
        self.sources = sources
        self.dim = sys.ambient_dim
        self.rhs = sys.rhs
        self.cols = list(rows[:, :, None])  # a_v as a column
        self.conj = list(rows.conj())  # a_v* as a row
        self.gain = list(relax.effective() / np.einsum("ij,ij->i", rows.conj(), rows).real)

    @classmethod
    def tree(cls, sys: LinearSystem, net: TreeNetwork, relax: RelaxationAssignment) -> "_Pass":
        nodes = range(net.node_count)
        order = [net.root]
        for v in order:  # breadth first: the list grows while it is walked
            order.extend(net.children.get(v, ()))
        up = [((net.parent[v], 1.0),) if v in net.parent else () for v in nodes]
        down = [tuple((u, net.edge_weight[(v, u)]) for u in net.children.get(v, ())) for v in nodes]
        return cls(sys, relax, order, up, down, (net.root,))

    @classmethod
    def dag(cls, sys: LinearSystem, net: DagNetwork, relax: RelaxationAssignment) -> "_Pass":
        nodes = range(net.node_count)
        up = [tuple((u, net.w_d[(u, v)]) for u in net.predecessors[v]) for v in nodes]
        down = [tuple((u, net.w_p[(v, u)]) for u in net.successors[v]) for v in nodes]
        return cls(sys, relax, topological_order(net), up, down, net.minimal_nodes)

    def push(self, starts: Sequence[np.ndarray], t: np.ndarray) -> list[np.ndarray]:
        """Carry one (d, m) block per minimal node through the pass.

        Node v maps a block X to ``X + a_v (omega_v / |a_v|^2)(b_v t - a_v* X)``,
        where the length-m row ``t`` says how much of the right-hand side each
        column carries.  Dispersion blends predecessor blocks with the
        dispersion weights before each update; pooling then walks the order
        backwards and blends successor blocks with the pooling weights, so
        sums run in a fixed reverse-topological order.  Returns the pooled
        block of every minimal node.
        """
        up, down, cols, conj, gain = self.up, self.down, self.cols, self.conj, self.gain
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

    def vectors(self, xs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The pass on one estimate vector per minimal node."""
        return [y[:, 0] for y in self.push([xv[:, None] for xv in xs], np.ones(1))]

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The pass as ``x -> B x + c`` on the stacked minimal-node estimates.

        Minimal node i starts from the identity on its own block of columns
        and a zero constant column; ``t`` selects the constant column, so the
        pooled blocks stack into ``[B | c]``.
        """
        d = self.dim
        k = d * len(self.sources)
        eye = np.eye(k + 1, dtype=np.complex128)
        out = np.vstack(self.push([eye[i : i + d] for i in range(0, k, d)], eye[k]))
        return np.ascontiguousarray(out[:, :k]), out[:, k].copy()


def tree_iterate(
    sys: LinearSystem,
    net: TreeNetwork,
    relax: RelaxationAssignment,
    x,
    validated: bool = False,
) -> np.ndarray:
    """One dispersion/pooling pass over a rooted tree."""
    if not validated:
        _require_valid_tree(sys, net)
    return _Pass.tree(sys, net, relax).vectors([as_vector(x)])[0]


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
        _require_valid_dag(sys, net)
    minimal = net.minimal_nodes
    if len(blocks) != len(minimal):
        raise DimensionError(f"expected {len(minimal)} estimate blocks, got {len(blocks)}")
    return _Pass.dag(sys, net, relax).vectors([as_vector(b) for b in blocks])


# ---------------------------------------------------------------------------
# Driver


def _initial_blocks(sys: LinearSystem, net, sources, init) -> list[np.ndarray]:
    """One starting estimate per minimal node; a tree's only one is its root."""
    if init is None:
        return [np.zeros(sys.ambient_dim, dtype=np.complex128) for _ in sources]
    init = np.asarray(init, dtype=np.complex128)
    if init.ndim == 1 or isinstance(net, TreeNetwork):  # a tree takes one vector only
        return [as_vector(init).copy() for _ in sources]
    if init.shape[0] != len(sources):
        raise DimensionError("one initial block per minimal node required")
    return [as_vector(row) for row in init]


def _max_norm(blocks) -> float:
    return max(float(np.linalg.norm(b)) for b in blocks)


def solve(
    sys: LinearSystem,
    net,
    relax: RelaxationAssignment,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Iterate until the step norm falls below tolerance or the budget runs out.

    The stopping rule is step-norm based because inconsistent systems keep a
    nonzero limiting residual.  ``iterations_used`` is 0 when the initial
    estimate is already stationary.  Estimates whose norm exceeds
    ``1e12 * (1 + initial norm)`` (or turn non-finite) abort with
    :class:`DivergenceError` carrying the last finite iterate.
    """
    if isinstance(net, TreeNetwork):
        _require_valid_tree(sys, net)
        run = _Pass.tree(sys, net, relax)
        public = lambda blocks: blocks[0]  # a tree reports its single estimate
    elif isinstance(net, DagNetwork):
        _require_valid_dag(sys, net)
        run = _Pass.dag(sys, net, relax)
        public = lambda blocks: blocks
    else:
        raise TypeError(f"unsupported network type {type(net)!r}")
    state = _initial_blocks(sys, net, run.sources, config.initial_estimate)
    bound = DIVERGENCE_FACTOR * (1.0 + _max_norm(state))
    steps: list[float] = []
    residuals: list[float] = []
    converged = False
    used = 0
    for n in range(1, config.max_iterations + 1):
        new_state = run.vectors(state)
        norm = _max_norm(new_state)
        if not np.isfinite(norm) or norm > bound:
            raise DivergenceError(
                f"estimate norm {norm:.3e} exceeded the divergence bound at iteration {n}",
                last_iterate=public(state),
                iteration=n,
            )
        step = _max_norm([new - old for new, old in zip(new_state, state)])
        state = new_state
        if n == 1 and step < config.step_tolerance:
            converged = True  # initial estimate was already stationary
            break
        steps.append(step)
        residuals.append(max(sys.residual_norm(b) for b in state))
        used = n
        if step < config.step_tolerance:
            converged = True
            break
    return SolveReport(
        final_estimates=public(state),
        iterations_used=used,
        step_norms=steps,
        residual_norms=residuals,
        converged=converged,
    )
