"""Closed-form one-iteration maps and the analysis built on them.

The dispersion/pooling pass of the solver is an affine map ``x -> B x + c``.
One builder takes it from the solver's pass kernel, which the system keeps
for its network (:func:`~distkaczmarz.solver._kernel`), pushed over
identity columns at the given relaxation, as a block map over the stacked
minimal-node estimates: :func:`dag_block_structure`
returns that map and :func:`tree_affine` its one block, the root's.  The
least-squares targets are the same one-block case: :func:`weighted_ls_minimizer`
is block 0 of the per-block normal equations that :func:`dag_ls_minimizer`
solves, each in the minimal-norm sense.  The sweep route
:func:`restricted_rho` pushes the same kernel.  B is a polynomial in
each sweep axis's relaxation, of degree at most the axis's node count on one
dispersion chain, so a sweep may push the tensor grid of one more node than
that per axis and interpolate.  One price table (``_SWEEP_LEVEL``, fitted on
trees and DAGs of 5 to 2,000 nodes) weighs the stack route's numpy calls and
pushed entries against interpolation's set-up, grid push and per-point
combination; a sweep interpolates when the grid is priced cheaper and its
maps are small enough to interpolate within ``SWEEP_INTERPOLATION_ROUNDING``,
and any other sweep hands the kernel one chunk of relaxation columns per
push.  A small sweep is priced to the stack before any axis is found.  The
DAG stationarity conditions and
least-squares targets, per-path sums in the paper, are block-row sums of the
assembled map and the per-node path masses of the network's schedule, so
no analysis enumerates paths or pushes the kernel a second time.  The
paper's alternative forms stay as independent cross-checks of its lemmas:
the successive over-relaxation factorization along dispersion paths, the
product of relaxed projections grouped by subnetworks, and the up-down path
sums of the DAG block matrix.
Block norms read one block view, a vector as ``(s, n)`` and a matrix as
``(r, c, n, n)``.  The module also computes restricted operator norms, fixed
points and admissibility verdicts, in time linear in the group sizes (one
walk per group; one stacked-rows norm gives a leaf group's bounds).
Every restriction to the row space (tree and DAG spectral radii, fixed
points, least-squares targets) works on one checked column matrix of an
orthonormal basis, the system's one SVD basis (:func:`row_space_basis`);
the DAG's stacked row space is ``kron(I_s, q)``.  An
:class:`AffineIteration` restricts itself once per basis, so one ``Q* B Q``
and one eigensolve serve both its restricted radius and its fixed point.
A map whose assembly overflowed, such as a deep chain at a large
relaxation, holds inf or NaN entries; the builders, the sweep route and the
paper's chain-product forms raise
:class:`~distkaczmarz.errors.NumericalFailureError` naming the map that
overflowed (the assembled pass map, a group map, a chain of relaxed
projections, the product form or the path SOR form), and so does a
fixed-point solve that breaks down.

Everything here is pure construction over immutable inputs and thread-safe.
The caches are filled by single attribute writes of values computed from
immutable inputs alone, so a race between threads only computes equal
values twice: an affine map keeps its last restriction, and the system,
outside its fields, its row-space basis and the kernel of its last network
(:class:`~distkaczmarz.solver.LinearSystem`).  No cache is a field, so
equality, repr, copies and pickles never see one.  A sweep of more than
one chunk runs its chunks on the caller and helper threads, joined before it
returns: all sweeps running at once share one helper per further CPU of the
process's affinity mask, counted under a lock, and one sweep's helpers hold
at most ``SWEEP_HELPER_BYTES`` of push state.  Each chunk makes the same
numpy calls on the same columns, so its results do not depend on how many
threads ran them (``taskset -c 0`` runs a sweep on one CPU).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import field
from typing import Mapping, Sequence

import numpy as np

from .errors import ApplicabilityError, DimensionError, NonContractionError, NumericalFailureError
from .errors import PartitionError
from .numerics import (
    _checked_columns,
    _eigvals,
    _max_modulus,
    _orthonormal,
    _real_if_exact,
    _sorted_spectrum,
    _stack,
    _vector,
    as_matrix,
    eigenvalues,
    gram,
    orthonormal_basis,
    operator_norm_on_span,
    spectral_radius_on_span,
    value_dataclass,
)
from .solver import (
    LinearSystem,
    RelaxationAssignment,
    _checked_omega,
    _estimates,
    _kernel,
    _Pass,
    _require_assignment,
    _require_valid,
    relaxed_q,
)
from .topology import (
    DagNetwork,
    ResolvedGroup,
    SubnetworkPartition,
    TreeNetwork,
    _checked_network,
    _cover_violations,
    _is_node,
    enumerate_updown_paths,
    path_weight,
    resolve_groups,
)

ZERO_EIGENVALUE_CUT = 1e-12
# ``eigen_dichotomy_check``: an eigenvalue within UNIT_EIGENVALUE_TOL of 1 is a
# unit one, and its eigenvector is in the null space when |A v| is at most
# NULL_VECTOR_TOL |v|.
UNIT_EIGENVALUE_TOL = 1e-9
NULL_VECTOR_TOL = 1e-8
# Kernel columns per sweep push; a grid point takes s d + 1 of them, so the
# carried (d, columns) blocks stay flat.
SWEEP_CHUNK_COLUMNS = 1536
# Push state, (V + 1) d entries per kernel column, that the helper threads of
# one sweep may hold together: a sweep starts no more helpers than this
# holds chunks, so threads add at most this much to one chunk's peak.
SWEEP_HELPER_BYTES = 1 << 28
# Largest rounding the polynomial sweep route may add to an entry of a
# restricted map, the accuracy the per-point route is held to; a sweep whose
# tensor grid could add more pushes every column instead.
SWEEP_INTERPOLATION_ROUNDING = 1e-12
# ``_point_budget`` prices the two sweep routes for G points of m = s d + 1
# kernel columns on V nodes on D levels, with n = s r the restricted side, in
# units of one entry of push state, (V + 1) d of them per column:
#   stack        chunks (SWEEP_LEVEL D + SWEEP_CHUNK) + G m (V + 1) d
#   interpolate  SWEEP_SETUP + SWEEP_SETUP_ROW (V + 1) + SWEEP_LEVEL D + SWEEP_CHUNK
#                + M m (V + 1) d + G (SWEEP_COLUMN + M n^2 / SWEEP_COMBINE)
# for a tensor grid of M points.  Fitted, by least squares on the log times,
# to both routes' times less the shared eigensolve on 128 sweeps: network I
# and the 7-node tree at d = 3..7, random recursive trees of 30 to 2,000 nodes
# and caterpillars of 31 and 121 at d = 2..8, layered DAGs of 12 to 28 nodes,
# complex and rank-deficient rows, one or two axes and G = 5..1,601 (2-vCPU
# x86_64, OpenBLAS on one thread): a unit is about 5 ns, a push level 5 us.
_SWEEP_LEVEL = 1000
_SWEEP_CHUNK = 8000
_SWEEP_SETUP = 23000
_SWEEP_SETUP_ROW = 450
_SWEEP_COLUMN = 50
_SWEEP_COMBINE = 13
# Re-exported for the bare-matrix analyses (bench/workloads.py); this read is
# the import's use that tests/test_imports.py requires of every module.
spectral_radius_on_span = spectral_radius_on_span


def _node(sys: LinearSystem, v) -> int:
    """``v`` as an ``int`` if it is a node id of ``sys``, else :class:`DimensionError`."""
    if not _is_node(v, sys.node_count):
        raise DimensionError(f"node {v!r} is not in 0..{sys.node_count - 1}")
    return int(v)


def relaxed_projection_matrix(sys: LinearSystem, v: int, omega: float) -> np.ndarray:
    """Matrix of the relaxed projection onto the null space of node v's row.

    ``v`` must be a node id of ``sys`` (:class:`DimensionError` otherwise).
    """
    a = sys.rows[_node(sys, v)]
    nrm2 = float(np.vdot(a, a).real)
    d = sys.ambient_dim
    return np.eye(d, dtype=a.dtype) - (omega / nrm2) * np.outer(a, a.conj())


def row_space_basis(sys: LinearSystem) -> list[np.ndarray]:
    """Orthonormal basis of the span of the equation vectors a_v, as read-only rows.

    The rows of the system's :attr:`~distkaczmarz.solver.LinearSystem.row_basis`,
    one SVD per system, in a fresh list.
    """
    return list(sys.row_basis)


def _block_columns(s: int, q: np.ndarray) -> np.ndarray:
    """The row space of s stacked estimates, ``kron(I_s, q)``, from checked columns ``q``.

    One broadcast product, bit for bit what ``np.kron`` returns, without
    its overhead (about 20 against 6 us), which a tree analysis pays on
    every fixed point.
    """
    return (np.eye(s)[:, None, :, None] * q[:, None, :]).reshape(s * q.shape[0], -1)


@value_dataclass
class Restriction:
    """The linear part of an affine map on the stacked span of one orthonormal basis.

    ``q`` holds the checked ``(d, r)`` basis columns, ``Q = kron(I_s, q)``
    the stacked columns and ``R = Q* B Q`` the restricted map, all three
    read-only copies of the caller's arrays.  ``rho`` is the largest
    modulus of R's eigenvalues, 0 for an empty basis.
    """

    q: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    rho: float


@value_dataclass
class AffineIteration:
    """One iteration as the affine map x -> B x + c.

    :meth:`restriction` keeps its last result outside the dataclass fields,
    so equality and repr see only B and c.
    """

    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_restricted", None)

    def apply(self, x) -> np.ndarray:
        """``B x + c`` of one finite vector of the map's side, else a named error."""
        return self.B @ _vector(x, self.B.shape[1]) + self.c

    def restriction(self, basis: Sequence[np.ndarray], s: int = 1) -> Restriction:
        """B on the row space of ``s`` stacked blocks, given an orthonormal basis of one block.

        One restriction and one eigensolve per map and basis: the result for
        the last basis is kept and returned again while the stacked columns
        are equal by value, without checking them again; other columns are
        checked to be orthonormal first.  ``s`` must be a positive integer
        that divides the map's side, and the basis vectors must have the
        block length, the side over ``s``; otherwise :class:`DimensionError`.
        """
        side = self.B.shape[0]
        if not _splits(side, s):
            raise DimensionError(f"a map of side {side} does not split into {s!r} blocks")
        q = _stack(basis, side // s).T
        last = self._restricted
        if last is not None and np.array_equal(last.q, q):
            return last
        big_q = _block_columns(s, _orthonormal(q))
        r = big_q.conj().T @ self.B @ big_q
        out = Restriction(q, big_q, r, _max_modulus(r))
        object.__setattr__(self, "_restricted", out)
        return out


@value_dataclass
class PathSorFactors:
    """Over-relaxation factor matrices of one dispersion chain.

    ``D`` holds the squared row norms, ``Omega`` the relaxation parameters,
    ``L`` the strictly lower triangle of pairwise row inner products, and
    ``A_path``/``b_path`` the stacked equations, all in path order.  The
    arrays are read-only copies of the caller's.
    """

    nodes: tuple[int, ...]
    D: np.ndarray
    Omega: np.ndarray
    L: np.ndarray
    A_path: np.ndarray
    b_path: np.ndarray

    def solve_coefficients(self, x) -> np.ndarray:
        """Expansion coefficients c with chain(x) = x + A_path* c."""
        x = _vector(x, self.A_path.shape[1])
        with np.errstate(all="ignore"):
            coeff = self._solved(self.Omega @ (self.b_path - self.A_path @ x))
        return _finite(coeff, "the path SOR coefficients")

    def affine(self) -> AffineIteration:
        """The chain of relaxed projections as an explicit affine map."""
        with np.errstate(all="ignore"):
            g = self.A_path.conj().T @ self._solved(self.Omega)
            b = np.eye(self.A_path.shape[1], dtype=np.complex128) - g @ self.A_path
            c = g @ self.b_path
        return AffineIteration(B=_finite(b, "the path SOR map"), c=_finite(c, "the path SOR map"))

    def _solved(self, rhs: np.ndarray) -> np.ndarray:
        """``(D + Omega L)^-1 rhs``; NaN where the solve breaks down.

        ``D + Omega L`` is lower triangular with the squared row norms on its
        diagonal, so elimination breaks down only when its entries pass the
        float range, as the chain's map does at a large relaxation; the
        callers then raise :class:`NumericalFailureError` for the NaN.
        """
        try:
            return np.linalg.solve(self.D + self.Omega @ self.L, rhs)
        except np.linalg.LinAlgError:
            return np.full(np.shape(rhs), np.nan)


def path_sor_factors(
    sys: LinearSystem, node_path: Sequence[int], relax: RelaxationAssignment
) -> PathSorFactors:
    """Factor matrices for the relaxed projection chain along ``node_path``.

    The path is a nonempty sequence of node ids of ``sys``; any other entry
    raises :class:`DimensionError`.
    """
    _require_assignment(sys, relax)
    nodes = tuple(_node(sys, v) for v in node_path)
    if not nodes:
        raise DimensionError("empty node path")
    omega = relax.effective()
    rows = sys.rows[list(nodes)]
    inner = rows.conj() @ rows.T  # [j, k] = a_j* a_k
    return PathSorFactors(
        nodes=nodes,
        D=np.diag(np.diag(inner).real).astype(np.complex128),
        Omega=np.diag(omega[list(nodes)]).astype(np.complex128),
        L=np.tril(inner, -1),
        A_path=rows.conj(),
        b_path=sys.rhs[list(nodes)],
    )


def _finite(maps: np.ndarray, name: str) -> np.ndarray:
    """``maps`` as assembled, or :class:`NumericalFailureError` naming the map ``name``.

    The error is raised when an entry overflowed, a NaN included.
    """
    if not np.isfinite(maps).all():
        raise NumericalFailureError(f"{name} overflowed: its entries pass the float range")
    return maps


def _block_map(sys: LinearSystem, net, relax: RelaxationAssignment) -> BlockStructure:
    """The pass over a valid tree or DAG as a block map, from one kernel assembly.

    The kernel's :meth:`~distkaczmarz.solver._Pass.affine` gives the block
    rows of ``[B | c]``, one block per minimal node; a tree is the one-block
    case, whose only minimal node is the root.  Raises
    :class:`NumericalFailureError` when the map overflows.
    """
    _require_valid(sys, net, relax=relax)
    kernel = _kernel(sys, net)
    (m,) = _finite(kernel.affine(relax.effective()), "the assembled pass map")
    aggregate = AffineIteration(m[:, :-1], m[:, -1])
    return BlockStructure(aggregate, kernel.sources, sys.ambient_dim, sys, net)


def tree_affine(
    sys: LinearSystem, net: TreeNetwork, relax: RelaxationAssignment
) -> AffineIteration:
    """The dispersion/pooling pass over a tree as ``x -> B x + c``: the root's one-block map.

    It is the ``aggregate`` of :func:`dag_block_structure` on the same tree,
    from the same builder; only a tree is taken here.  The paper's form, the
    leaf-weighted sum of path SOR maps, equals it and stays a cross-check.
    """
    return _block_map(sys, _checked_network(net), relax).aggregate


# ---------------------------------------------------------------------------
# Subnetwork product form and admissibility


def _as_resolved(net: TreeNetwork, group) -> ResolvedGroup:
    _checked_network(net)
    if isinstance(group, ResolvedGroup):
        return group
    return resolve_groups(net, SubnetworkPartition.of([group]))[0]


def _chain_matrix(sys: LinearSystem, nodes: Sequence[int], omega: np.ndarray) -> np.ndarray:
    """Product of relaxed projections along ``nodes``, first node applied first.

    Raises :class:`NumericalFailureError` when the product overflows.
    """
    out = np.eye(sys.ambient_dim, dtype=sys.rows.dtype)
    with np.errstate(all="ignore"):
        for v in nodes:
            out = relaxed_projection_matrix(sys, v, omega[v]) @ out
    return _finite(out, "the chain of relaxed projections")


def group_operator(
    sys: LinearSystem, net: TreeNetwork, group, relax: RelaxationAssignment
) -> np.ndarray:
    """Weighted average of projection chains through one subnetwork's trees.

    One walk down from the component tops builds each member's projection
    once; the leaf terms are added in ascending leaf order.  Raises
    :class:`NumericalFailureError` when a chain overflows.
    """
    _require_assignment(sys, relax)
    g = _as_resolved(net, group)
    omega = relax.effective()
    d = sys.ambient_dim
    terms = {}
    eye = np.eye(d, dtype=sys.rows.dtype)
    stack = [(top, net.edge_weight[(g.gateway, top)], eye) for top in g.tops]
    with np.errstate(all="ignore"):
        while stack:
            v, w, chain = stack.pop()
            chain = relaxed_projection_matrix(sys, v, omega[v]) @ chain
            kids = net.children.get(v, ())
            if not kids:
                terms[v] = w * chain
            stack.extend((c, w * net.edge_weight[(v, c)], chain) for c in kids if c in g.members)
        total = sum((terms[leaf] for leaf in g.leaves), np.zeros((d, d), dtype=sys.rows.dtype))
    return _finite(total, f"the group map at gateway {g.gateway}")


def build_p_omega(
    sys: LinearSystem,
    net: TreeNetwork,
    part: SubnetworkPartition,
    relax: RelaxationAssignment,
) -> np.ndarray:
    """Product-form iteration matrix grouped by subnetworks.

    Each group contributes the gateway chain from the root followed by the
    weighted average of its internal projection chains.  The groups must
    be disjoint and cover every leaf but the root (the cover rule of
    :func:`validate_subnetworks`), otherwise the product form cannot equal
    the pooled iteration matrix: a node in two groups has its projection
    counted twice.  Raises :class:`NumericalFailureError` when a chain or
    their product overflows.
    """
    _require_valid(sys, net, (TreeNetwork,), relax)
    groups = resolve_groups(net, part)
    if _cover_violations(net, part):
        raise PartitionError("groups must cover every leaf exactly once")
    omega = relax.effective()
    if not groups:  # single-node tree: the root is the only leaf
        return relaxed_projection_matrix(sys, net.root, omega[net.root])
    d = sys.ambient_dim
    p = np.zeros((d, d), dtype=sys.rows.dtype)
    with np.errstate(all="ignore"):
        for g in groups:
            prod = _chain_matrix(sys, net.path_from_root(g.gateway), omega)
            p += path_weight(net, net.root, g.gateway) * (group_operator(sys, net, g, relax) @ prod)
    return _finite(p, "the product-form iteration matrix")


def subnetwork_norm(
    sys: LinearSystem, net: TreeNetwork, group, relax: RelaxationAssignment
) -> float:
    """Operator norm of the group map restricted to the span of its rows."""
    return _group_norms(sys, net, _as_resolved(net, group), (relax,))[0]


def _group_norms(sys: LinearSystem, net: TreeNetwork, g: ResolvedGroup, relaxations) -> list[float]:
    """:func:`subnetwork_norm` of a resolved group under each assignment, from one row basis."""
    basis = orthonormal_basis([sys.rows[v] for v in sorted(g.members)])
    return [operator_norm_on_span(group_operator(sys, net, g, r), basis) for r in relaxations]


def _leaf_group(sys: LinearSystem, net: TreeNetwork, group, what: str):
    """A leaf group, and its leaves' gateway edge weights and squared row norms in leaf order."""
    g = _as_resolved(net, group)
    if not g.is_leaf_group:
        raise ApplicabilityError(f"the {what} applies to leaf groups only")
    weights = np.array([net.edge_weight[(g.gateway, leaf)] for leaf in g.leaves])
    norms2 = np.array([float(np.vdot(sys.rows[v], sys.rows[v]).real) for v in g.leaves])
    return g, weights, norms2


def leaf_norm_formula(
    sys: LinearSystem, net: TreeNetwork, group, relax: RelaxationAssignment
) -> float:
    """Restricted norm of a leaf group via its weighted Gram spectrum.

    Equals ``max |1 - lambda|`` over the nonzero eigenvalues of D G, where D
    stacks ``w(gateway, leaf) * omega_leaf / |a_leaf|^2`` and G is the Gram
    matrix of the leaf rows.  Only applicable to groups made of leaves.
    """
    g, weights, norms2 = _leaf_group(sys, net, group, "Gram-spectrum norm")
    _require_assignment(sys, relax)
    diag = weights * relax.effective()[list(g.leaves)] / norms2
    spec = eigenvalues(np.diag(diag) @ gram([sys.rows[v] for v in g.leaves]))
    vals = spec.eigenvalues
    nonzero = vals[np.abs(vals) > ZERO_EIGENVALUE_CUT * max(spec.radius, 1.0)]
    if nonzero.size == 0:
        return 1.0
    return float(np.max(np.abs(1.0 - nonzero)))


def _leaf_bounds(sys: LinearSystem, net: TreeNetwork, group) -> dict[int, float]:
    """Every leaf's :func:`admissible_upper_bound` in a leaf group, from one stacked-rows norm."""
    g, weights, norms2 = _leaf_group(sys, net, group, "relaxation bound")
    rho = float(np.linalg.norm(sys.rows[list(g.leaves)], 2)) ** 2
    return dict(zip(g.leaves, (2.0 * norms2 / (weights * rho)).tolist()))


def admissible_upper_bound(sys: LinearSystem, net: TreeNetwork, group, leaf: int) -> float:
    """Per-leaf relaxation bound `2 |a|^2 / (w * rho(G))` for a leaf group.

    Any assignment strictly inside (0, bound) at every leaf of the group
    keeps the restricted norm below 1.  With orthonormal rows and uniform
    weights the bound is twice the leaf count.  rho(G) of the leaves' Gram
    matrix is the squared largest singular value of their stacked rows, so
    no L x L spectrum is formed.
    """
    bounds = _leaf_bounds(sys, net, group)
    if leaf not in bounds:
        raise ValueError(f"node {leaf} is not a leaf of this group")
    return bounds[leaf]


@value_dataclass
class GroupVerdict:
    nodes: tuple[int, ...]
    alpha: float
    passed: bool
    leaf_bounds: Mapping[int, float] | None = None  # a leaf group's admissible_upper_bound per leaf


@value_dataclass
class AdmissibilityReport:
    """Outcome of the two admissibility conditions.

    ``node_verdicts`` maps every node outside all groups to its effective
    relaxation parameter and whether it lies in (0, 2); ``groups`` carries
    the restricted norms.  As a value class the report keeps a read-only
    view of a copy of the caller's dict, and each :class:`GroupVerdict`
    one of its ``leaf_bounds``.
    ``unit_scale_admissible`` records the same check at scale 1 when a
    down-scaled assignment was supplied (a pass at scale 1 carries over to
    any scale in (0, 1]).
    """

    node_verdicts: Mapping[int, tuple[float, bool]]
    groups: tuple[GroupVerdict, ...]
    admissible: bool
    unit_scale_admissible: bool | None = None


def check_admissibility(
    sys: LinearSystem,
    net: TreeNetwork,
    part: SubnetworkPartition,
    relax: RelaxationAssignment,
) -> AdmissibilityReport:
    """Judge the two admissibility conditions of ``relax`` on a tree or a DAG.

    Condition 1 asks every node outside the groups for an effective
    relaxation in (0, 2); condition 2 asks each group's restricted norm
    (:func:`subnetwork_norm`) to be below 1, and a leaf group also reports
    each leaf's :func:`admissible_upper_bound`.  Groups are subtrees, so an
    empty partition is the only one a DAG takes, and condition 1 then covers
    every node; a non-empty one on a DAG raises the ``TypeError`` of
    :func:`resolve_groups`.  A down-scaled assignment is also judged at
    scale 1.  Raises :class:`NumericalFailureError` when a group's map
    overflows.
    """
    _require_valid(sys, net, relax=relax)
    groups = resolve_groups(net, part) if part.groups else []
    grouped = set().union(*(g.members for g in groups))
    free = [v for v in range(net.node_count) if v not in grouped]
    omega = relax.effective()
    node_verdicts = {v: (float(omega[v]), bool(0.0 < omega[v] < 2.0)) for v in free}
    # a down-scaled assignment is also judged at scale 1, on the same groups and bases
    relaxations = (relax,) if relax.scale == 1.0 else (relax, relax.scaled(1.0))
    verdicts, unit_groups_pass = [], True
    for g in groups:
        alpha, *unit_alpha = _group_norms(sys, net, g, relaxations)
        bounds = _leaf_bounds(sys, net, g) if g.is_leaf_group else None
        verdicts.append(GroupVerdict(tuple(sorted(g.members)), alpha, alpha < 1.0, bounds))
        unit_groups_pass &= all(a < 1.0 for a in unit_alpha)
    admissible = all(ok for _, ok in node_verdicts.values()) and all(
        v.passed for v in verdicts
    )
    unit = None
    if relax.scale != 1.0:
        unit = unit_groups_pass and all(0.0 < relax.omega[v] < 2.0 for v in free)
    return AdmissibilityReport(
        node_verdicts=node_verdicts,
        groups=tuple(verdicts),
        admissible=admissible,
        unit_scale_admissible=unit,
    )


# ---------------------------------------------------------------------------
# Limits: fixed points and weighted least squares


def _ls_blocks(sys: LinearSystem, coeff: np.ndarray, basis) -> list[np.ndarray]:
    """Minimizers over the span of ``basis`` of weighted residual sums, one per row of ``coeff``.

    Row i weights node v's residual ``|b_v - a_v* x|^2`` by
    ``coeff[i, v] / |a_v|^2``.  Each block's normal equations on the span
    are solved in the minimal-norm sense, so a singular set (zero weights,
    or paths that never pool into the block) yields the minimizer of least
    norm.
    """
    q = _checked_columns(basis, sys.ambient_dim)
    p = sys.system_matrix() @ q  # row v is a_v* q
    k = coeff / np.einsum("ij,ij->i", sys.rows.conj(), sys.rows).real
    m, rhs = (p.conj().T * k[:, None, :]) @ p, (k * sys.rhs) @ p.conj()
    return [q @ np.linalg.lstsq(mi, ri, rcond=1e-12)[0] for mi, ri in zip(m, rhs)]


def weighted_ls_minimizer(
    sys: LinearSystem, net: TreeNetwork, relax: RelaxationAssignment
) -> np.ndarray:
    """Minimal-norm minimizer over the row space of the pooled weighted residual functional.

    Node v contributes ``omega_v * w(root, v) / |a_v|^2 * |b_v - a_v* x|^2``;
    the total leaf weight below v telescopes to the root-to-v path weight,
    the tree's path mass.  Uses the unscaled relaxation profile, so the
    result is the scale-free target of the slowed-down iteration.  It is the
    one-block case of :func:`dag_ls_minimizer`.
    """
    _require_valid(sys, net, (TreeNetwork,), relax)
    return _ls_blocks(sys, relax.omega * net.schedule.masses, row_space_basis(sys))[0]


def _fixed_point_on(it: AffineIteration, res: Restriction) -> np.ndarray:
    """Fixed point of ``it`` on the span of ``res.Q``: one solve of ``(I - R) eta = Q* c``.

    Raises :class:`NonContractionError` when ``rho >= 1``, and
    :class:`NumericalFailureError` when ``I - R`` is singular to working
    precision, as it can be at a radius just below 1.
    """
    if res.rho >= 1.0:
        raise NonContractionError(f"restricted spectral radius {res.rho:.6f} >= 1")
    eye = np.eye(res.R.shape[0], dtype=res.R.dtype)
    try:
        eta = np.linalg.solve(eye - res.R, res.Q.conj().T @ it.c)
    except np.linalg.LinAlgError:
        eta = None
    if eta is None or not np.isfinite(eta).all():
        raise NumericalFailureError(
            "the fixed-point solve broke down: I - R is singular to working precision"
            f" at restricted spectral radius {res.rho!r}"
        )
    return res.Q @ eta


def fixed_point(it: AffineIteration, row_space_basis: Sequence[np.ndarray]) -> np.ndarray:
    """Unique fixed point of the iteration restricted to the row space.

    Requires the restricted spectral radius to be below 1; otherwise the
    iteration does not contract there and no limit exists.
    """
    return _fixed_point_on(it, it.restriction(row_space_basis))


@value_dataclass
class DichotomyReport:
    """Eigenvalue split of the iteration matrix: unit eigenvalues against
    strictly contracting ones, with the measured margin.  ``eigenvalues``
    lists the checked spectrum in :class:`~distkaczmarz.numerics.Spectrum`
    order, as a read-only copy of the caller's array."""

    unit_count: int
    nullity: int
    unit_vectors_in_null_space: bool
    max_other_modulus: float
    margin: float
    rho_restricted: float
    holds: bool
    eigenvalues: np.ndarray = field(repr=False, compare=False)


def eigen_dichotomy_check(it: AffineIteration, sys: LinearSystem) -> DichotomyReport:
    """Verify every eigenvalue is 1 (on the null space) or strictly inside the disc.

    ``it`` is a tree's map or a DAG's block map, one block of d entries per
    minimal node (a tree's map is the one-block case); a unit eigenvector
    is in the null space when every block is, ``|A v_i|`` summed in squares
    against ``|v|``.  Two eigenproblems: ``eig(B)`` for the check, whose
    eigenvalues the report lists, and the map's row-space
    :meth:`~AffineIteration.restriction` on the blocks for
    ``rho_restricted``.  A B with zero imaginary part goes to the real
    solver, as in :func:`~distkaczmarz.numerics.eigenvalues`.
    """
    d, a_t = sys.ambient_dim, sys.system_matrix().T
    s = len(_blocks(it.B.diagonal(), d))  # DimensionError unless B's side splits into d-blocks
    vals, vecs = np.linalg.eig(_real_if_exact(it.B))
    basis = row_space_basis(sys)
    nullity = d - len(basis)
    unit = np.abs(vals - 1.0) <= UNIT_EIGENVALUE_TOL
    in_null = True
    for k in np.nonzero(unit)[0]:
        v = vecs[:, k].reshape(s, d)  # one row per block
        if float(np.linalg.norm(v @ a_t)) > NULL_VECTOR_TOL * float(np.linalg.norm(v)):
            in_null = False
    others = np.abs(vals[~unit])
    max_other = float(np.max(others)) if others.size else 0.0
    holds = bool(int(np.sum(unit)) == nullity and in_null and max_other < 1.0)
    return DichotomyReport(
        unit_count=int(np.sum(unit)),
        nullity=nullity,
        unit_vectors_in_null_space=in_null,
        max_other_modulus=max_other,
        margin=1.0 - max_other,
        rho_restricted=it.restriction(basis, s).rho,
        holds=holds,
        eigenvalues=_sorted_spectrum(vals.astype(np.complex128)),
    )


# ---------------------------------------------------------------------------
# DAG block machinery


def _ascending_affine(
    sys: LinearSystem, nodes: Sequence[int], omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and constant of the relaxed update chain along ``nodes``.

    Raises :class:`NumericalFailureError` when either overflows.
    """
    lin = _chain_matrix(sys, nodes, omega)
    const = np.zeros(sys.ambient_dim, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for v in nodes:
            const = relaxed_q(const, sys.rows[v], sys.rhs[v], omega[v])
            const = _finite(const, "the constant of an ascending chain")
    return lin, const


def dag_block_p(
    sys: LinearSystem, net: DagNetwork, relax: RelaxationAssignment
) -> AffineIteration:
    """Block iteration matrix assembled path by path from the up-down paths.

    Block (j, i) sums, over all up-down paths from minimal node i to minimal
    node j, the path weight times the product of relaxed projections along
    the ascent.  The constant term stacks the same weights applied to the
    ascent chains evaluated at the origin.
    """
    _require_valid(sys, net, (DagNetwork,), relax)
    minimal = net.minimal_nodes
    s, n = len(minimal), sys.ambient_dim
    omega = relax.effective()
    big_b = np.zeros((s, n, s, n), dtype=np.complex128)  # big_b[j, :, i] is block (j, i)
    big_c = np.zeros((s, n), dtype=np.complex128)
    for i, mi in enumerate(minimal):
        for j, mj in enumerate(minimal):
            for path in enumerate_updown_paths(net, mi, mj):
                asc = path.nodes[: path.peak_index + 1]
                lin, const = _ascending_affine(sys, asc, omega)
                big_b[j, :, i] += path.weight * lin
                big_c[j] += path.weight * const
    return AffineIteration(B=big_b.reshape(n * s, n * s), c=big_c.ravel())


def _splits(side: int, n) -> bool:
    """Whether ``n`` is a positive integer, not a bool, that divides ``side``.

    An integer is a Python ``int`` or a numpy integer, as for a node id
    (:func:`~distkaczmarz.topology._is_node`).
    """
    return (type(n) is int or isinstance(n, np.integer)) and n >= 1 and side % n == 0


def _blocks(m, block_size: int) -> np.ndarray:
    """``m`` in blocks of ``block_size``: a vector as ``(s, n)``, a matrix as ``(r, c, n, n)``.

    ``block_size`` must be a positive integer that divides every side of ``m``.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim not in (1, 2) or not all(_splits(k, block_size) for k in arr.shape):
        raise DimensionError(f"shape {arr.shape} does not split into blocks of size {block_size!r}")
    n = int(block_size)
    if arr.ndim == 1:
        return arr.reshape(-1, n)
    return arr.reshape(arr.shape[0] // n, n, arr.shape[1] // n, n).swapaxes(1, 2)


def block_infinity_norm(m, block_size: int) -> float:
    """Max block norm of a vector, or the row-sum bound for a block matrix; 0 when empty.

    For matrices this is the sum over a block row of the blocks' spectral
    norms, maximized over rows: an upper bound for the norm induced by the
    max-block-Euclidean vector norm.
    """
    b = _blocks(m, block_size)
    norms = np.linalg.norm(b, axis=1) if b.ndim == 2 else np.linalg.norm(b, 2, axis=(2, 3)).sum(1)
    return float(np.max(norms, initial=0.0))


def sampled_block_norm_lower_bound(
    m, block_size: int, samples: int = 20, seed: int = 0
) -> float:
    """Lower bound for the induced block norm from random unit block vectors.

    ``m`` must be a finite matrix whose sides split into blocks of
    ``block_size``; any other shape raises :class:`DimensionError` naming it.
    """
    arr = as_matrix(m).astype(np.complex128, copy=False)
    _, cols, n, _ = _blocks(arr, block_size).shape
    g = np.random.default_rng(seed).standard_normal((samples, 2, cols * n))
    z = (g[:, 0] + 1j * g[:, 1]).reshape(samples, cols, n)
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    return max((block_infinity_norm(arr @ zk.ravel(), n) for zk in z), default=0.0)


@value_dataclass
class BlockStructure:
    """The pass as a block map over the stacked minimal-node estimates.

    ``aggregate`` is the block map from the pass kernel at the effective
    relaxation: block i is the estimate that minimal node i pools; a tree's
    map has one block, its root's.  The paper writes block i as
    ``sum_j w[i, j] chain_j``, a pooled sum of per-path SOR maps; the kernel
    carries that sum without enumerating the paths, and ``masses``, the
    per-node totals of the pooled weights, is the network's: its schedule's
    :attr:`~distkaczmarz.topology.Schedule.masses`.
    The restricted radius, the fixed point and the stationarity conditions
    are all read from ``aggregate``: the first two share its one cached
    :meth:`~AffineIteration.restriction` per basis, and the conditions are
    its block-row sums, so no analysis pushes the kernel again.  Every
    field is a value, so equality compares them all by value and a copy or
    a pickle compares equal.
    """

    aggregate: AffineIteration
    minimal_nodes: tuple[int, ...]
    block_size: int
    system: LinearSystem = field(repr=False)
    network: TreeNetwork | DagNetwork = field(repr=False)

    @property
    def s(self) -> int:
        return len(self.minimal_nodes)

    @property
    def masses(self) -> np.ndarray:
        """``masses[i, v]``: sum of ``w[i, j]`` over the dispersion paths j through v."""
        return self.network.schedule.masses

    def condition_values(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Weighted stationarity conditions, one n-vector per minimal node.

        Block i evaluates ``sum_j w[i, j] S_j* (D_j + O_j L_j)^-1 O_j
        (b_j - S_j z_i)``: the pooled normal-equation residual of block i
        against every dispersion path.  Each term is the step ``chain_j(z_i)
        - z_i`` and each row of w sums to 1, so the value is the pass from
        ``z_i`` on every minimal node, read off the assembled map:
        ``(sum_j B_ij - I) z_i + c_i``, one block-row sum and one batched
        product.  ``blocks`` are read by the estimate rule of
        :func:`~distkaczmarz.solver._estimates`: one finite vector of length
        d per minimal node, else a named error.
        """
        s, n = self.s, self.block_size
        z = _estimates(self.system, s, blocks)[:, :, None]
        rows = self.aggregate.B.reshape(s, n, s, n).sum(axis=2)  # rows[i] = sum_j B_ij
        return list((rows @ z - z)[:, :, 0] + self.aggregate.c.reshape(s, n))

    def condition_residual(self, blocks: Sequence[np.ndarray]) -> float:
        return float(np.linalg.norm(np.concatenate(self.condition_values(blocks))))


def dag_block_structure(
    sys: LinearSystem, net: TreeNetwork | DagNetwork, relax: RelaxationAssignment
) -> BlockStructure:
    """The block map of the iteration on a DAG or a tree from one run of the pass kernel.

    A tree is the one-block DAG: its map has one block, the root's, and its
    ``aggregate`` is :func:`tree_affine`.  The paper's form, the pooled
    per-path SOR maps, equals it and stays a cross-check.
    """
    return _block_map(sys, net, relax)


def dag_restricted_rho(bs: BlockStructure, row_basis: Sequence[np.ndarray]) -> float:
    """Spectral radius of the block map restricted to the stacked row space; 0 on an empty basis."""
    return bs.aggregate.restriction(row_basis, bs.s).rho


def _sweep_axes(omega: np.ndarray, most: int) -> list[list[int]] | None:
    """The rows of an omega stack that vary, grouped by equality; None past ``most`` groups.

    Rows are grouped by their bytes, so equal rows of the nonnegative stack
    share a key once -0.0 is folded into 0.0 (``-0.0 + 0.0`` is 0.0), which
    only a row whose least value is 0 needs.  The groups come in the order
    of their first rows, and only their keys and one row's are held at once.
    """
    low = omega.min(axis=1)
    axes: dict[bytes, list[int]] = {}
    for v in np.flatnonzero(low != omega.max(axis=1)).tolist():
        row = omega[v] + 0.0 if low[v] == 0.0 else omega[v]
        same = axes.get(key := row.tobytes())
        if same is not None:
            same.append(v)
        elif len(axes) == most:
            return None
        else:
            axes[key] = [v]
    return list(axes.values())


def _interpolation_nodes(row: np.ndarray, degree: int) -> np.ndarray:
    """The row's own values if it has at most ``degree + 1``, else Chebyshev-Lobatto points.

    The Chebyshev-Lobatto points span the row's range, its ends included.
    The distinct values are peeled off one at a time, at most ``degree + 2``
    of them; ``np.unique`` would sort the whole row, and its first call maps
    about 1.3 MB of sort code into the process.
    """
    values, rest = [], row
    while rest.size and len(values) <= degree + 1:
        values.append(rest[0])
        rest = rest[rest != rest[0]]
    if len(values) <= degree + 1:
        return np.array(values)
    lo, hi = row.min(), row.max()
    nodes = lo + (hi - lo) * (1.0 - np.cos(np.pi * np.arange(degree + 1) / degree)) / 2.0
    nodes[-1] = hi
    return nodes


def _lagrange_weights(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``(len(t), len(nodes))`` Lagrange basis of ``nodes`` at ``t``; exactly 0 or 1 at a node."""
    others = nodes[np.nonzero(~np.eye(len(nodes), dtype=bool))[1].reshape(len(nodes), -1)]
    return np.prod((t[:, None, None] - others) / (nodes[:, None] - others), axis=2)


def _point_budget(kernel: _Pass, columns: int, step: int, side: int) -> float:
    """The most tensor-grid points at which interpolating ``columns`` points is the cheaper route.

    One price table (see ``_SWEEP_LEVEL``): the stack pushes every point in
    chunks of ``step``; interpolation pays its set-up, one push of its grid
    and a combination of the grid's maps, ``side`` square, per point.
    """
    rows = len(kernel.rhs) + 1  # the push state's, its padding row included
    push = _SWEEP_LEVEL * len(kernel.schedule.levels) + _SWEEP_CHUNK
    stack = -(-columns // step) * push + columns * kernel.width * rows * kernel.dim
    setup = _SWEEP_SETUP + _SWEEP_SETUP_ROW * rows + push
    per_point = kernel.width * rows * kernel.dim + columns * side * side / _SWEEP_COMBINE
    return (stack - setup - columns * _SWEEP_COLUMN) / per_point


def _interpolated(kernel: _Pass, omega: np.ndarray, restrict, budget: float):
    """Restricted maps at any slice of ``omega`` from the maps at one tensor grid, or None.

    ``restrict`` maps a ``(V, g)`` omega stack to its ``g`` restricted
    maps; it is called once, on the tensor grid.  The result takes a
    ``(V, g)`` slice of ``omega`` to the Lagrange combinations of those
    maps.  None when the grid's ``M`` points exceed the :func:`_point_budget`
    ``budget``; as every axis has at least 2 points, a budget below 2 rules
    out every grid before any axis is found, and more than ``log2`` of the
    budget axes rule it out before any degree is computed.  None as well
    when the combinations could round an entry by more than
    ``SWEEP_INTERPOLATION_ROUNDING``: that rounding is at most about eps
    times the tensor grid's Lebesgue constant times the largest entry of its
    maps, and B grows like ``|1 - omega|^D`` in an axis of degree D.
    """
    if budget < 2:
        return None
    axes = _sweep_axes(omega, int(budget).bit_length() - 1)
    if axes is None:
        return None
    nodes = [
        _interpolation_nodes(omega[rows[0]], deg)
        for rows, deg in zip(axes, kernel.schedule.axis_degrees(axes))
    ]
    points = math.prod(len(x) for x in nodes)
    if points > budget:
        return None
    grid = np.repeat(omega[:, :1], points, axis=1)
    for rows, values in zip(axes, np.meshgrid(*nodes, indexing="ij")):
        grid[rows] = values.ravel()
    at_grid = restrict(grid)
    # Each 1-d Lebesgue constant is at most 1 + (2/pi) log(degree) at the
    # Chebyshev-Lobatto points, and 1 at the columns when the nodes are the
    # axis's own values.
    lebesgue = math.prod(1.0 + 2.0 / math.pi * math.log(len(x) - 1) for x in nodes)
    if np.finfo(float).eps * lebesgue * np.abs(at_grid).max() > SWEEP_INTERPOLATION_ROUNDING:
        return None
    flat = at_grid.reshape(points, -1)

    def maps(cols: np.ndarray) -> np.ndarray:
        weights = np.ones((cols.shape[1], 1))
        for rows, x in zip(axes, nodes):  # tensor weights in the grid's C order
            w = _lagrange_weights(x, cols[rows[0]])
            weights = (weights[:, :, None] * w[:, None, :]).reshape(len(w), -1)
        return (weights @ flat).reshape(-1, *at_grid.shape[1:])

    return maps


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        return os.cpu_count() or 1


_helper_lock = threading.Lock()
_helpers_running = 0  # helper threads of every sweep in this process


def _reserve_helpers(wanted: int) -> int:
    """Up to ``wanted`` of the ``CPUs - 1`` helper slots the process's running sweeps leave free."""
    global _helpers_running
    with _helper_lock:
        n = max(0, min(wanted, _cpu_count() - 1 - _helpers_running))
        _helpers_running += n
        return n


def _release_helpers(n: int) -> None:
    global _helpers_running
    with _helper_lock:
        _helpers_running -= n


def _chunks_in_order(work, count: int, chunk_bytes: int) -> list:
    """``[work(i) for i in range(count)]`` on the caller and helper threads.

    The helpers number at most ``count - 1``, the free slots of
    :func:`_reserve_helpers`, and as many chunks of ``chunk_bytes`` as
    ``SWEEP_HELPER_BYTES`` holds; with none, the caller runs every chunk in
    order.  Each thread claims the next chunk index under a lock, so the
    chunks are the serial loop's and each result lands at its index.  A
    failing chunk stops further claims; every chunk before it was claimed
    already and runs to its end, so the first failure in chunk order, the
    one the serial loop raises, is re-raised.  The caller joins every
    helper before it returns or raises, so no thread outlives the call.
    """
    results: list = [None] * count
    failures: list = [None] * count
    lock = threading.Lock()
    claimed = 0

    def claim() -> int:
        nonlocal claimed
        with lock:
            i, claimed = claimed, claimed + 1
            return i

    def stop() -> None:
        nonlocal claimed
        with lock:
            claimed = count

    def run() -> None:
        while (i := claim()) < count:
            try:
                results[i] = work(i)
            except Exception as exc:  # re-raised by the caller in chunk order
                failures[i] = exc
                stop()

    threads: list[threading.Thread] = []
    helpers = _reserve_helpers(min(count - 1, SWEEP_HELPER_BYTES // chunk_bytes))
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
        run()
    finally:
        stop()  # an interrupted caller lets the helpers end after their current chunk
        for thread in threads:
            thread.join()
        _release_helpers(helpers)
    first = next((exc for exc in failures if exc is not None), None)
    if first is not None:
        raise first
    return results


def restricted_rho(sys: LinearSystem, net: TreeNetwork | DagNetwork, omega) -> np.ndarray:
    """Spectral radius on the row space of the pass at each column of a ``(V, G)`` omega stack.

    Network, parameters and the basis ``kron(I_s, q)`` are checked once,
    and the system's kernel for ``net`` serves every chunk.  Rows that vary
    and are equal to each other form one sweep axis; constant rows are the
    baseline.  A dispersion chain
    passes each node at most once, so B is a polynomial in axis k's omega of
    degree ``D_k``, the most nodes of the axis on one chain (1 for a leaf
    group).  B is therefore exact on the tensor grid of ``D_k + 1`` nodes
    per axis: the axis's own values if it has at most that many, else the
    Chebyshev-Lobatto points of its range (for degree 1 its min and max, so
    the weights are convex).  One price (``_SWEEP_LEVEL``) bounds the grid:
    the stack route costs a chunk's push levels per chunk plus the
    ``G (s d + 1) (V + 1) d`` entries it pushes; interpolation costs its
    set-up, one push of the grid's ``M`` points and a combination of ``M``
    maps per column, so the price allows at most :func:`_point_budget`
    points.  A budget below the 2 points of one axis sends the sweep to the
    stack before any axis, degree or node is computed, as on the bench's
    65-column desk probes; a sweep of 1,601 columns on the same desks, or
    of 41 on a 2,000-node tree at d = 8, interpolates.  When the grid has
    at most that many points, its ``M`` maps are pushed and restricted
    once, and each column's restricted map is their Lagrange combination,
    unless those maps are so large that the combinations could round an
    entry by more than ``SWEEP_INTERPOLATION_ROUNDING`` (a wide range on an
    axis of high degree); otherwise each chunk of columns is one kernel
    push and one restriction.  Either route ends every chunk of
    ``SWEEP_CHUNK_COLUMNS`` kernel columns' worth of points in one
    ``eigvals``.  The chunks run on
    the caller and up to one helper thread per further CPU of the process's
    affinity mask, fewer while other sweeps hold helpers or when
    ``SWEEP_HELPER_BYTES`` holds fewer chunks' push state (numpy releases
    the GIL in its products and eigensolves); a single chunk starts no
    thread.  Every chunk makes the same numpy calls on the same columns, so
    the result does not depend on the thread count, and a failing chunk
    raises what the serial loop would: the first failure in chunk order.
    """
    _require_valid(sys, net)
    omega = _checked_omega(omega)
    if omega.ndim != 2 or omega.shape[0] != net.node_count or omega.shape[1] < 1:
        raise DimensionError(f"omega must be a ({net.node_count}, G >= 1) stack, got {omega.shape}")
    kernel = _kernel(sys, net)
    q = _checked_columns(row_space_basis(sys), sys.ambient_dim)
    qs = _block_columns(len(kernel.sources), q)
    step = max(1, SWEEP_CHUNK_COLUMNS // kernel.width)

    def restrict(cols: np.ndarray) -> np.ndarray:
        return qs.conj().T @ _finite(kernel.affine(cols), "the assembled pass map")[..., :-1] @ qs

    budget = _point_budget(kernel, omega.shape[1], step, qs.shape[1])
    maps = _interpolated(kernel, omega, restrict, budget) or restrict

    def chunk(i: int) -> np.ndarray:
        return np.max(np.abs(_eigvals(maps(omega[:, i * step : (i + 1) * step]))), axis=-1)

    entry = np.result_type(kernel.cols, kernel.rhs).itemsize
    chunk_bytes = (net.node_count + 1) * kernel.dim * step * kernel.width * entry
    return np.concatenate(_chunks_in_order(chunk, -(-omega.shape[1] // step), chunk_bytes))


def dag_fixed_point(
    bs: BlockStructure, row_basis: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], float]:
    """Fixed point of the block iteration on the stacked row space.

    Returns the per-minimal-node blocks and the norm of the pooled
    stationarity conditions evaluated there.  Raises
    :class:`NonContractionError` when the restricted block map does not
    contract.
    """
    res = bs.aggregate.restriction(row_basis, bs.s)
    blocks = np.split(_fixed_point_on(bs.aggregate, res), bs.s)
    return blocks, bs.condition_residual(blocks)


def dag_ls_minimizer(
    bs: BlockStructure, c: Sequence[float], row_basis: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per-block minimizer of the pooled weighted least-squares functional.

    Block i minimizes ``sum_j w[i, j] <D_j^-1 C_j (b_j - S_j z), b_j - S_j z>``
    over the row space, where ``C_j`` carries the positive per-node profile
    ``c`` along path j.  Grouped by node, node v's residual carries weight
    ``masses[i, v] c_v / |a_v|^2``.  Singular normal matrices (paths that
    never pool into block i) are solved in the minimal-norm sense.  A
    profile of any other shape than one value per node raises
    :class:`DimensionError`, and one with an entry that is not finite and
    positive (NaN, inf, 0 or below) raises ``ValueError`` before any solve.
    """
    c, v = np.asarray(c, dtype=float), bs.system.node_count
    if c.shape != (v,):
        raise DimensionError(f"the per-node profile has shape {c.shape}, expected ({v},)")
    if not ((0.0 < c) & (c < math.inf)).all():  # NaN fails both comparisons
        raise ValueError("the per-node profile must be positive and finite")
    return _ls_blocks(bs.system, c * bs.masses, row_basis)
