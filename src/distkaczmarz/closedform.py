"""Closed-form one-iteration maps and the analysis built on them.

The dispersion/pooling pass of the solver is an affine map ``x -> B x + c``.
:func:`tree_affine` and the block map of :func:`dag_block_structure` take it
from the solver's pass kernel, pushed over identity columns.  The paper's
alternative forms stay as independent cross-checks of its lemmas: the
successive over-relaxation factorization along dispersion paths, the product
of relaxed projections grouped by subnetworks, and the up-down path sums of
the DAG block matrix.  The module also computes restricted operator norms,
admissibility verdicts for the relaxation parameters, fixed points and
least-squares targets.

Everything here is pure construction over immutable inputs and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ApplicabilityError, DimensionError, NonContractionError, PartitionError
from .numerics import (
    as_vector,
    eigenvalues,
    gram,
    orthonormal_basis,
    operator_norm_on_span,
    restrict_to_span,
    spectral_radius,
    spectral_radius_on_span,
)
from .solver import (
    LinearSystem,
    RelaxationAssignment,
    _Pass,
    _require_valid_dag,
    _require_valid_tree,
    relaxed_q,
)
from .topology import (
    DagNetwork,
    DispersionPath,
    ResolvedGroup,
    SubnetworkPartition,
    TreeNetwork,
    enumerate_dispersion_paths,
    enumerate_updown_paths,
    path_weight,
    resolve_groups,
)

ZERO_EIGENVALUE_CUT = 1e-12


def relaxed_projection_matrix(sys: LinearSystem, v: int, omega: float) -> np.ndarray:
    """Matrix of the relaxed projection onto the null space of node v's row."""
    a = sys.rows[v]
    nrm2 = float(np.vdot(a, a).real)
    d = sys.ambient_dim
    return np.eye(d, dtype=np.complex128) - (omega / nrm2) * np.outer(a, a.conj())


def row_space_basis(sys: LinearSystem, tol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal basis of the span of the equation vectors a_v."""
    return orthonormal_basis(list(sys.rows), tol=tol)


@dataclass(frozen=True)
class AffineIteration:
    """One iteration as the affine map x -> B x + c."""

    B: np.ndarray
    c: np.ndarray

    def apply(self, x) -> np.ndarray:
        return self.B @ as_vector(x) + self.c


@dataclass(frozen=True)
class PathSorFactors:
    """Over-relaxation factor matrices of one dispersion chain.

    ``D`` holds the squared row norms, ``Omega`` the relaxation parameters,
    ``L`` the strictly lower triangle of pairwise row inner products, and
    ``A_path``/``b_path`` the stacked equations, all in path order.
    """

    nodes: tuple[int, ...]
    D: np.ndarray
    Omega: np.ndarray
    L: np.ndarray
    A_path: np.ndarray
    b_path: np.ndarray

    def solve_coefficients(self, x) -> np.ndarray:
        """Expansion coefficients c with chain(x) = x + A_path* c."""
        rhs = self.Omega @ (self.b_path - self.A_path @ as_vector(x))
        return np.linalg.solve(self.D + self.Omega @ self.L, rhs)

    def affine(self) -> AffineIteration:
        """The chain of relaxed projections as an explicit affine map."""
        g = self.A_path.conj().T @ np.linalg.solve(self.D + self.Omega @ self.L, self.Omega)
        b = np.eye(self.A_path.shape[1], dtype=np.complex128) - g @ self.A_path
        return AffineIteration(B=b, c=g @ self.b_path)


def path_sor_factors(
    sys: LinearSystem, node_path: Sequence[int], relax: RelaxationAssignment
) -> PathSorFactors:
    """Factor matrices for the relaxed projection chain along ``node_path``."""
    nodes = tuple(int(v) for v in node_path)
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


def tree_affine(
    sys: LinearSystem, net: TreeNetwork, relax: RelaxationAssignment
) -> AffineIteration:
    """The dispersion/pooling pass as ``x -> B x + c``.

    The pass kernel carries the columns ``[I | 0]`` through the tree, with
    the right-hand side entering the last column only.  The paper's form,
    the leaf-weighted sum of path SOR maps, equals it and stays a cross-check.
    """
    _require_valid_tree(sys, net)
    b, c = _Pass.tree(sys, net, relax).affine()
    return AffineIteration(B=b, c=c)


# ---------------------------------------------------------------------------
# Subnetwork product form and admissibility


def _as_resolved(net: TreeNetwork, group) -> ResolvedGroup:
    if isinstance(group, ResolvedGroup):
        return group
    return resolve_groups(net, SubnetworkPartition.of([group]))[0]


def _chain_matrix(sys: LinearSystem, nodes: Sequence[int], omega: np.ndarray) -> np.ndarray:
    """Product of relaxed projections along ``nodes``, first node applied first."""
    out = np.eye(sys.ambient_dim, dtype=np.complex128)
    for v in nodes:
        out = relaxed_projection_matrix(sys, v, omega[v]) @ out
    return out


def group_operator(
    sys: LinearSystem, net: TreeNetwork, group, relax: RelaxationAssignment
) -> np.ndarray:
    """Weighted average of projection chains through one subnetwork's trees."""
    g = _as_resolved(net, group)
    omega = relax.effective()
    d = sys.ambient_dim
    op = np.zeros((d, d), dtype=np.complex128)
    for leaf in g.leaves:
        full = net.path_from_root(leaf)
        chain = full[full.index(g.leaf_roots[leaf]) :]
        op += path_weight(net, g.gateway, leaf) * _chain_matrix(sys, chain, omega)
    return op


def build_p_omega(
    sys: LinearSystem,
    net: TreeNetwork,
    part: SubnetworkPartition,
    relax: RelaxationAssignment,
) -> np.ndarray:
    """Product-form iteration matrix grouped by subnetworks.

    Each group contributes the gateway chain from the root followed by the
    weighted average of its internal projection chains.  The groups must
    cover every leaf exactly once, otherwise the product form cannot equal
    the pooled iteration matrix.
    """
    _require_valid_tree(sys, net)
    groups = resolve_groups(net, part)
    covered: list[int] = []
    for g in groups:
        covered.extend(g.leaves)
    if sorted(covered) != sorted(net.leaves()):
        raise PartitionError("groups must cover every leaf exactly once")
    omega = relax.effective()
    if not groups:  # single-node tree: the root is the only leaf
        return relaxed_projection_matrix(sys, net.root, omega[net.root])
    d = sys.ambient_dim
    p = np.zeros((d, d), dtype=np.complex128)
    for g in groups:
        gateway_chain = net.path_from_root(g.gateway)
        prod = _chain_matrix(sys, gateway_chain, omega)
        p += path_weight(net, net.root, g.gateway) * (
            group_operator(sys, net, g, relax) @ prod
        )
    return p


def subnetwork_norm(
    sys: LinearSystem, net: TreeNetwork, group, relax: RelaxationAssignment
) -> float:
    """Operator norm of the group map restricted to the span of its rows."""
    g = _as_resolved(net, group)
    basis = orthonormal_basis([sys.rows[v] for v in sorted(g.members)])
    return operator_norm_on_span(group_operator(sys, net, g, relax), basis)


def leaf_norm_formula(
    sys: LinearSystem, net: TreeNetwork, group, relax: RelaxationAssignment
) -> float:
    """Restricted norm of a leaf group via its weighted Gram spectrum.

    Equals ``max |1 - lambda|`` over the nonzero eigenvalues of D G, where D
    stacks ``w(gateway, leaf) * omega_leaf / |a_leaf|^2`` and G is the Gram
    matrix of the leaf rows.  Only applicable to groups made of leaves.
    """
    g = _as_resolved(net, group)
    if not g.is_leaf_group:
        raise ApplicabilityError("the Gram-spectrum norm applies to leaf groups only")
    omega = relax.effective()
    rows = [sys.rows[v] for v in g.leaves]
    diag = np.array(
        [
            path_weight(net, g.gateway, leaf)
            * omega[leaf]
            / float(np.vdot(sys.rows[leaf], sys.rows[leaf]).real)
            for leaf in g.leaves
        ]
    )
    spec = eigenvalues(np.diag(diag) @ gram(rows))
    vals = spec.eigenvalues
    nonzero = vals[np.abs(vals) > ZERO_EIGENVALUE_CUT * max(spec.radius, 1.0)]
    if nonzero.size == 0:
        return 1.0
    return float(np.max(np.abs(1.0 - nonzero)))


def admissible_upper_bound(sys: LinearSystem, net: TreeNetwork, group, leaf: int) -> float:
    """Per-leaf relaxation bound `2 |a|^2 / (w * rho(G))` for a leaf group.

    Any assignment strictly inside (0, bound) at every leaf of the group
    keeps the restricted norm below 1.  With orthonormal rows and uniform
    weights the bound is twice the leaf count.
    """
    g = _as_resolved(net, group)
    if not g.is_leaf_group:
        raise ApplicabilityError("the relaxation bound applies to leaf groups only")
    if leaf not in g.leaves:
        raise ValueError(f"node {leaf} is not a leaf of this group")
    rho = spectral_radius(gram([sys.rows[v] for v in g.leaves]))
    nrm2 = float(np.vdot(sys.rows[leaf], sys.rows[leaf]).real)
    return 2.0 * nrm2 / (path_weight(net, g.gateway, leaf) * rho)


@dataclass(frozen=True)
class GroupVerdict:
    nodes: tuple[int, ...]
    alpha: float
    passed: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the two admissibility conditions.

    ``node_verdicts`` maps every node outside all groups to its effective
    relaxation parameter and whether it lies in (0, 2); ``groups`` carries
    the restricted norms.  ``unit_scale_admissible`` records the same check
    at scale 1 when a down-scaled assignment was supplied (a pass at scale 1
    carries over to any scale in (0, 1]).
    """

    node_verdicts: dict
    groups: tuple[GroupVerdict, ...]
    admissible: bool
    unit_scale_admissible: bool | None = None


def check_admissibility(
    sys: LinearSystem,
    net: TreeNetwork,
    part: SubnetworkPartition,
    relax: RelaxationAssignment,
) -> AdmissibilityReport:
    _require_valid_tree(sys, net)
    groups = resolve_groups(net, part)
    grouped = set().union(*(g.members for g in groups)) if groups else set()
    omega = relax.effective()
    node_verdicts = {}
    for v in range(net.node_count):
        if v not in grouped:
            node_verdicts[v] = (float(omega[v]), bool(0.0 < omega[v] < 2.0))
    verdicts = []
    for g in groups:
        alpha = subnetwork_norm(sys, net, g, relax)
        verdicts.append(GroupVerdict(tuple(sorted(g.members)), alpha, alpha < 1.0))
    admissible = all(ok for _, ok in node_verdicts.values()) and all(
        v.passed for v in verdicts
    )
    unit = None
    if relax.scale != 1.0:
        unit = check_admissibility(sys, net, part, relax.scaled(1.0)).admissible
    return AdmissibilityReport(
        node_verdicts=node_verdicts,
        groups=tuple(verdicts),
        admissible=admissible,
        unit_scale_admissible=unit,
    )


# ---------------------------------------------------------------------------
# Limits: fixed points and weighted least squares


def weighted_ls_minimizer(
    sys: LinearSystem, net: TreeNetwork, relax: RelaxationAssignment
) -> np.ndarray:
    """Minimizer over the row space of the pooled weighted residual functional.

    Node v contributes ``omega_v * w(root, v) / |a_v|^2 * |b_v - a_v* x|^2``;
    the total leaf weight below v telescopes to the root-to-v path weight.
    Uses the unscaled relaxation profile, so the result is the scale-free
    target of the slowed-down iteration.
    """
    _require_valid_tree(sys, net)
    d = sys.ambient_dim
    n = np.zeros((d, d), dtype=np.complex128)
    r = np.zeros(d, dtype=np.complex128)
    for v in range(net.node_count):
        a = sys.rows[v]
        coeff = relax.omega[v] * path_weight(net, net.root, v) / float(np.vdot(a, a).real)
        n += coeff * np.outer(a, a.conj())
        r += coeff * sys.rhs[v] * a
    basis = row_space_basis(sys)
    q = np.column_stack(basis)
    eta = np.linalg.solve(q.conj().T @ n @ q, q.conj().T @ r)
    return q @ eta


def fixed_point(it: AffineIteration, row_space_basis: Sequence[np.ndarray]) -> np.ndarray:
    """Unique fixed point of the iteration restricted to the row space.

    Requires the restricted spectral radius to be below 1; otherwise the
    iteration does not contract there and no limit exists.
    """
    basis = [as_vector(v) for v in row_space_basis]
    if not basis:
        return np.zeros(it.B.shape[0], dtype=np.complex128)
    b_res = restrict_to_span(it.B, basis)
    rho = spectral_radius(b_res)
    if rho >= 1.0:
        raise NonContractionError(f"restricted spectral radius {rho:.6f} >= 1")
    q = np.column_stack(basis)
    eta = np.linalg.solve(np.eye(len(basis), dtype=np.complex128) - b_res, q.conj().T @ it.c)
    return q @ eta


@dataclass(frozen=True)
class DichotomyReport:
    """Eigenvalue split of the iteration matrix: unit eigenvalues against
    strictly contracting ones, with the measured margin."""

    unit_count: int
    nullity: int
    unit_vectors_in_null_space: bool
    max_other_modulus: float
    margin: float
    rho_restricted: float
    holds: bool


def eigen_dichotomy_check(
    it: AffineIteration,
    sys: LinearSystem,
    unit_tol: float = 1e-9,
    vector_tol: float = 1e-8,
) -> DichotomyReport:
    """Verify every eigenvalue is 1 (on the null space) or strictly inside the disc."""
    vals, vecs = np.linalg.eig(it.B)
    mat = sys.system_matrix()
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * (svals[0] if svals.size else 1.0)))
    nullity = sys.ambient_dim - rank
    unit = np.abs(vals - 1.0) <= unit_tol
    in_null = True
    for k in np.nonzero(unit)[0]:
        v = vecs[:, k]
        if float(np.linalg.norm(mat @ v)) > vector_tol * float(np.linalg.norm(v)):
            in_null = False
    others = np.abs(vals[~unit])
    max_other = float(np.max(others)) if others.size else 0.0
    rho_res = spectral_radius_on_span(it.B, row_space_basis(sys))
    holds = bool(int(np.sum(unit)) == nullity and in_null and max_other < 1.0)
    return DichotomyReport(
        unit_count=int(np.sum(unit)),
        nullity=nullity,
        unit_vectors_in_null_space=in_null,
        max_other_modulus=max_other,
        margin=1.0 - max_other,
        rho_restricted=rho_res,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# DAG block machinery


def _ascending_affine(
    sys: LinearSystem, nodes: Sequence[int], omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and constant of the relaxed update chain along ``nodes``."""
    lin = _chain_matrix(sys, nodes, omega)
    const = np.zeros(sys.ambient_dim, dtype=np.complex128)
    for v in nodes:
        const = relaxed_q(const, sys.rows[v], sys.rhs[v], omega[v])
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
    _require_valid_dag(sys, net)
    minimal = net.minimal_nodes
    s, n = len(minimal), sys.ambient_dim
    omega = relax.effective()
    big_b = np.zeros((n * s, n * s), dtype=np.complex128)
    big_c = np.zeros(n * s, dtype=np.complex128)
    for i, mi in enumerate(minimal):
        for j, mj in enumerate(minimal):
            for path in enumerate_updown_paths(net, mi, mj):
                asc = path.nodes[: path.peak_index + 1]
                lin, const = _ascending_affine(sys, asc, omega)
                big_b[j * n : (j + 1) * n, i * n : (i + 1) * n] += path.weight * lin
                big_c[j * n : (j + 1) * n] += path.weight * const
    return AffineIteration(B=big_b, c=big_c)


def block_infinity_norm(m, block_size: int) -> float:
    """Max block norm of a vector, or the row-sum bound for a block matrix.

    For matrices this is the sum over a block row of the blocks' spectral
    norms, maximized over rows: an upper bound for the norm induced by the
    max-block-Euclidean vector norm.
    """
    arr = np.asarray(m, dtype=np.complex128)
    n = int(block_size)
    if arr.ndim == 1:
        if arr.shape[0] % n:
            raise DimensionError("vector length is not a multiple of the block size")
        s = arr.shape[0] // n
        return max(float(np.linalg.norm(arr[i * n : (i + 1) * n])) for i in range(s))
    if arr.ndim == 2:
        if arr.shape[0] % n or arr.shape[1] % n:
            raise DimensionError("matrix shape is not a multiple of the block size")
        rows, cols = arr.shape[0] // n, arr.shape[1] // n
        best = 0.0
        for j in range(rows):
            total = 0.0
            for i in range(cols):
                total += float(
                    np.linalg.norm(arr[j * n : (j + 1) * n, i * n : (i + 1) * n], 2)
                )
            best = max(best, total)
        return best
    raise DimensionError("expected a vector or a matrix")


def sampled_block_norm_lower_bound(
    m, block_size: int, samples: int = 20, seed: int = 0
) -> float:
    """Lower bound for the induced block norm from random unit block vectors."""
    arr = np.asarray(m, dtype=np.complex128)
    n = int(block_size)
    s = arr.shape[1] // n
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        z = rng.standard_normal(arr.shape[1]) + 1j * rng.standard_normal(arr.shape[1])
        for i in range(s):
            blk = z[i * n : (i + 1) * n]
            z[i * n : (i + 1) * n] = blk / np.linalg.norm(blk)
        best = max(best, block_infinity_norm(arr @ z, n))
    return best


@dataclass
class BlockStructure:
    """Per-path factorization of the DAG iteration with pooled weights.

    ``weights[i, j]`` is the mass with which minimal node i pools the chain
    of path j; every row sums to 1.  ``per_minimal[i]`` is the affine map of
    block i over the stacked estimate, composed from the per-path SOR maps;
    ``aggregate`` is the full block map from the pass kernel.  The two are
    assembled through different routes and must agree.
    """

    paths: list[DispersionPath]
    weights: np.ndarray
    factors: list[PathSorFactors]
    path_affines: list[AffineIteration]
    per_minimal: list[tuple[np.ndarray, np.ndarray]]
    aggregate: AffineIteration
    minimal_nodes: tuple[int, ...]
    block_size: int

    @property
    def s(self) -> int:
        return len(self.minimal_nodes)

    def split(self, stacked: np.ndarray) -> list[np.ndarray]:
        n = self.block_size
        return [stacked[i * n : (i + 1) * n] for i in range(self.s)]

    def stack(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([as_vector(b) for b in blocks])

    def condition_values(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Weighted stationarity conditions, one n-vector per minimal node.

        Block i evaluates ``sum_j w[i, j] S_j* (D_j + O_j L_j)^-1 O_j
        (b_j - S_j z_i)``: the pooled normal-equation residual of block i
        against every dispersion path.  Each term is the step that path j's
        chain takes from ``z_i``, so it is read off the path's affine map.
        """
        out = []
        for i in range(self.s):
            z = as_vector(blocks[i])
            acc = np.zeros(self.block_size, dtype=np.complex128)
            for j, it in enumerate(self.path_affines):
                if self.weights[i, j] == 0.0:
                    continue
                acc += self.weights[i, j] * (it.apply(z) - z)
            out.append(acc)
        return out

    def condition_residual(self, blocks: Sequence[np.ndarray]) -> float:
        return float(np.linalg.norm(np.concatenate(self.condition_values(blocks))))


def dag_block_structure(
    sys: LinearSystem, net: DagNetwork, relax: RelaxationAssignment
) -> BlockStructure:
    """Assemble the per-path SOR factors and both forms of the block map.

    The pooled form composes the per-path SOR maps with the pooled weights.
    The aggregate form runs the pass kernel once: each minimal node starts
    from the identity on its own block of columns, so the pooled blocks are
    the block rows of the map.  Both must agree with each other and with the
    engine.
    """
    _require_valid_dag(sys, net)
    minimal = net.minimal_nodes
    s, n = len(minimal), sys.ambient_dim
    paths, weights = enumerate_dispersion_paths(net)
    src_index = {m: i for i, m in enumerate(minimal)}
    factors = [path_sor_factors(sys, path.nodes, relax) for path in paths]
    path_affines = [f.affine() for f in factors]

    per_minimal: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(s):
        row = np.zeros((n, n * s), dtype=np.complex128)
        const = np.zeros(n, dtype=np.complex128)
        for j, path in enumerate(paths):
            w = weights[i, j]
            if w == 0.0:
                continue
            m = src_index[path.source]
            row[:, m * n : (m + 1) * n] += w * path_affines[j].B
            const += w * path_affines[j].c
        per_minimal.append((row, const))

    b, c = _Pass.dag(sys, net, relax).affine()
    return BlockStructure(
        paths=paths,
        weights=weights,
        factors=factors,
        path_affines=path_affines,
        per_minimal=per_minimal,
        aggregate=AffineIteration(B=b, c=c),
        minimal_nodes=minimal,
        block_size=n,
    )


def _block_basis(basis: Sequence[np.ndarray], s: int) -> np.ndarray:
    q = np.column_stack([as_vector(v) for v in basis])
    return np.kron(np.eye(s), q)


def dag_restricted_rho(bs: BlockStructure, row_basis: Sequence[np.ndarray]) -> float:
    """Spectral radius of the block map restricted to the stacked row space."""
    qs = _block_basis(row_basis, bs.s)
    return spectral_radius(qs.conj().T @ bs.aggregate.B @ qs)


def dag_fixed_point(
    bs: BlockStructure, row_basis: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], float]:
    """Fixed point of the block iteration on the stacked row space.

    Returns the per-minimal-node blocks and the norm of the pooled
    stationarity conditions evaluated there.  Raises
    :class:`NonContractionError` when the restricted block map does not
    contract.
    """
    qs = _block_basis(row_basis, bs.s)
    b_res = qs.conj().T @ bs.aggregate.B @ qs
    rho = spectral_radius(b_res)
    if rho >= 1.0:
        raise NonContractionError(f"restricted block spectral radius {rho:.6f} >= 1")
    eta = np.linalg.solve(
        np.eye(b_res.shape[0], dtype=np.complex128) - b_res, qs.conj().T @ bs.aggregate.c
    )
    z = qs @ eta
    blocks = bs.split(z)
    return blocks, bs.condition_residual(blocks)


def dag_ls_minimizer(
    bs: BlockStructure, c: Sequence[float], row_basis: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per-block minimizer of the pooled weighted least-squares functional.

    Block i minimizes ``sum_j w[i, j] <D_j^-1 C_j (b_j - S_j z), b_j - S_j z>``
    over the row space, where ``C_j`` carries the positive per-node profile
    ``c`` along path j.  Singular normal matrices (paths that never pool into
    block i) are solved in the minimal-norm sense.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c <= 0.0):
        raise ValueError("the per-node profile must be positive")
    q = np.column_stack([as_vector(v) for v in row_basis])
    n = bs.block_size
    out = []
    for i in range(bs.s):
        nmat = np.zeros((n, n), dtype=np.complex128)
        rvec = np.zeros(n, dtype=np.complex128)
        for j, f in enumerate(bs.factors):
            w = bs.weights[i, j]
            if w == 0.0:
                continue
            cdiag = np.diag(c[list(f.nodes)] / np.diag(f.D).real)
            nmat += w * (f.A_path.conj().T @ cdiag @ f.A_path)
            rvec += w * (f.A_path.conj().T @ (cdiag @ f.b_path))
        m = q.conj().T @ nmat @ q
        rhs = q.conj().T @ rvec
        eta = np.linalg.lstsq(m, rhs, rcond=1e-12)[0]
        out.append(q @ eta)
    return out
