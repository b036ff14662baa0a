"""Independent brute-force oracles used to check the package's machinery.

Everything here proceeds from first principles (exhaustive enumeration,
direct linear algebra on stacked matrices, the paper's per-path forms) and
deliberately avoids the code paths under test.  :func:`layered_dag` builds
the wide networks whose path counts grow exponentially in the layer count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from distkaczmarz import closedform as cf
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DivergenceError


def brute_updown_paths(node_count, edges, w_d, w_p, m1, m2, max_len=7):
    """Up-down paths by trying every node sequence and every peak split.

    A sequence is valid when some position j makes every earlier step an
    edge upward, every later step an edge downward, and the node at j has
    no outgoing edges.  Node revisits between ascent and descent are
    allowed.  Exponential; only for graphs with a handful of nodes.
    """
    edge_set = set(edges)
    succs = {v: [b for a, b in edges if a == v] for v in range(node_count)}
    maximal = {v for v in range(node_count) if not succs[v]}
    found = {}
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(node_count), repeat=length):
            if seq[0] != m1 or seq[-1] != m2:
                continue
            for j in range(length):
                if seq[j] not in maximal:
                    continue
                up_ok = all((seq[i], seq[i + 1]) in edge_set for i in range(j))
                down_ok = all(
                    (seq[i + 1], seq[i]) in edge_set for i in range(j, length - 1)
                )
                if up_ok and down_ok:
                    w = 1.0
                    for i in range(j):
                        w *= w_d[(seq[i], seq[i + 1])]
                    for i in range(j, length - 1):
                        w *= w_p[(seq[i + 1], seq[i])]
                    found[tuple(seq)] = w
                    break  # the peak split of a valid sequence is unique
    return found


def dfs_updown_paths(node_count, edges, w_d, w_p, m1, m2):
    """Up-down paths via two plain recursive searches glued at the peaks."""
    succs = {v: sorted(b for a, b in edges if a == v) for v in range(node_count)}
    preds = {v: sorted(a for a, b in edges if b == v) for v in range(node_count)}

    def ascents(v):
        if not succs[v]:
            yield (v,), 1.0
            return
        for nxt in succs[v]:
            for tail, w in ascents(nxt):
                yield (v,) + tail, w_d[(v, nxt)] * w

    def descents(v):
        if v == m2:
            yield (v,), 1.0
        for nxt in preds[v]:
            for tail, w in descents(nxt):
                yield (v,) + tail, w_p[(nxt, v)] * w

    found = {}
    for up, wu in ascents(m1):
        for down, wd_ in descents(up[-1]):
            found[up + down[1:]] = wu * wd_
    return found


def brute_cover_pairs(pairs):
    """Cover pairs of the transitive closure via Floyd-Warshall reachability."""
    nodes = sorted({x for p in pairs for x in p})
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for u, v in pairs:
        reach[index[u]][index[v]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    covers = set()
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if reach[i][j] and not any(
                reach[i][k] and reach[k][j] for k in range(n) if k != i and k != j
            ):
                covers.add((u, v))
    return covers


def lstsq_min_norm(matrix, rhs):
    """Minimal-norm least-squares solution via numpy's SVD-based lstsq."""
    return np.linalg.lstsq(np.asarray(matrix, dtype=np.complex128), rhs, rcond=1e-12)[0]


def null_space_basis(matrix, tol=1e-10):
    """Orthonormal basis of the null space via a full SVD."""
    a = np.asarray(matrix, dtype=np.complex128)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > tol * (s[0] if s.size else 1.0)))
    return vh[rank:].conj().T


def null_space_projector(matrix, tol=1e-10):
    basis = null_space_basis(matrix, tol)
    return basis @ basis.conj().T


def replicate(vector, copies):
    return np.concatenate([vector] * copies)


def nodes_not_reaching_root(parent, root, node_count):
    """Nodes whose parent walk misses the root; one fresh walk per node."""
    out = []
    for v in range(node_count):
        cursor, seen = v, set()
        while cursor != root:
            if cursor in seen or cursor not in parent:
                out.append(v)
                break
            seen.add(cursor)
            cursor = parent[cursor]
    return out


def layered_dag(width, layers):
    """Node i of each layer feeds nodes i and i + 1 (cyclically) of the next.

    ``width * 2**(layers - 1)`` dispersion paths for width >= 2; uniform weights.
    """
    edges = [
        (l * width + i, (l + 1) * width + (i + k) % width)
        for l in range(layers - 1)
        for i in range(width)
        for k in (0, 1)
    ]
    return tp.DagNetwork.from_cover_edges(width * layers, edges)


def implied_edge_witnesses(net):
    """``(u, v, w)`` per implied edge: the first successor ``w != v`` of u reaching v.

    One reachability search per (edge, successor); quadratic, small graphs only.
    """
    found = []
    for u, v in net.edges:
        for w in net.successors[u]:
            if w != v and v in net.reachable_from(w):
                found.append((u, v, w))
                break
    return found


@dataclass(frozen=True)
class PathwiseBlocks:
    """The DAG block map composed path by path, as the paper writes it.

    ``weights[i, j]`` is the mass with which minimal node i pools the chain
    of dispersion path j; ``per_minimal[i]`` is block i's affine map over the
    stacked estimate, the pooled sum of the per-path SOR maps.
    """

    paths: list
    weights: np.ndarray
    factors: list
    path_affines: list
    per_minimal: list
    minimal_nodes: tuple
    block_size: int

    def masses(self, node_count):
        """Sum of ``weights[i, j]`` over the paths j through each node."""
        out = np.zeros((len(self.minimal_nodes), node_count))
        for j, path in enumerate(self.paths):
            out[:, list(path.nodes)] += self.weights[:, j : j + 1]
        return out

    def condition_values(self, blocks):
        """``sum_j w[i, j] (chain_j(z_i) - z_i)`` per minimal node i."""
        out = []
        for i, z in enumerate(blocks):
            z = np.asarray(z, dtype=np.complex128)
            acc = np.zeros(self.block_size, dtype=np.complex128)
            for j, it in enumerate(self.path_affines):
                if self.weights[i, j] != 0.0:
                    acc += self.weights[i, j] * (it.apply(z) - z)
            out.append(acc)
        return out

    def ls_minimizer(self, c, row_basis):
        """Per-block minimizer of ``sum_j w[i, j] |D_j^-1/2 C_j^1/2 (b_j - S_j z)|^2``."""
        c = np.asarray(c, dtype=float)
        q = np.column_stack(row_basis)
        n = self.block_size
        out = []
        for i in range(len(self.minimal_nodes)):
            nmat = np.zeros((n, n), dtype=np.complex128)
            rvec = np.zeros(n, dtype=np.complex128)
            for j, f in enumerate(self.factors):
                w = self.weights[i, j]
                if w == 0.0:
                    continue
                cdiag = np.diag(c[list(f.nodes)] / np.diag(f.D).real)
                nmat += w * (f.A_path.conj().T @ cdiag @ f.A_path)
                rvec += w * (f.A_path.conj().T @ (cdiag @ f.b_path))
            eta = np.linalg.lstsq(q.conj().T @ nmat @ q, q.conj().T @ rvec, rcond=1e-12)[0]
            out.append(q @ eta)
        return out

    def ls_value(self, i, z):
        """Block i's pooled functional ``sum_j w[i, j] <D_j^-1 r_j, r_j>`` at z."""
        value = 0.0
        for j, f in enumerate(self.factors):
            if self.weights[i, j] != 0.0:
                r = f.b_path - f.A_path @ z
                value += self.weights[i, j] * float(np.real(np.vdot(r, r / np.diag(f.D).real)))
        return value


def engine_solve(sys, net, relax, config):
    """``solve`` as the paper defines it: one ``tree_iterate``/``dag_iterate`` per iteration.

    The same stopping and divergence rules, written block by block: stop
    when the worst block step falls below the tolerance (``iterations_used``
    0 when the first step already does), raise :class:`DivergenceError` with
    the previous iterate once the worst block norm turns non-finite or
    exceeds ``1e12 (1 + initial norm)``.
    """
    tree = isinstance(net, tp.TreeNetwork)
    s = 1 if tree else len(net.minimal_nodes)
    d = sys.ambient_dim
    init = config.initial_estimate
    if init is None:
        init = np.zeros(d)
    init = np.asarray(init, dtype=np.complex128)
    state = [row.copy() for row in init] if init.ndim == 2 else [init.copy() for _ in range(s)]

    def worst(blocks):
        return max(float(np.linalg.norm(b)) for b in blocks)

    def step(blocks):
        if tree:
            return [sv.tree_iterate(sys, net, relax, blocks[0])]
        return sv.dag_iterate(sys, net, relax, blocks)

    public = (lambda blocks: blocks[0]) if tree else list
    bound = sv.DIVERGENCE_FACTOR * (1.0 + worst(state))
    a = sys.system_matrix()
    report = sv.SolveReport(final_estimates=None, iterations_used=0, route="engine")
    for n in range(1, config.max_iterations + 1):
        new = step(state)
        norm = worst(new)
        if not np.isfinite(norm) or norm > bound:
            raise DivergenceError("diverged", last_iterate=public(state), iteration=n)
        size = worst([x - y for x, y in zip(new, state)])
        state = new
        if n == 1 and size < config.step_tolerance:
            report.converged = True
            break
        report.step_norms.append(size)
        report.residual_norms.append(worst([a @ b - sys.rhs for b in state]))
        report.iterations_used = n
        if size < config.step_tolerance:
            report.converged = True
            break
    report.final_estimates = public(state)
    return report


def stepwise_solve(sys, net, relax, config):
    """``solve`` one pass at a time: the loop ``solve`` ran before it took norms by the block.

    The same route, passes and norms as ``solve``, but every iterate's
    norm, step norm and residual norm is taken on its own right after its
    pass, so ``solve`` must match it bit for bit.
    """
    tree = isinstance(net, tp.TreeNetwork)
    run, omega = sv._Pass(sys, net), relax.effective()
    state = sv._initial_blocks(sys, tree, len(run.sources), config.initial_estimate)
    route = sv.solve_route(len(run.sources), run.dim, len(run.up) + sum(map(len, run.up)))
    if route == "affine":
        (b,), (c,) = run.affine(omega)
        b = np.ascontiguousarray(b)
    a = sys.system_matrix()

    def worst(blocks):
        return float(np.max(np.linalg.norm(blocks, axis=1)))

    public = (lambda blocks: blocks[0]) if tree else list
    bound = sv.DIVERGENCE_FACTOR * (1.0 + worst(state))
    report = sv.SolveReport(final_estimates=None, iterations_used=0, route=route)
    for n in range(1, config.max_iterations + 1):
        if route == "affine":
            new = (b @ state.ravel() + c).reshape(state.shape)
        else:
            new = np.array(run.vectors(state, omega))
        norm = worst(new)
        if not np.isfinite(norm) or norm > bound:
            raise DivergenceError("diverged", last_iterate=public(state), iteration=n, route=route)
        size = worst(new - state)
        state = new
        if n == 1 and size < config.step_tolerance:
            report.converged = True
            break
        report.step_norms.append(size)
        report.residual_norms.append(worst(state @ a.T - sys.rhs))
        report.iterations_used = n
        if size < config.step_tolerance:
            report.converged = True
            break
    report.final_estimates = public(state)
    return report


def pathwise_blocks(sys, net, relax):
    """Enumerate every dispersion path and pool its SOR map per minimal node."""
    minimal = net.minimal_nodes
    s, n = len(minimal), sys.ambient_dim
    paths, weights = tp.enumerate_dispersion_paths(net)
    src_index = {m: i for i, m in enumerate(minimal)}
    factors = [cf.path_sor_factors(sys, path.nodes, relax) for path in paths]
    path_affines = [f.affine() for f in factors]
    per_minimal = []
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
    return PathwiseBlocks(paths, weights, factors, path_affines, per_minimal, minimal, n)
