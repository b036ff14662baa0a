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
from distkaczmarz.errors import DivergenceError, InvalidNetworkError


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


def brute_diameter(net):
    """Diameter of the distance graph on minimal nodes, from one DFS per minimal node.

    Two minimal nodes are adjacent when the maximal nodes their DFS over
    ``successors`` reaches overlap; then one BFS per minimal node.  A single
    minimal node has diameter 1, and a disconnected graph raises
    :class:`InvalidNetworkError`.
    """
    minimal = [v for v in range(net.node_count) if not net.predecessors[v]]
    maximal = {v for v in range(net.node_count) if not net.successors[v]}
    reach = {}
    for m in minimal:
        seen, stack = {m}, [m]
        while stack:
            for w in net.successors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[m] = seen & maximal
    diameter = 1
    for m in minimal:
        seen, frontier, hops = {m}, {m}, 0
        while frontier:
            frontier = {
                n for n in minimal if n not in seen and any(reach[n] & reach[u] for u in frontier)
            }
            seen |= frontier
            hops += bool(frontier)
        if len(seen) != len(minimal):
            raise InvalidNetworkError("distance graph of minimal nodes is disconnected")
        diameter = max(diameter, hops)
    return diameter


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


def brute_resolved_group(net, members):
    """A group's resolved form read off the parent table alone.

    Tops are the members whose parent is outside the group, the gateway is
    their one common parent (None when they have none or several), and the
    leaves are the members that are no node's parent.
    """
    members = frozenset(members)
    tops = tuple(sorted(v for v in members if net.parent.get(v) not in members))
    parents = {net.parent.get(v) for v in tops}
    gateway = parents.pop() if len(parents) == 1 else None
    leaves = tuple(sorted(members.difference(net.parent.values())))
    return tp.ResolvedGroup(members, gateway, tops, leaves, len(leaves) == len(members))


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


def caterpillar(n):
    """A spine of about n/2 nodes, each carrying one leaf."""
    edges, spine = [], 0
    for v in range(1, n):
        edges.append((spine, v))
        if v % 2 == 0 and v < n - 1:
            spine = v
    return tp.TreeNetwork.from_edges(n, 0, edges)


def nodewise_push(sys, net, starts, t, omega):
    """The pass one node at a time, as the kernel ran before it went level by level.

    Trees run breadth first from the root with dispersion weight 1 and
    pooling weight equal to the edge weight; DAGs in their Kahn order.
    Each node blends its predecessors' blocks with the dispersion weights
    and applies ``X + a_v (omega_v / |a_v|^2)(b_v t - a_v* X)``; pooling then
    walks the order backwards and blends successor blocks with the pooling
    weights.  ``omega`` is ``(V,)`` or ``(V, m)``.  Returns the pooled
    ``(s, d, m)`` blocks of the minimal nodes, ascending.
    """
    nodes = range(net.node_count)
    if isinstance(net, tp.TreeNetwork):
        order = [net.root]
        for v in order:
            order.extend(net.children.get(v, ()))
        up = [((net.parent[v], 1.0),) if v in net.parent else () for v in nodes]
        down = [tuple((u, net.edge_weight[(v, u)]) for u in net.children.get(v, ())) for v in nodes]
        sources = (net.root,)
    else:
        order = tp.topological_order(net)
        up = [tuple((u, net.w_d[(u, v)]) for u in net.predecessors[v]) for v in nodes]
        down = [tuple((u, net.w_p[(v, u)]) for u in net.successors[v]) for v in nodes]
        sources = net.minimal_nodes
    rows = sys.rows
    norm2 = np.einsum("ij,ij->i", rows.conj(), rows).real
    gain = list((np.asarray(omega, dtype=float).T / norm2).T)
    bt = sys.rhs[:, None] * t
    x = [None] * net.node_count
    for v, z in zip(sources, starts):
        x[v] = z
    for v in order:
        z = sum(w * x[u] for u, w in up[v]) if up[v] else x[v]
        x[v] = z + rows[v][:, None] * (gain[v] * (bt[v] - rows[v].conj() @ z))
    for v in reversed(order):
        if down[v]:
            x[v] = sum(w * x[u] for u, w in down[v])
    return np.array([x[m] for m in sources])


def per_leaf_group_operator(sys, net, group, relax):
    """``group_operator`` leaf by leaf, as the paper sums it.

    Each leaf climbs to the top of its component, rebuilds the chain of
    relaxed projections from that top down to itself and weights it by the
    gateway-to-leaf path weight; the terms are summed in ascending leaf
    order, so the walk in ``group_operator`` must match it bit for bit.  The
    group is resolved off the parent table, not by the resolver under test.
    """
    g = brute_resolved_group(net, group)
    omega = relax.effective()
    d = sys.ambient_dim
    op = np.zeros((d, d), dtype=np.complex128)
    for leaf in g.leaves:
        top = leaf
        while net.parent.get(top) in g.members:
            top = net.parent[top]
        full = net.path_from_root(leaf)
        chain = np.eye(d, dtype=np.complex128)
        for v in full[full.index(top) :]:
            chain = cf.relaxed_projection_matrix(sys, v, omega[v]) @ chain
        op += tp.path_weight(net, g.gateway, leaf) * chain
    return op


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
    pass, so ``solve`` must match it bit for bit.  On the affine route a
    pass is the same one product as in ``solve``, ``[B | c] @ [x; 1]``.
    """
    tree = isinstance(net, tp.TreeNetwork)
    run, omega = sv._Pass(sys, net), relax.effective()
    state = sv._initial_blocks(sys, tree, len(run.sources), config.initial_estimate)
    route = sv.solve_route(len(run.sources), run.dim, run.size)
    if route == "affine":
        (pass_map,) = run.affine(omega)  # [B | c]
    a = sys.system_matrix()

    def worst(blocks):
        return float(np.max(np.linalg.norm(blocks, axis=1)))

    public = (lambda blocks: blocks[0]) if tree else list
    bound = sv.DIVERGENCE_FACTOR * (1.0 + worst(state))
    report = sv.SolveReport(final_estimates=None, iterations_used=0, route=route)
    for n in range(1, config.max_iterations + 1):
        if route == "affine":
            new = (pass_map @ np.append(state.ravel(), 1.0)).reshape(state.shape)
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


def fresh_restriction(b, c, basis, dim, s=1):
    """``(rho, fixed point)`` of ``x -> b x + c`` on ``kron(I_s, q)``, built afresh on every call.

    q stacks the basis vectors of C^dim as columns in their own dtype, so R
    and the solve take the package's arithmetic.  ``R = Q* b Q`` goes to
    ``np.linalg.eigvals`` (given its real part when its imaginary part is
    exactly zero, which is how the package picks the real solver) and the
    fixed point to one ``solve`` of ``(I - R) eta = Q* c``; the fixed point
    is None when rho >= 1.  Nothing is cached.
    """
    q = np.asarray(basis).reshape(-1, dim).T
    big_q = np.kron(np.eye(s), q)
    r = big_q.conj().T @ np.asarray(b) @ big_q
    rho = float(np.max(np.abs(np.linalg.eigvals(r if r.imag.any() else r.real)), initial=0.0))
    if rho >= 1.0:
        return rho, None
    eye = np.eye(r.shape[0], dtype=r.dtype)
    return rho, big_q @ np.linalg.solve(eye - r, big_q.conj().T @ c)


def pushed_condition_values(bs, omega, blocks):
    """The DAG stationarity conditions by one more push of the kernel at ``omega``.

    Column i starts at ``z_i`` on every minimal node; column i of pooled
    block i, minus ``z_i``, is block i's value, ``sum_j w[i, j]
    (chain_j(z_i) - z_i)``, as each row of w sums to 1.
    """
    z = np.column_stack([np.asarray(b, dtype=np.complex128) for b in blocks])
    pooled = sv._Pass(bs.system, bs.network).push([z] * bs.s, np.ones(bs.s), omega)
    return [pooled[i][:, i] - z[:, i] for i in range(bs.s)]


def pairwise_sweep_axes(omega, most):
    """The varying rows of an omega stack grouped by one ``np.array_equal`` per row and axis.

    ``closedform._sweep_axes`` as it compared each varying row with the
    first row of every axis found so far; None past ``most`` axes.
    """
    axes = []
    for v in np.flatnonzero(omega.min(axis=1) != omega.max(axis=1)).tolist():
        same = next((ax for ax in axes if np.array_equal(omega[ax[0]], omega[v])), None)
        if same is not None:
            same.append(v)
        elif len(axes) == most:
            return None
        else:
            axes.append([v])
    return axes


def rowwise_generated_system(spec, rng):
    """``experiments.generate_system`` with one norm per row, from the generator ``rng``.

    Every row is tested in turn and a zero row is redrawn until it is not,
    so the redraws take the generator's draws in row order.
    """
    if spec.kind == "uniform":
        matrix = rng.uniform(0.0, 1.0, size=(spec.k, spec.d))
    else:
        matrix = np.eye(spec.d) + spec.epsilon * rng.uniform(-1.0, 1.0, size=(spec.d, spec.d))
    rhs = rng.uniform(0.0, 1.0, size=spec.k)
    regenerated = 0
    for i in range(spec.k):
        while not np.linalg.norm(matrix[i]):
            matrix[i] = rng.uniform(0.0, 1.0, size=spec.d)
            regenerated += 1
    return sv.LinearSystem(rows=matrix, rhs=rhs), regenerated
