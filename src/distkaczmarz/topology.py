"""Rooted-tree and DAG network topologies with edge weights.

Node ids are dense nonnegative integers ``0 .. node_count-1``.  Tree edges
carry one weight (the pooling/averaging weight toward the child); DAG cover
edges carry a dispersion weight ``w_d`` and a pooling weight ``w_p``.
Ties are always broken by ascending node id so traversals, enumerations and
weight tables are reproducible.

Networks are immutable after construction; all queries are read-only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import AncestryError, CycleError, InvalidNetworkError, PartitionError

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with the offending nodes or edges."""

    kind: str
    detail: str
    where: tuple = ()


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class TreeNetwork:
    node_count: int
    root: int
    parent: Mapping[int, int]
    children: Mapping[int, tuple[int, ...]]
    edge_weight: Mapping[tuple[int, int], float]

    @classmethod
    def from_edges(cls, node_count: int, root: int, edges: Iterable) -> "TreeNetwork":
        """Build a tree from ``(parent, child)`` or ``(parent, child, weight)`` tuples.

        When every edge out of a parent omits its weight, the children share
        the weight uniformly.  Mixing explicit and omitted weights under one
        parent is rejected.
        """
        if not (0 <= root < node_count):
            raise InvalidNetworkError(f"root {root} outside [0, {node_count})")
        parent: dict[int, int] = {}
        children: dict[int, list[int]] = {v: [] for v in range(node_count)}
        given: dict[tuple[int, int], float | None] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v, w = edge[0], edge[1], None
            else:
                u, v, w = edge
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InvalidNetworkError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise InvalidNetworkError(f"self-loop at node {u}")
            if v in parent:
                raise InvalidNetworkError(f"node {v} has two parents")
            if v == root:
                raise InvalidNetworkError("root cannot have a parent")
            parent[v] = u
            children[u].append(v)
            given[(u, v)] = None if w is None else float(w)
        weights: dict[tuple[int, int], float] = {}
        for u, kids in children.items():
            kids.sort()
            vals = [given[(u, v)] for v in kids]
            if not vals:
                continue
            if all(w is None for w in vals):
                for v in kids:
                    weights[(u, v)] = 1.0 / len(kids)
            elif any(w is None for w in vals):
                raise InvalidNetworkError(
                    f"node {u}: child edge weights must be all given or all omitted"
                )
            else:
                for v, w in zip(kids, vals):
                    weights[(u, v)] = float(w)
        return cls(
            node_count=node_count,
            root=root,
            parent=dict(parent),
            children={u: tuple(kids) for u, kids in children.items()},
            edge_weight=weights,
        )

    def is_leaf(self, v: int) -> bool:
        return not self.children.get(v, ())

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.node_count) if self.is_leaf(v))

    def path_from_root(self, v: int) -> tuple[int, ...]:
        """Node sequence root .. v inclusive."""
        path = [v]
        seen = {v}
        while path[-1] != self.root:
            u = self.parent.get(path[-1])
            if u is None or u in seen:
                raise InvalidNetworkError(f"node {v} is not connected to the root")
            path.append(u)
            seen.add(u)
        return tuple(reversed(path))

    def nodes(self) -> range:
        return range(self.node_count)


def validate_tree(net: TreeNetwork) -> list[Violation]:
    """Check the tree invariants; returns all violations (empty iff valid)."""
    out: list[Violation] = []
    if not (0 <= net.root < net.node_count):
        out.append(Violation("root", f"root {net.root} outside node range", (net.root,)))
        return out
    for v in range(net.node_count):
        if v == net.root:
            continue
        cursor, seen = v, set()
        while cursor != net.root:
            if cursor in seen or cursor not in net.parent:
                out.append(Violation("connectivity", f"node {v} does not reach the root", (v,)))
                break
            seen.add(cursor)
            cursor = net.parent[cursor]
    for (u, v), w in net.edge_weight.items():
        if not w > 0.0:
            out.append(Violation("weight", f"edge ({u}, {v}) has non-positive weight {w}", (u, v)))
    for u in range(net.node_count):
        kids = net.children.get(u, ())
        if not kids:
            continue
        total = sum(net.edge_weight.get((u, v), 0.0) for v in kids)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            out.append(
                Violation("weight-sum", f"child weights of node {u} sum to {total!r}", (u,))
            )
    return out


def path_weight(net: TreeNetwork, u: int, v: int) -> float:
    """Product of edge weights along the unique path from ancestor u down to v."""
    if u == v:
        return 1.0
    path = net.path_from_root(v)
    if u not in path:
        raise AncestryError(f"node {u} is not an ancestor of node {v}")
    start = path.index(u)
    w = 1.0
    for a, b in zip(path[start:], path[start + 1 :]):
        w *= net.edge_weight[(a, b)]
    return w


# ---------------------------------------------------------------------------
# Subnetwork partitions


@dataclass(frozen=True)
class SubnetworkPartition:
    """Disjoint node groups used to assign aggressive relaxation parameters."""

    groups: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, groups: Iterable[Iterable[int]]) -> "SubnetworkPartition":
        return cls(tuple(frozenset(g) for g in groups))


@dataclass(frozen=True)
class ResolvedGroup:
    """A group resolved against a tree: gateway, component tops, leaves."""

    index: int
    members: frozenset[int]
    gateway: int
    tops: tuple[int, ...]
    leaves: tuple[int, ...]
    leaf_roots: Mapping[int, int]  # leaf -> top of its component tree
    is_leaf_group: bool


def _group_tops(net: TreeNetwork, members: frozenset[int]) -> list[int]:
    return sorted(v for v in members if net.parent.get(v) not in members)


def validate_subnetworks(net: TreeNetwork, part: SubnetworkPartition) -> list[Violation]:
    """Check the subnetwork conditions for every group.

    Per group: children of members stay inside (downward closure), a leaf
    member pulls in the complete sibling set of its parent, the connecting
    paths avoid the root, and the component tops must share a single
    immediately-preceding vertex (the gateway).  Across groups: pairwise
    disjointness and coverage of every leaf of the tree.
    """
    out: list[Violation] = []
    seen: dict[int, int] = {}
    for gi, members in enumerate(part.groups):
        for v in members:
            if v in seen:
                out.append(
                    Violation("disjoint", f"node {v} in groups {seen[v]} and {gi}", (v,))
                )
            seen[v] = gi
        for v in members:
            if not (0 <= v < net.node_count):
                out.append(Violation("unknown-node", f"group {gi} references node {v}", (v,)))
    covered = set().union(*part.groups) if part.groups else set()
    for leaf in net.leaves():
        if leaf not in covered:
            out.append(Violation("coverage", f"leaf {leaf} is in no group", (leaf,)))
    for gi, members in enumerate(part.groups):
        members = frozenset(v for v in members if 0 <= v < net.node_count)
        if not members:
            out.append(Violation("empty", f"group {gi} is empty", ()))
            continue
        if net.root in members:
            out.append(Violation("root", f"group {gi} contains the root", (net.root,)))
            continue
        for u in members:
            for v in net.children.get(u, ()):
                if v not in members:
                    out.append(
                        Violation(
                            "condition-2",
                            f"group {gi}: child {v} of member {u} is missing",
                            (u, v),
                        )
                    )
        for u in members:
            if not net.is_leaf(u):
                continue
            p = net.parent.get(u)
            if p is None:
                continue
            for sib in net.children[p]:
                if sib not in members:
                    out.append(
                        Violation(
                            "condition-1",
                            f"group {gi}: sibling {sib} of leaf {u} is missing",
                            (u, sib),
                        )
                    )
        tops = _group_tops(net, members)
        gateways = {net.parent[t] for t in tops if t in net.parent}
        if len(gateways) != 1:
            out.append(
                Violation(
                    "gateway",
                    f"group {gi} has no single immediately-preceding vertex",
                    tuple(tops),
                )
            )
            continue
        gateway = next(iter(gateways))
        if gateway == net.root and len(tops) > 1:
            out.append(
                Violation(
                    "condition-3",
                    f"group {gi}: path between tops {tops[0]} and {tops[1]} passes the root",
                    tuple(tops[:2]),
                )
            )
    return out


def resolve_groups(net: TreeNetwork, part: SubnetworkPartition) -> list[ResolvedGroup]:
    """Resolve groups to (gateway, tops, leaves) form; raises when unusable."""
    resolved = []
    for gi, members in enumerate(part.groups):
        if not members:
            raise PartitionError(f"group {gi} is empty")
        if net.root in members:
            raise PartitionError(f"group {gi} contains the root")
        tops = _group_tops(net, members)
        gateways = {net.parent[t] for t in tops}
        if len(gateways) != 1:
            raise PartitionError(f"group {gi} has no unique gateway")
        leaves = tuple(sorted(v for v in members if net.is_leaf(v)))
        leaf_roots: dict[int, int] = {}
        for leaf in leaves:
            cursor = leaf
            while net.parent.get(cursor) in members:
                cursor = net.parent[cursor]
            leaf_roots[leaf] = cursor
        resolved.append(
            ResolvedGroup(
                index=gi,
                members=frozenset(members),
                gateway=next(iter(gateways)),
                tops=tuple(tops),
                leaves=leaves,
                leaf_roots=leaf_roots,
                is_leaf_group=all(net.is_leaf(v) for v in members),
            )
        )
    return resolved


def root_subtree_partition(net: TreeNetwork) -> SubnetworkPartition:
    """One group per child of the root, each the full subtree below that child.

    Always covers every leaf (gateway is the root), so the product-form
    iteration matrix can be assembled for any tree with at least two nodes.
    """
    groups = []
    for c in net.children.get(net.root, ()):
        stack, acc = [c], set()
        while stack:
            v = stack.pop()
            acc.add(v)
            stack.extend(net.children.get(v, ()))
        groups.append(frozenset(acc))
    return SubnetworkPartition(tuple(groups))


def leaf_sibling_partition(net: TreeNetwork) -> SubnetworkPartition:
    """Groups made of complete all-leaf sibling sets (leaf subnetworks only).

    Parents with any non-leaf child contribute no group, so the partition may
    leave some leaves uncovered; callers decide whether that is acceptable.
    """
    groups = []
    for u in range(net.node_count):
        kids = net.children.get(u, ())
        if kids and all(net.is_leaf(v) for v in kids):
            groups.append(frozenset(kids))
    return SubnetworkPartition(tuple(groups))


# ---------------------------------------------------------------------------
# DAGs


@dataclass(frozen=True)
class DagNetwork:
    """Directed acyclic network on cover edges with dispersion/pooling weights."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    w_d: Mapping[tuple[int, int], float]
    w_p: Mapping[tuple[int, int], float]

    @classmethod
    def from_cover_edges(
        cls,
        node_count: int,
        edges: Iterable,
        uniform_weights: bool = False,
    ) -> "DagNetwork":
        """Build from ``(u, v)`` or ``(u, v, w_d, w_p)`` tuples.

        With ``uniform_weights`` (or 2-tuples throughout) the dispersion
        weights are uniform over each node's in-edges and the pooling weights
        uniform over each node's out-edges.
        """
        edge_list: list[tuple[int, int]] = []
        wd_in: dict[tuple[int, int], float | None] = {}
        wp_in: dict[tuple[int, int], float | None] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                wd = wp = None
            else:
                u, v, wd, wp = edge
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InvalidNetworkError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise InvalidNetworkError(f"self-loop at node {u}")
            if (u, v) in wd_in:
                raise InvalidNetworkError(f"duplicate edge ({u}, {v})")
            edge_list.append((u, v))
            wd_in[(u, v)] = None if (uniform_weights or wd is None) else float(wd)
            wp_in[(u, v)] = None if (uniform_weights or wp is None) else float(wp)
        edge_list.sort()
        preds: dict[int, list[int]] = {v: [] for v in range(node_count)}
        succs: dict[int, list[int]] = {v: [] for v in range(node_count)}
        for u, v in edge_list:
            preds[v].append(u)
            succs[u].append(v)
        w_d: dict[tuple[int, int], float] = {}
        for v, ups in preds.items():
            vals = [wd_in[(u, v)] for u in ups]
            if not vals:
                continue
            if all(w is None for w in vals):
                for u in ups:
                    w_d[(u, v)] = 1.0 / len(ups)
            elif any(w is None for w in vals):
                raise InvalidNetworkError(
                    f"node {v}: dispersion weights must be all given or all omitted"
                )
            else:
                for u, w in zip(ups, vals):
                    w_d[(u, v)] = float(w)
        w_p: dict[tuple[int, int], float] = {}
        for u, downs in succs.items():
            vals = [wp_in[(u, v)] for v in downs]
            if not vals:
                continue
            if all(w is None for w in vals):
                for v in downs:
                    w_p[(u, v)] = 1.0 / len(downs)
            elif any(w is None for w in vals):
                raise InvalidNetworkError(
                    f"node {u}: pooling weights must be all given or all omitted"
                )
            else:
                for v, w in zip(downs, vals):
                    w_p[(u, v)] = float(w)
        net = cls(node_count=node_count, edges=tuple(edge_list), w_d=w_d, w_p=w_p)
        topological_order(net)  # raises CycleError on cycles
        return net

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        preds: dict[int, list[int]] = {v: [] for v in range(self.node_count)}
        for u, v in self.edges:
            preds[v].append(u)
        return {v: tuple(sorted(ups)) for v, ups in preds.items()}

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        succ: dict[int, list[int]] = {v: [] for v in range(self.node_count)}
        for u, v in self.edges:
            succ[u].append(v)
        return {v: tuple(sorted(downs)) for v, downs in succ.items()}

    @cached_property
    def minimal_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.node_count) if not self.predecessors[v])

    @cached_property
    def maximal_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.node_count) if not self.successors[v])

    def reachable_from(self, v: int) -> set[int]:
        out, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in self.successors[u]:
                if w not in out:
                    out.add(w)
                    stack.append(w)
        return out


def validate_dag(net: DagNetwork) -> list[Violation]:
    """Check acyclicity, weak connectivity, cover-only edges and weight sums."""
    out: list[Violation] = []
    try:
        topological_order(net)
    except CycleError:
        out.append(Violation("cycle", "edge set contains a cycle", ()))
        return out
    if net.node_count > 1:
        undirected: dict[int, set[int]] = {v: set() for v in range(net.node_count)}
        for u, v in net.edges:
            undirected[u].add(v)
            undirected[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for w in undirected[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != net.node_count:
            missing = sorted(set(range(net.node_count)) - seen)
            out.append(
                Violation("connectivity", f"nodes {missing} are disconnected", tuple(missing))
            )
    for u, v in net.edges:
        for w in net.successors[u]:
            if w != v and v in net.reachable_from(w):
                out.append(
                    Violation(
                        "cover",
                        f"edge ({u}, {v}) is implied through node {w} and must be removed",
                        (u, v, w),
                    )
                )
                break
    for w, label in ((net.w_d, "dispersion"), (net.w_p, "pooling")):
        for (u, v), val in w.items():
            if not val > 0.0:
                out.append(
                    Violation("weight", f"{label} weight of edge ({u}, {v}) is {val}", (u, v))
                )
    for v in range(net.node_count):
        ups = net.predecessors[v]
        if ups:
            total = sum(net.w_d.get((u, v), 0.0) for u in ups)
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                out.append(
                    Violation("weight-sum", f"dispersion weights into {v} sum to {total!r}", (v,))
                )
        downs = net.successors[v]
        if downs:
            total = sum(net.w_p.get((v, u), 0.0) for u in downs)
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                out.append(
                    Violation("weight-sum", f"pooling weights out of {v} sum to {total!r}", (v,))
                )
    return out


def topological_order(net: DagNetwork) -> list[int]:
    """Kahn's algorithm with ties broken by ascending node id."""
    indeg = {v: 0 for v in range(net.node_count)}
    succs: dict[int, list[int]] = {v: [] for v in range(net.node_count)}
    for u, v in net.edges:
        indeg[v] += 1
        succs[u].append(v)
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in sorted(succs[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != net.node_count:
        raise CycleError("edge set contains a cycle")
    return order


def hasse_reduce(relation: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Cover pairs of the transitive closure of a strict order relation.

    A pair ``(u, v)`` is kept exactly when no ``w`` satisfies ``u < w < v``.
    Raises :class:`CycleError` when the relation is not acyclic.
    """
    pairs = set()
    nodes = set()
    for u, v in relation:
        if u == v:
            raise CycleError(f"relation is not irreflexive at {u}")
        pairs.add((u, v))
        nodes.add(u)
        nodes.add(v)
    succ: dict[int, set[int]] = {v: set() for v in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for u, v in pairs:
        succ[u].add(v)
        indeg[v] += 1
    order = [v for v in nodes if indeg[v] == 0]
    for u in order:  # Kahn's algorithm, no recursion: the list grows while it is walked
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(nodes):
        stuck = len(nodes) - len(order)
        raise CycleError(f"relation contains a cycle; {stuck} nodes cannot be ordered")
    # (u, v) is implied exactly when v lies above another successor of u
    closure: dict[int, set[int]] = {}
    covers = set()
    for u in reversed(order):
        implied = set().union(*(closure[w] for w in succ[u]))
        closure[u] = succ[u] | implied
        covers.update((u, v) for v in succ[u] - implied)
    return covers


# ---------------------------------------------------------------------------
# Paths on DAGs


@dataclass(frozen=True)
class UpDownPath:
    """Chain ascending from one minimal node to a maximal node, then descending
    to another minimal node; the unit of communication between minimal nodes."""

    nodes: tuple[int, ...]
    peak_index: int
    weight: float


@dataclass(frozen=True)
class DispersionPath:
    """Maximal ascending chain from a minimal node to a maximal node."""

    nodes: tuple[int, ...]

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def sink(self) -> int:
        return self.nodes[-1]


def _chains(start: int, steps: Mapping[int, tuple[int, ...]], is_end) -> list[tuple[int, ...]]:
    """All chains from ``start`` along ``steps`` that stop where ``is_end`` holds.

    Depth first with an explicit stack, so chain length is not bounded by
    the recursion limit; chains come out in lexicographic order.
    """
    chains: list[tuple[int, ...]] = []
    stack = [(start,)]
    while stack:
        prefix = stack.pop()
        if is_end(prefix[-1]):
            chains.append(prefix)
        else:
            stack.extend(prefix + (v,) for v in reversed(steps[prefix[-1]]))
    return chains


def _ascending_chains(net: DagNetwork, start: int) -> list[tuple[int, ...]]:
    """All cover-edge chains from ``start`` up to maximal nodes, lexicographic."""
    return _chains(start, net.successors, lambda v: not net.successors[v])


def enumerate_updown_paths(net: DagNetwork, m1: int, m2: int) -> list[UpDownPath]:
    """All up-down paths from minimal node ``m1`` to minimal node ``m2``.

    The weight of a path is the product of the dispersion weights along the
    ascent times the pooling weights along the descent.  Paths are ordered
    lexicographically on their node sequences.
    """
    minimal = set(net.minimal_nodes)
    if m1 not in minimal:
        raise ValueError(f"node {m1} is not minimal")
    if m2 not in minimal:
        raise ValueError(f"node {m2} is not minimal")
    paths: list[UpDownPath] = []
    for asc in _ascending_chains(net, m1):
        peak = asc[-1]
        w_up = 1.0
        for a, b in zip(asc, asc[1:]):
            w_up *= net.w_d[(a, b)]
        for desc in _chains(peak, net.predecessors, lambda v: v == m2):
            w_down = 1.0
            for a, b in zip(desc, desc[1:]):
                w_down *= net.w_p[(b, a)]
            nodes = asc + desc[1:]
            paths.append(
                UpDownPath(nodes=nodes, peak_index=len(asc) - 1, weight=w_up * w_down)
            )
    paths.sort(key=lambda p: p.nodes)
    return paths


def minimal_distance_diameter(net: DagNetwork) -> int:
    """Diameter of the distance graph on minimal nodes.

    Two minimal nodes are adjacent when at least one up-down path joins them,
    i.e. when they share a reachable maximal node.  A single minimal node has
    diameter 1 by convention.
    """
    minimal = net.minimal_nodes
    if len(minimal) <= 1:
        return 1
    reach = {m: net.reachable_from(m) for m in minimal}
    maximal = set(net.maximal_nodes)
    adj: dict[int, set[int]] = {m: set() for m in minimal}
    for i, m1 in enumerate(minimal):
        for m2 in minimal[i + 1 :]:
            if reach[m1] & reach[m2] & maximal:
                adj[m1].add(m2)
                adj[m2].add(m1)
    diameter = 1
    for src in minimal:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in sorted(adj[u]):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) != len(minimal):
            raise InvalidNetworkError("distance graph of minimal nodes is disconnected")
        diameter = max(diameter, max(dist.values()))
    return diameter


def descent_masses(net: DagNetwork, target: int) -> dict[int, float]:
    """Total pooling-weight mass of all descents from each node down to ``target``.

    ``mass[target] == 1``; other minimal nodes carry mass 0; for a non-minimal
    node the mass splits over its in-edges with the pooling weights.
    """
    mass = {v: 0.0 for v in range(net.node_count)}
    mass[target] = 1.0
    for v in topological_order(net):
        if not net.predecessors[v]:
            continue
        mass[v] = sum(net.w_p[(u, v)] * mass[u] for u in net.predecessors[v])
    return mass


def enumerate_dispersion_paths(net: DagNetwork):
    """All maximal ascending chains plus the pooled weight table.

    Returns ``(paths, w)`` where ``paths[j]`` is the j-th dispersion path (in
    ascending order of source node, then lexicographic) and ``w[i, j]`` is the
    total product weight of every up-down traversal that ascends exactly along
    path j and then descends from its sink to minimal node i.  Row sums are 1
    and ``w[i, j] > 0`` exactly when a descent to minimal node i exists.
    """
    minimal = net.minimal_nodes
    paths: list[DispersionPath] = []
    up_mass: list[float] = []
    for m in minimal:
        for chain in _ascending_chains(net, m):
            w = 1.0
            for a, b in zip(chain, chain[1:]):
                w *= net.w_d[(a, b)]
            paths.append(DispersionPath(nodes=chain))
            up_mass.append(w)
    masses = {m: descent_masses(net, m) for m in minimal}
    w = np.zeros((len(minimal), len(paths)), dtype=float)
    for i, m in enumerate(minimal):
        for j, path in enumerate(paths):
            w[i, j] = up_mass[j] * masses[m][path.sink]
    return paths, w
