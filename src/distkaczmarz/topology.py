"""Rooted-tree and DAG network topologies with edge weights.

Node ids are dense nonnegative integers ``0 .. node_count-1``.  Tree edges
carry one weight (the pooling/averaging weight toward the child); DAG cover
edges carry a dispersion weight ``w_d`` and a pooling weight ``w_p``.
Ties are always broken by ascending node id so traversals, enumerations and
weight tables are reproducible.

Every weight table groups its edges by node: a tree parent's child edges,
a DAG node's in-edges (``w_d``) and out-edges (``w_p``).  One rule holds for
each group: its weights are all given or all omitted, omitted weights are
uniform over the group, and a valid network has positive weights summing
to 1 per group, and a weight keyed by a pair that is no edge is a
violation.  A tree is the DAG with one minimal node, so both network types
build and check their tables with the same helpers, check their edge ends
with one rule, walk them with one reachability walk and weigh a chain of
edges with one product.  A tree is kept as one edge table (each node's
parent and each edge's weight); its child lists are derived from it.

One walk, Kahn's algorithm run a level at a time, lays out either network:
level 0 is the root or the minimal nodes, and level k holds the nodes
whose last predecessor is on level k - 1, ties by ascending id.  Each
network caches those ``levels``.  One layout base, which both network
types inherit, derives from them the ``order`` (the levels one after
another) and the pass schedule, and caches the validation; the validation
and the path counts read the levels too.

Networks are immutable after construction; all queries are read-only.
Both network types are value classes
(:func:`~distkaczmarz.numerics.value_dataclass`, the package's one freeze
rule): a network copies every table it is given into a read-only mapping
view, so a write to a table raises ``TypeError`` and a later write to the
caller's dict changes nothing.  A network caches what it derives on first
use: its adjacency lists (a tree's ``children``, a DAG's ``predecessors``
and ``successors``, read-only views too), its ``levels`` and ``order``,
its list of violations (``violations``, what ``validate_tree`` or
``validate_dag`` returns) and its level schedule (``schedule``), the
tables the solver's pass kernel runs on; the schedule caches the
network's path masses, which weigh the least-squares targets, and
answers a sweep's degree question.  A copy or a pickle of a network
is rebuilt from its fields, so it starts without those caches and
computes them again on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AncestryError, ApplicabilityError, CycleError, InvalidNetworkError
from .errors import PartitionError
from .numerics import _frozen, value_dataclass

WEIGHT_SUM_TOL = 1e-12
MAX_ENUMERATED_PATHS = 100_000  # path enumerations above this count refuse to start


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with the offending nodes or edges."""

    kind: str
    detail: str
    where: tuple = ()


def _out_groups(succ: Mapping[int, Iterable[int]]) -> list:
    """One weight group ``(u, out-edge keys)`` per node with successors, in the given order."""
    return [(u, [(u, v) for v in downs]) for u, downs in succ.items() if downs]


def _in_groups(pred: Mapping[int, Iterable[int]]) -> list:
    """One weight group ``(v, in-edge keys)`` per node with predecessors, in the given order."""
    return [(v, [(u, v) for u in ups]) for v, ups in pred.items() if ups]


def _resolve_weights(groups, given: Mapping, what: str) -> dict[tuple[int, int], float]:
    """The weight table of ``(node, edge keys)`` groups; ``given[key]`` is None when omitted.

    A group's weights are all given, or all omitted and then uniform over
    the group; a mix raises :class:`InvalidNetworkError`.  Keys come out in
    group order.
    """
    weights: dict[tuple[int, int], float] = {}
    for u, keys in groups:
        vals = [given[k] for k in keys]
        if None not in vals:
            weights.update(zip(keys, vals))
        elif vals.count(None) == len(vals):
            weights.update(dict.fromkeys(keys, 1.0 / len(keys)))
        else:
            raise InvalidNetworkError(f"node {u}: {what} weights must be all given or all omitted")
    return weights


def _weight_violations(table: Mapping, groups, what: str) -> list[Violation]:
    """Non-positive weights of ``table``, the groups whose weights do not sum to 1, then stray keys.

    A stray key names no edge of ``groups``.
    """
    out = [
        Violation("weight", f"{what} weight of edge {e} is {w}", e)
        for e, w in table.items()
        if not w > 0.0
    ]
    for u, keys in groups:
        total = sum([table.get(k, 0.0) for k in keys])
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            out.append(Violation("weight-sum", f"{what} weights of node {u} sum to {total!r}", (u,)))
    edges = {k for _, keys in groups for k in keys}
    for e in table:
        if e not in edges:
            out.append(Violation("weight-key", f"{what} weight keyed {e} names no edge", e))
    return out


def _is_node(v, node_count: int) -> bool:
    """Whether ``v`` is a node id: an integer, not a bool, in ``0 .. node_count - 1``.

    An integer is a Python ``int`` or a numpy integer.  The exact type test
    comes first: an ``isinstance`` against ``numbers.Integral`` costs about
    1 us, which every edge of a network build would pay twice.
    """
    return (type(v) is int or isinstance(v, np.integer)) and 0 <= v < node_count


def _check_ends(u: int, v: int, node_count: int) -> None:
    """Raise :class:`InvalidNetworkError` unless edge ``(u, v)`` joins two distinct known nodes."""
    if not (_is_node(u, node_count) and _is_node(v, node_count)):
        raise InvalidNetworkError(f"edge ({u}, {v}) references an unknown node")
    if u == v:
        raise InvalidNetworkError(f"self-loop at node {u}")


def _edge(edge, weights: int) -> tuple:
    """``(u, v, *w)`` from an edge of 2 or ``2 + weights`` entries; a pair's weights are None."""
    if len(edge) == 2:
        return (*edge, *[None] * weights)
    if len(edge) != 2 + weights:
        raise InvalidNetworkError(f"edge {tuple(edge)} needs 2 or {2 + weights} entries")
    return tuple(edge)


def _reached(start: int, step) -> set[int]:
    """The nodes reached from ``start`` (included) by repeated ``step(node)``, the next nodes.

    Depth first; a node joins the set when it leaves the stack.
    """
    out, stack = set(), [start]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(step(u))
    return out


def _chain_weight(table: Mapping, tails: Sequence[int], heads: Sequence[int]) -> float:
    """The product of the weights ``table[(tails[i], heads[i])]`` in chain order, from 1.0."""
    return math.prod([table[e] for e in zip(tails, heads)], start=1.0)


def _kahn(succ: Mapping[int, Iterable[int]], start: int | None = None) -> list[tuple[int, ...]]:
    """Kahn's walk of ``succ`` (node -> successors), one level at a time.

    Level 0 is ``start`` alone, or else every node without predecessors;
    level k holds the nodes whose last predecessor is on level k - 1, so a
    node's level is its longest-path depth.  Ties within a level go by
    ascending id.  Nodes on or above a cycle never become ready, and nodes
    ``start`` does not reach are never listed, so then the levels hold
    fewer nodes than ``succ``.
    """
    indeg = dict.fromkeys(succ, 0)
    for downs in succ.values():
        for v in downs:
            indeg[v] += 1
    ready = [v for v, d in indeg.items() if d == 0] if start is None else [start]
    levels = []
    while ready:
        levels.append(tuple(sorted(ready)))
        ready = []
        for u in levels[-1]:
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
    return levels


def _reach(succ: Mapping[int, Iterable[int]], order: Sequence[int]) -> tuple[dict, dict, dict]:
    """The reach table of ``succ`` (node -> successors), from one walk up a topological ``order``.

    Returns ``(bit, strict, deep)`` keyed by node: ``bit[v]`` is ``1 << i``
    for v at position i of ``order``, and ``strict[u]`` (``deep[u]``) ORs the
    bits of the nodes u reaches by one or more (two or more) edges.  So
    ``(u, v)`` is a cover edge exactly when v is a successor of u outside
    ``deep[u]``.
    """
    bit = {v: 1 << i for i, v in enumerate(order)}
    strict: dict[int, int] = {}
    deep: dict[int, int] = {}
    for u in reversed(order):
        above = below = 0
        for w in succ[u]:
            above |= strict[w]
            below |= bit[w]
        strict[u], deep[u] = above | below, above
    return bit, strict, deep


# ---------------------------------------------------------------------------
# Level schedules


@value_dataclass
class Level:
    """The nodes at positions ``start:stop`` of a schedule, one level, and their in-edges.

    Row i of ``pred`` holds the positions of node ``start + i``'s
    predecessors and the same row of ``w_d`` the dispersion weights of
    those edges, padded to the level's largest in-degree K with position V
    (a row that stays 0) and weight 0; level 0, the minimal nodes, has
    K = 0.  ``copy`` is ``pred[:, 0]`` when each node of the level has one
    predecessor, of dispersion weight 1 (every level of a tree), else None.
    """

    start: int
    stop: int
    pred: np.ndarray
    w_d: np.ndarray
    copy: np.ndarray | None


@value_dataclass
class Schedule:
    """A network's pass laid out level by level, built once per network.

    ``order`` is the network's ``order``, its Kahn levels one after another;
    a node's position is its index there.  The nodes of one level, which
    never depend on each other, are adjacent.  Level 0 holds the minimal
    nodes, ``sources``, at positions ``0 .. s-1``.  ``pool[i, j]`` is the
    total pooling weight of the descents from the maximal node at position
    ``maximal[j]`` to minimal node i: the weight with which minimal node i
    pools that maximal node.  ``size`` is the node plus edge count V + E.
    ``parent`` is set on a tree's schedule, one source and a ``copy`` on
    every later level: ``parent[p]`` is the position of the one predecessor
    of the node at position p, and V for the source and for the padding
    row V; the pass's pointer doubling jumps along it.  It is None on any
    other schedule.  All arrays are read-only.  The facts that depend on
    the network alone are walks of these levels here, not in the
    system-specific pass kernel: :attr:`masses`, the path masses, walked on
    first read and not by the build, and :meth:`axis_degrees`, a sweep
    axis's degree.  A copy or a pickle drops the cached masses.
    """

    order: np.ndarray
    sources: tuple[int, ...]
    levels: tuple[Level, ...]
    maximal: np.ndarray
    pool: np.ndarray
    size: int
    parent: np.ndarray | None

    @cached_property
    def masses(self) -> np.ndarray:
        """``masses[i, v]``: total weight with which minimal node i pools the chains through v.

        A maximal node keeps its descent masses, ``pool``; walking the
        levels down, every other node takes the dispersion-weighted sum of
        its successors' (the ascent to any node carries mass 1).
        O(s (V + E)) without enumerating paths; on a tree ``masses[0, v]``
        is the root-to-v path weight.  Computed on first read, read-only.
        """
        mass = np.zeros((len(self.order) + 1, len(self.sources)))  # row V: the padding row
        mass[self.maximal] = self.pool.T
        for lv in reversed(self.levels):
            np.add.at(mass, lv.pred, lv.w_d[:, :, None] * mass[lv.start : lv.stop, None, :])
        out = np.empty((len(self.sources), len(self.order)))
        out[:, self.order] = mass[:-1].T
        return _frozen(out)

    def axis_degrees(self, axes: Sequence[Sequence[int]]) -> list[int]:
        """Most nodes of each axis on one dispersion chain: the pass map's degree in its omega.

        ``axes`` holds node ids.  Level by level, a node's count per axis is
        the largest of its predecessors' (the padding row counts 0) plus its
        own membership.
        """
        count = np.zeros((len(self.order) + 1, len(axes)), dtype=np.intp)
        position = np.argsort(self.order)
        for k, rows in enumerate(axes):
            count[position[rows], k] = 1
        for lv in self.levels:  # in level order every predecessor is final
            count[lv.start : lv.stop] += count[lv.pred].max(axis=1, initial=0)
        return count.max(axis=0).tolist()


def _schedule(levels: Sequence[tuple[int, ...]], ins: Sequence[tuple]) -> Schedule:
    """The level schedule from a network's Kahn ``levels`` and each node's in-edges.

    ``ins[v]`` holds one ``(u, w_d, w_p)`` per predecessor u of v.  The
    padded tables of all levels are laid out in one flat array each, and
    each :class:`Level` stores read-only copies of its slices.  One walk
    down the levels gives every node's descent masses, the
    pooling-weighted sums of its predecessors', with one gather and one
    product per level.
    """
    n = len(ins)
    order = [v for nodes in levels for v in nodes]
    pos = [0] * (n + 1)
    for p, v in enumerate(order):
        pos[v] = p
    pos[n] = n  # the padding row
    flat, bounds, start = [], [], 0
    for nodes in levels:
        k = max([len(ins[v]) for v in nodes])
        for v in nodes:
            flat += ins[v]
            flat += [(n, 0.0, 0.0)] * (k - len(ins[v]))
        copies = k == 1 and all([ins[v][0][1] == 1.0 for v in nodes])
        bounds.append((start, start + len(nodes), k, copies))
        start += len(nodes)
    pred = np.array([pos[u] for u, _, _ in flat], np.intp)
    w_d = np.array([w for _, w, _ in flat], float)
    w_p = np.array([w for _, _, w in flat])
    sources = levels[0]
    descent = np.eye(n + 1, len(sources))  # a minimal node descends to itself with mass 1
    tables, hi = [], 0
    for start, stop, k, copies in bounds:
        lo, hi = hi, hi + (stop - start) * k
        shape = (stop - start, k)
        copy = pred[lo:hi] if copies else None
        lv = Level(start, stop, pred[lo:hi].reshape(shape), w_d[lo:hi].reshape(shape), copy)
        if copies:
            descent[start:stop] = w_p[lo:hi, None] * descent[lv.copy]
        elif k:
            descent[start:stop] = (w_p[lo:hi].reshape(stop - start, 1, k) @ descent[lv.pred])[:, 0]
        tables.append(lv)
    has_out = set(pred.tolist())
    maximal = np.array([p for p in range(n) if p not in has_out], np.intp)
    parent = None
    if len(sources) == 1 and all(lv.copy is not None for lv in tables[1:]):
        parent = np.array([n, *pred.tolist(), n], np.intp)  # a copy level's pred is its parents
    return Schedule(
        order=np.array(order, np.intp),
        sources=sources,
        levels=tuple(tables),
        maximal=maximal,
        pool=descent[maximal].T,
        size=n + sum(map(len, ins)),
        parent=parent,
    )


class _Layout:
    """What a tree and a DAG lay out alike from their Kahn ``levels``.

    Each network type gives its ``node_count`` and ``levels``, the name of
    its validator in ``_validator`` and each node's in-edges in
    ``_in_edges(v)``: one ``(u, w_d, w_p)`` per predecessor u of v.
    """

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The levels one after another: topological, ties by ascending id within a level."""
        return tuple(v for level in self.levels for v in level)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What :func:`validate_tree` or :func:`validate_dag` returns for this network, found once.

        The validator is looked up by name when called, so the module's
        current binding of it runs.
        """
        return tuple(globals()[self._validator](self))

    @cached_property
    def schedule(self) -> Schedule:
        """The pass's level schedule over each node's in-edges; needs a valid network.

        Raises :class:`InvalidNetworkError` when the levels miss a node (a
        tree node the root does not reach).
        """
        if len(self.order) != self.node_count:
            raise InvalidNetworkError("the root's levels do not hold every node")
        return _schedule(self.levels, [self._in_edges(v) for v in range(self.node_count)])


# ---------------------------------------------------------------------------
# Trees


@value_dataclass
class TreeNetwork(_Layout):
    """A rooted tree kept as one edge table: each node's ``parent`` and each edge's weight.

    ``edge_weight[(parent[v], v)]`` is the pooling weight of the edge into
    v.  ``children``, the child lists, is a read-only view derived from
    ``parent`` on first use.  The root's levels are the nodes by depth
    below it, and the pass's level order is their concatenation ``order``.
    In the pass schedule each edge has dispersion weight 1.
    """

    node_count: int
    root: int
    parent: Mapping[int, int]
    edge_weight: Mapping[tuple[int, int], float]

    _validator = "validate_tree"

    @classmethod
    def from_edges(cls, node_count: int, root: int, edges: Iterable) -> "TreeNetwork":
        """Build a tree from ``(parent, child)`` or ``(parent, child, weight)`` tuples.

        When every edge out of a parent omits its weight, the children share
        the weight uniformly.  Mixing explicit and omitted weights under one
        parent is rejected.
        """
        if not _is_node(root, node_count):
            raise InvalidNetworkError(f"root {root} outside [0, {node_count})")
        parent: dict[int, int] = {}
        given: dict[tuple[int, int], float | None] = {}
        for edge in edges:
            u, v, w = _edge(edge, 1)
            _check_ends(u, v, node_count)
            if v in parent:
                raise InvalidNetworkError(f"node {v} has two parents")
            if v == root:
                raise InvalidNetworkError("root cannot have a parent")
            parent[v] = u
            given[(u, v)] = None if w is None else float(w)
        net = cls(node_count, root, parent, {})
        # each weight group is a parent's cached child list, so the table comes after it
        weights = _resolve_weights(_out_groups(net.children), given, "child edge")
        object.__setattr__(net, "edge_weight", _frozen(weights))
        return net

    @cached_property
    def children(self) -> Mapping[int, tuple[int, ...]]:
        """Each node's children, ascending, read from ``parent``.

        A parent entry on the root is ignored.
        """
        kids: dict[int, list[int]] = {u: [] for u in range(self.node_count)}
        for v, u in sorted(self.parent.items()):
            if u in kids and v in kids and v != self.root:
                kids[u].append(v)
        return _frozen({u: tuple(vs) for u, vs in kids.items()})

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Kahn's levels from the root over ``children``: level k holds the nodes k edges below it.

        A node whose parent walk misses the root is on no level.
        """
        return tuple(_kahn(self.children, self.root)) if self.root in self.children else ()

    def _in_edges(self, v: int) -> tuple:
        """The edge into v from its parent, of dispersion weight 1; none into the root."""
        u = None if v == self.root else self.parent[v]
        return () if u is None else ((u, 1.0, self.edge_weight[(u, v)]),)

    def is_leaf(self, v: int) -> bool:
        return not self.children.get(v, ())

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, kids in self.children.items() if not kids)

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


def validate_tree(net: TreeNetwork) -> list[Violation]:
    """Check the tree invariants; returns all violations (empty iff valid).

    The root must be a node id without a parent entry, every node must be
    on one of the root's levels, and the weights must be keyed by the edges
    ``(parent[v], v)``, positive and summing to 1 per parent.  Any other
    network type raises the ``TypeError`` of :func:`_checked_network`.
    """
    _checked_network(net)
    out: list[Violation] = []
    if not _is_node(net.root, net.node_count):
        out.append(Violation("root", f"root {net.root} outside node range", (net.root,)))
        return out
    if net.root in net.parent:
        out.append(Violation("root", f"root {net.root} has a parent entry", (net.root,)))
    for v in sorted(set(range(net.node_count)).difference(net.order)):
        out.append(Violation("connectivity", f"node {v} does not reach the root", (v,)))
    return out + _weight_violations(net.edge_weight, _out_groups(net.children), "child")


def path_weight(net: TreeNetwork, u: int, v: int) -> float:
    """Product of edge weights along the unique path from ancestor u down to v."""
    if u == v:
        return 1.0
    path = net.path_from_root(v)
    if u not in path:
        raise AncestryError(f"node {u} is not an ancestor of node {v}")
    start = path.index(u)
    return _chain_weight(net.edge_weight, path[start:], path[start + 1 :])


def _checked_network(net, expected: tuple = (TreeNetwork,)):
    """``net`` if it is of an ``expected`` network type, else ``TypeError`` naming the types.

    The one network-type rule: every route for one network type (a tree by
    default) or for either checks its network here.
    """
    if not isinstance(net, expected):
        names = " or ".join(t.__name__ for t in expected)
        raise TypeError(f"expected a {names}, got {type(net).__name__}")
    return net


# ---------------------------------------------------------------------------
# Subnetwork partitions


@dataclass(frozen=True)
class SubnetworkPartition:
    """Disjoint node groups used to assign aggressive relaxation parameters.

    ``groups`` is kept as a tuple of frozensets, whatever iterables of
    node ids it is given, so a partition is hashable and never shares a
    mutable set with its caller.
    """

    groups: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(map(frozenset, self.groups)))

    @classmethod
    def of(cls, groups: Iterable[Iterable[int]]) -> "SubnetworkPartition":
        return cls(groups)


@dataclass(frozen=True)
class ResolvedGroup:
    """A group resolved against a tree: gateway, component tops, leaves."""

    members: frozenset[int]
    gateway: int
    tops: tuple[int, ...]
    leaves: tuple[int, ...]
    is_leaf_group: bool


def _cover_violations(net: TreeNetwork, part: SubnetworkPartition) -> list[Violation]:
    """The cross-group rule: nodes in two groups, then leaves in no group.

    The root joins no group, so it is never an uncovered leaf.
    """
    out: list[Violation] = []
    seen: dict[int, int] = {}
    for gi, members in enumerate(part.groups):
        for v in members:
            if v in seen:
                out.append(Violation("disjoint", f"node {v} in groups {seen[v]} and {gi}", (v,)))
            seen[v] = gi
    return out + [
        Violation("coverage", f"leaf {leaf} is in no group", (leaf,))
        for leaf in net.leaves()
        if leaf not in seen and leaf != net.root
    ]


def _unknown_nodes(net: TreeNetwork, gi: int, members) -> list[Violation]:
    """A group's nodes outside the node range, ascending, as violations."""
    unknown = sorted(v for v in members if not 0 <= v < net.node_count)
    return [Violation("unknown-node", f"group {gi} references node {v}", (v,)) for v in unknown]


def _resolve_group(net: TreeNetwork, gi: int, members: frozenset) -> ResolvedGroup | Violation:
    """A group of known nodes resolved, or the violation that stops it resolving.

    The stops are an empty group, the root, and no unique gateway (tops
    whose parents differ, or a top without a parent).  Reads only the
    members, their parents and whether they are leaves, so it is linear in
    the group size and builds no condition 1-3 violation.
    """
    if not members:
        return Violation("empty", f"group {gi} is empty", ())
    if net.root in members:
        return Violation("root", f"group {gi} contains the root", (net.root,))
    tops = sorted(v for v in members if net.parent.get(v) not in members)
    parents = {net.parent.get(t) for t in tops}
    gateway = parents.pop() if len(parents) == 1 else None  # a parentless top has none
    if gateway is None:
        return Violation("gateway", f"group {gi} has no unique gateway", tuple(tops))
    leaves = tuple(sorted(v for v in members if net.is_leaf(v)))
    return ResolvedGroup(members, gateway, tuple(tops), leaves, len(leaves) == len(members))


def _group_violations(net: TreeNetwork, gi: int, members) -> list[Violation]:
    """One group's violations.

    In order: unknown nodes (named, then left out of the scans), an empty
    group, the root, children of members outside the group (condition 2),
    missing siblings of leaf members (condition 1), no unique gateway, and
    tops joined through the root (condition 3).  The stops of
    :func:`_resolve_group` end the list: an empty group or the root at
    once, no unique gateway after the condition scans.
    """
    out = _unknown_nodes(net, gi, members)
    members = frozenset(v for v in members if 0 <= v < net.node_count)
    group = _resolve_group(net, gi, members)
    if isinstance(group, Violation) and group.kind != "gateway":
        return out + [group]
    out.extend(
        Violation("condition-2", f"group {gi}: child {v} of member {u} is missing", (u, v))
        for u in members
        for v in net.children.get(u, ())
        if v not in members
    )
    missing: dict[int, list[int]] = {}  # each parent's children outside the group
    for u in members:
        p = net.parent.get(u)
        if p is None or not net.is_leaf(u):
            continue
        if p not in missing:
            missing[p] = [sib for sib in net.children[p] if sib not in members]
        out.extend(
            Violation("condition-1", f"group {gi}: sibling {sib} of leaf {u} is missing", (u, sib))
            for sib in missing[p]
        )
    if isinstance(group, Violation):
        return out + [group]
    if group.gateway == net.root and len(group.tops) > 1:
        t0, t1 = group.tops[:2]
        detail = f"group {gi}: path between tops {t0} and {t1} passes the root"
        out.append(Violation("condition-3", detail, (t0, t1)))
    return out


def validate_subnetworks(net: TreeNetwork, part: SubnetworkPartition) -> list[Violation]:
    """Check the subnetwork conditions: across groups, then each group's.

    Across groups: pairwise disjointness and coverage of every leaf but the
    root.  Per group, in group order: known nodes, not empty, no root,
    children of members stay inside (downward closure), a leaf member pulls
    in the complete sibling set of its parent, the component tops share a
    unique gateway, and the connecting paths avoid the root.  The list can
    be quadratic in the group sizes: each leaf member names every missing
    sibling.
    """
    out = _cover_violations(_checked_network(net), part)
    for gi, members in enumerate(part.groups):
        out.extend(_group_violations(net, gi, members))
    return out


def resolve_groups(net: TreeNetwork, part: SubnetworkPartition) -> list[ResolvedGroup]:
    """Resolve groups to (gateway, tops, leaves) form, in time linear in the group sizes.

    Raises :class:`PartitionError` with a group's first unknown-node, empty,
    root or gateway violation; conditions 1-3 are left to
    :func:`validate_subnetworks`.
    """
    _checked_network(net)
    resolved = []
    for gi, members in enumerate(part.groups):
        unknown = _unknown_nodes(net, gi, members)
        group = unknown[0] if unknown else _resolve_group(net, gi, members)
        if isinstance(group, Violation):
            raise PartitionError(group.detail)
        resolved.append(group)
    return resolved


def root_subtree_partition(net: TreeNetwork) -> SubnetworkPartition:
    """One group per child of the root, each the full subtree below that child.

    Always covers every leaf but the root (gateway is the root), so the
    product-form iteration matrix can be assembled for any tree, one node
    included (no group).  The partition validates on every tree, one node
    included, except where a leaf child of the root has siblings: condition
    1 then wants them in its group, which no partition of the root's
    children can give without condition 3 failing.
    """
    below = _checked_network(net).children
    tops = below.get(net.root, ())
    return SubnetworkPartition([_reached(c, below.__getitem__) for c in tops])


def leaf_sibling_partition(net: TreeNetwork) -> SubnetworkPartition:
    """Groups made of complete all-leaf sibling sets (leaf subnetworks only).

    Parents with any non-leaf child contribute no group, so the partition may
    leave some leaves uncovered; callers decide whether that is acceptable.
    """
    below = _checked_network(net).children.values()
    return SubnetworkPartition([kids for kids in below if kids and all(map(net.is_leaf, kids))])


# ---------------------------------------------------------------------------
# DAGs


@value_dataclass
class DagNetwork(_Layout):
    """Directed acyclic network on cover edges with dispersion/pooling weights."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    w_d: Mapping[tuple[int, int], float]
    w_p: Mapping[tuple[int, int], float]

    _validator = "validate_dag"

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))

    @classmethod
    def from_cover_edges(cls, node_count: int, edges: Iterable) -> "DagNetwork":
        """Build from ``(u, v)`` or ``(u, v, w_d, w_p)`` tuples.

        With 2-tuples the dispersion weights are uniform over each node's
        in-edges and the pooling weights uniform over each node's out-edges.
        """
        edge_list: list[tuple[int, int]] = []
        wd_in: dict[tuple[int, int], float | None] = {}
        wp_in: dict[tuple[int, int], float | None] = {}
        for edge in edges:
            u, v, wd, wp = _edge(edge, 2)
            _check_ends(u, v, node_count)
            if (u, v) in wd_in:
                raise InvalidNetworkError(f"duplicate edge ({u}, {v})")
            edge_list.append((u, v))
            wd_in[(u, v)] = None if wd is None else float(wd)
            wp_in[(u, v)] = None if wp is None else float(wp)
        edge_list.sort()
        net = cls(node_count, tuple(edge_list), {}, {})
        # each weight group is a node's cached in- or out-list, so the tables come after them
        w_d = _resolve_weights(_in_groups(net.predecessors), wd_in, "dispersion")
        w_p = _resolve_weights(_out_groups(net.successors), wp_in, "pooling")
        object.__setattr__(net, "w_d", _frozen(w_d))
        object.__setattr__(net, "w_p", _frozen(w_p))
        net.order  # raises CycleError on cycles
        return net

    @cached_property
    def predecessors(self) -> Mapping[int, tuple[int, ...]]:
        """Each node's in-neighbours, ascending: the network's one in-list per node."""
        preds: dict[int, list[int]] = {v: [] for v in range(self.node_count)}
        for u, v in self.edges:
            preds[v].append(u)
        return _frozen({v: tuple(sorted(ups)) for v, ups in preds.items()})

    @cached_property
    def successors(self) -> Mapping[int, tuple[int, ...]]:
        """Each node's out-neighbours, ascending: the network's one out-list per node."""
        succ: dict[int, list[int]] = {v: [] for v in range(self.node_count)}
        for u, v in self.edges:
            succ[u].append(v)
        return _frozen({v: tuple(sorted(downs)) for v, downs in succ.items()})

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Kahn's levels from the minimal nodes; raises :class:`CycleError` on a cycle.

        Level k holds the nodes whose longest ascending chain has k edges.
        """
        levels = tuple(_kahn(self.successors))
        if sum(map(len, levels)) != self.node_count:
            raise CycleError("edge set contains a cycle")
        return levels

    def _in_edges(self, v: int) -> tuple:
        """v's in-edges over the cached in-list, with their dispersion and pooling weights."""
        return tuple((u, self.w_d[(u, v)], self.w_p[(u, v)]) for u in self.predecessors[v])

    @cached_property
    def minimal_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.node_count) if not self.predecessors[v])

    @cached_property
    def maximal_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.node_count) if not self.successors[v])

    def reachable_from(self, v: int) -> set[int]:
        return _reached(v, self.successors.__getitem__)


def validate_dag(net: DagNetwork) -> list[Violation]:
    """Check acyclicity, weak connectivity, cover-only edges and weight sums."""
    _checked_network(net, (DagNetwork,))
    out: list[Violation] = []
    try:
        order = net.order
    except CycleError:
        out.append(Violation("cycle", "edge set contains a cycle", ()))
        return out
    if net.node_count > 1:
        seen = _reached(0, lambda u: net.successors[u] + net.predecessors[u])
        if len(seen) != net.node_count:
            missing = sorted(set(range(net.node_count)) - seen)
            out.append(
                Violation("connectivity", f"nodes {missing} are disconnected", tuple(missing))
            )
    bit, strict, deep = _reach(net.successors, order)
    for u, v in net.edges:
        if deep[u] & bit[v]:  # implied: name the first successor that reaches v
            w = next(w for w in net.successors[u] if strict[w] & bit[v])
            out.append(
                Violation(
                    "cover",
                    f"edge ({u}, {v}) is implied through node {w} and must be removed",
                    (u, v, w),
                )
            )
    out += _weight_violations(net.w_d, _in_groups(net.predecessors), "dispersion")
    return out + _weight_violations(net.w_p, _out_groups(net.successors), "pooling")


def topological_order(net: DagNetwork) -> list[int]:
    """A copy of ``net.order``: the Kahn levels one after another, ascending within a level."""
    return list(net.order)


def hasse_reduce(relation: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Cover pairs of the transitive closure of a strict order relation.

    A pair ``(u, v)`` is kept exactly when no ``w`` satisfies ``u < w < v``.
    Raises :class:`CycleError` when the relation is not acyclic.
    """
    succ: dict[int, set[int]] = {}
    for u, v in relation:
        if u == v:
            raise CycleError(f"relation is not irreflexive at {u}")
        succ.setdefault(u, set()).add(v)
        succ.setdefault(v, set())
    order = [v for level in _kahn(succ) for v in level]
    if len(order) != len(succ):
        stuck = len(succ) - len(order)
        raise CycleError(f"relation contains a cycle; {stuck} nodes cannot be ordered")
    bit, _, deep = _reach(succ, order)  # bits by position, so ids of any sign or size work
    return {(u, v) for u, ups in succ.items() for v in ups if not deep[u] & bit[v]}


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


def _chain_counts(net: DagNetwork, starts: Iterable[int]) -> list[int]:
    """Number of ascending chains from any node of ``starts`` to each node; O(V + E)."""
    count = [0] * net.node_count
    for m in starts:
        count[m] = 1
    for u in net.order:
        for v in net.successors[u]:
            count[v] += count[u]
    return count


def _require_enumerable(count: int, what: str) -> None:
    if count > MAX_ENUMERATED_PATHS:
        raise ApplicabilityError(f"{count} {what} exceed the cap of {MAX_ENUMERATED_PATHS}")


def enumerate_updown_paths(net: DagNetwork, m1: int, m2: int) -> list[UpDownPath]:
    """All up-down paths from minimal node ``m1`` to minimal node ``m2``.

    The weight of a path is the product of the dispersion weights along the
    ascent times the pooling weights along the descent.  Paths are ordered
    lexicographically on their node sequences.  The paths are counted first;
    more than :data:`MAX_ENUMERATED_PATHS` raise :class:`ApplicabilityError`.
    """
    minimal = set(net.minimal_nodes)
    if m1 not in minimal:
        raise ValueError(f"node {m1} is not minimal")
    if m2 not in minimal:
        raise ValueError(f"node {m2} is not minimal")
    up1, up2 = _chain_counts(net, [m1]), _chain_counts(net, [m2])
    _require_enumerable(sum(up1[p] * up2[p] for p in net.maximal_nodes), "up-down paths")
    paths: list[UpDownPath] = []
    for asc in _ascending_chains(net, m1):
        w_up = _chain_weight(net.w_d, asc, asc[1:])
        for desc in _chains(asc[-1], net.predecessors, lambda v: v == m2):
            w_down = _chain_weight(net.w_p, desc[1:], desc)  # each edge keyed (lower, upper)
            paths.append(UpDownPath(asc + desc[1:], len(asc) - 1, w_up * w_down))
    paths.sort(key=lambda p: p.nodes)
    return paths


def minimal_distance_diameter(net: DagNetwork) -> int:
    """Diameter of the distance graph on minimal nodes.

    Two minimal nodes are adjacent when at least one up-down path joins them,
    i.e. when their reach sets share a maximal node, which they do exactly
    when they share any node.  A single minimal node has diameter 1 by
    convention; otherwise a cycle raises :class:`CycleError`.
    """
    minimal = _checked_network(net, (DagNetwork,)).minimal_nodes
    if len(minimal) <= 1:
        return 1
    _, strict, _ = _reach(net.successors, net.order)
    adj = {m: [n for n in minimal if n != m and strict[m] & strict[n]] for m in minimal}
    diameter = 1
    for src in minimal:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) != len(minimal):
            raise InvalidNetworkError("distance graph of minimal nodes is disconnected")
        diameter = max(diameter, max(dist.values()))
    return diameter


def enumerate_dispersion_paths(net: DagNetwork):
    """All maximal ascending chains plus the pooled weight table.

    Returns ``(paths, w)`` where ``paths[j]`` is the j-th dispersion path (in
    ascending order of source node, then lexicographic) and ``w[i, j]`` is the
    total product weight of every up-down traversal that ascends exactly along
    path j and then descends from its sink to minimal node i.  Row sums are 1
    and ``w[i, j] > 0`` exactly when a descent to minimal node i exists.
    More than :data:`MAX_ENUMERATED_PATHS` paths raise :class:`ApplicabilityError`.
    """
    minimal = _checked_network(net, (DagNetwork,)).minimal_nodes
    count = _chain_counts(net, minimal)
    _require_enumerable(sum(count[p] for p in net.maximal_nodes), "dispersion paths")
    paths: list[DispersionPath] = []
    up_mass: list[float] = []
    for m in minimal:
        for chain in _ascending_chains(net, m):
            paths.append(DispersionPath(nodes=chain))
            up_mass.append(_chain_weight(net.w_d, chain, chain[1:]))
    descent = np.zeros((net.node_count, len(minimal)))  # pooling mass down to each minimal node
    descent[list(minimal), range(len(minimal))] = 1.0
    for v in net.order:
        for u in net.predecessors[v]:
            descent[v] += net.w_p[(u, v)] * descent[u]
    return paths, descent[[p.sink for p in paths]].T * up_mass
