import dataclasses
import time
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import (
    AncestryError,
    ApplicabilityError,
    CycleError,
    InvalidNetworkError,
    PartitionError,
)

from oracles import (
    brute_cover_pairs,
    brute_diameter,
    brute_resolved_group,
    brute_updown_paths,
    dfs_updown_paths,
    implied_edge_witnesses,
    layered_dag,
    nodes_not_reaching_root,
)


def seven_node_tree():
    """Binary tree 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6, 7} used as the running example."""
    return tp.TreeNetwork.from_edges(
        8,
        0,
        [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5), (2, 5, 1 / 3), (2, 6, 1 / 3), (2, 7, 1 / 3)],
    )


class TestTreeValidation:
    def test_two_node_chain_valid(self):
        net = tp.TreeNetwork.from_edges(2, 0, [(0, 1, 1.0)])
        assert tp.validate_tree(net) == []

    def test_bad_weight_sum_reported_at_root(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.3), (0, 2, 0.6)])
        violations = tp.validate_tree(net)
        assert any(v.kind == "weight-sum" and v.where == (0,) for v in violations)

    def test_binary_balanced_uniform_valid(self):
        net = tp.TreeNetwork.from_edges(
            7, 0, [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5), (2, 5, 0.5), (2, 6, 0.5)]
        )
        assert tp.validate_tree(net) == []

    def test_uniform_default_weights(self):
        net = tp.TreeNetwork.from_edges(4, 0, [(0, 1), (0, 2), (0, 3)])
        assert net.edge_weight[(0, 1)] == pytest.approx(1 / 3)
        assert tp.validate_tree(net) == []

    def test_two_parents_rejected(self):
        with pytest.raises(InvalidNetworkError):
            tp.TreeNetwork.from_edges(3, 0, [(0, 2, 1.0), (1, 2, 1.0)])

    def test_disconnected_reported(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 1.0)])
        violations = tp.validate_tree(net)
        assert any(v.kind == "connectivity" and 2 in v.where for v in violations)

    def test_leaf_path_weights_sum_to_one(self):
        net = seven_node_tree()
        total = sum(tp.path_weight(net, 0, leaf) for leaf in net.leaves())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_parent_entry_on_the_root_reported(self):
        net = tp.TreeNetwork(3, 0, {1: 0, 2: 1, 0: 2}, {(0, 1): 1.0, (1, 2): 1.0})
        assert [(v.kind, v.where) for v in tp.validate_tree(net)] == [("root", (0,))]
        assert dict(net.children) == {0: (1,), 1: (2,), 2: ()}  # the entry is ignored
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.ones(3))
        with pytest.raises(InvalidNetworkError, match="invalid tree") as err:
            cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(3))
        assert [v.kind for v in err.value.violations] == ["root"]

    def test_weight_keys_that_name_no_edge_reported(self):
        # parent says 0 -> {1, 2}; the weights name a chain 0 -> 1 -> 2 and sum to 1 at node 0
        net = tp.TreeNetwork(3, 0, {1: 0, 2: 0}, {(0, 1): 1.0, (1, 2): 1.0})
        assert [(v.kind, v.where) for v in tp.validate_tree(net)] == [("weight-key", (1, 2))]
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.ones(3))
        with pytest.raises(InvalidNetworkError, match="invalid tree"):
            cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(3))

    def test_parent_lookups_linear_on_caterpillar(self):
        # a spine of 1,500 nodes, each with one leaf: walking every node to
        # the root would cost about a million parent lookups
        n = 3000
        edges = [(max(v - 2, 0), v) for v in range(1, n, 2)] + [(v - 1, v) for v in range(2, n, 2)]
        built = tp.TreeNetwork.from_edges(n, 0, edges)
        parent = CountingMapping(built.parent)
        net = tp.TreeNetwork(n, 0, parent, built.edge_weight)  # copies the map: n - 1 lookups
        assert not vars(net).keys() & {"children", "levels", "order", "violations"}
        object.__setattr__(net, "parent", parent)  # every derived table now reads the counted map
        assert tp.validate_tree(net) == []
        assert net.children == built.children
        assert parent.lookups <= 2 * n

    def test_broken_parent_maps_report_the_same_nodes(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            root = int(rng.integers(0, n))
            parent = {
                v: int(rng.integers(0, n + 2))  # ids past the range have no parent
                for v in range(n)
                if rng.uniform() < 0.85 and v != root
            }
            if n > 1 and rng.uniform() < 0.2:
                parent[root] = int(rng.integers(0, n))  # a parent on the root is ignored
            net = tp.TreeNetwork(n, root, parent, {})
            got = [v.where[0] for v in tp.validate_tree(net) if v.kind == "connectivity"]
            assert got == nodes_not_reaching_root(parent, root, n)
            assert net.leaves() == tuple(v for v in range(n) if net.is_leaf(v))


@pytest.mark.parametrize("table", ["parent", "children", "edge_weight"])
def test_tree_tables_are_read_only(table):
    net = seven_node_tree()
    mapping = getattr(net, table)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = 5.0
    with pytest.raises(TypeError):
        del mapping[key]
    assert net.edge_weight[(0, 1)] == 0.5 and tp.validate_tree(net) == []


def test_tree_copies_the_caller_s_tables():
    parent, weights = {1: 0, 2: 0}, {(0, 1): 0.5, (0, 2): 0.5}
    net = tp.TreeNetwork(3, 0, parent, weights)
    before = net.schedule
    parent[2] = 1
    weights[(0, 1)] = 0.9
    assert dict(net.parent) == {1: 0, 2: 0} and dict(net.children) == {0: (1, 2), 1: (), 2: ()}
    assert net.edge_weight[(0, 1)] == 0.5 and net.violations == ()
    assert net.schedule is before
    fresh = tp.TreeNetwork(3, 0, {1: 0, 2: 0}, {(0, 1): 0.5, (0, 2): 0.5}).schedule
    assert before.order.tolist() == fresh.order.tolist()
    assert np.array_equal(before.pool, fresh.pool)


def test_dag_copies_the_caller_s_tables():
    edges = [(0, 2), (1, 2), (2, 3)]
    w_d = {(0, 2): 0.5, (1, 2): 0.5, (2, 3): 1.0}
    w_p = {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0}
    net = tp.DagNetwork(4, edges, w_d, w_p)
    order, schedule = net.order, net.schedule
    edges.append((3, 0))
    w_d[(0, 2)] = 0.9
    w_p[(2, 3)] = 0.1
    assert net.edges == ((0, 2), (1, 2), (2, 3)) and net.violations == ()
    assert net.w_d[(0, 2)] == 0.5 and net.w_p[(2, 3)] == 1.0
    assert net.order == order == (0, 1, 2, 3) and net.schedule is schedule
    weighted = [(0, 2, 0.5, 1.0), (1, 2, 0.5, 1.0), (2, 3, 1.0, 1.0)]
    fresh = tp.DagNetwork.from_cover_edges(4, weighted)
    assert np.array_equal(schedule.pool, fresh.schedule.pool)
    assert all(
        np.array_equal(a.pred, b.pred) and np.array_equal(a.w_d, b.w_d)
        for a, b in zip(schedule.levels, fresh.schedule.levels, strict=True)
    )


class CountingMapping(Mapping):
    """Read-only mapping that counts its key lookups."""

    def __init__(self, data):
        self.data = dict(data)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.data[key]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


class ScanCountingTuple(tuple):
    """A tuple that counts the scans over its items."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def star(n):
    """Root 0 with leaves 1 .. n - 1."""
    return tp.TreeNetwork.from_edges(n, 0, [(0, v) for v in range(1, n)])


class TestPathWeight:
    def test_trivial(self):
        net = seven_node_tree()
        assert tp.path_weight(net, 3, 3) == 1.0

    def test_chain_of_ones(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 1.0), (1, 2, 1.0)])
        assert tp.path_weight(net, 0, 2) == pytest.approx(1.0)

    def test_product(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.3), (1, 2, 0.5)])
        # only child edges may carry non-unit weights when siblings exist;
        # the product itself is what is under test here
        assert tp.path_weight(net, 0, 2) == pytest.approx(0.15)

    def test_not_ancestor(self):
        net = seven_node_tree()
        with pytest.raises(AncestryError):
            tp.path_weight(net, 3, 4)


def random_partition(rng, net):
    """Up to four groups: ids in -1..n+1 or known non-root ids, the root at times, overlaps allowed."""
    n = net.node_count
    groups = []
    for _ in range(int(rng.integers(0, 5))):
        pool = range(-1, n + 2) if rng.random() < 0.3 else range(1, n)
        size = int(rng.integers(0, min(len(pool), 4) + 1))
        group = set(rng.choice(pool, size=size).tolist()) if size else set()
        if rng.random() < 0.1:
            group.add(net.root)
        groups.append(group)
    if rng.random() < 0.3:  # subtrees under the root, then the drawn groups
        groups = [*tp.root_subtree_partition(net).groups, *groups]
    return tp.SubnetworkPartition.of(groups)


def first_stop(net, groups):
    """The first group's first unknown node, emptiness, root or missing gateway, as named."""
    for gi, group in enumerate(groups):
        unknown = sorted(v for v in group if not 0 <= v < net.node_count)
        if unknown:
            return f"group {gi} references node {unknown[0]}"
        if not group:
            return f"group {gi} is empty"
        if net.root in group:
            return f"group {gi} contains the root"
        if brute_resolved_group(net, group).gateway is None:
            return f"group {gi} has no unique gateway"
    return None


class TestSubnetworks:
    def test_running_example_valid(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{1, 3, 4}, {5, 6, 7}])
        assert tp.validate_subnetworks(net, part) == []
        groups = tp.resolve_groups(net, part)
        assert groups[0].gateway == 0
        assert groups[1].gateway == 2
        assert groups[0].leaves == (3, 4)
        assert groups[0].tops == (1,)
        assert groups[1].tops == (5, 6, 7)
        assert not groups[0].is_leaf_group
        assert groups[1].is_leaf_group

    def test_missing_sibling_is_condition_one(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{3}, {5, 6, 7}])
        violations = tp.validate_subnetworks(net, part)
        assert any(v.kind == "condition-1" and v.where == (3, 4) for v in violations)

    def test_shared_node_is_disjointness(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{3, 4, 5}, {5, 6, 7}])
        violations = tp.validate_subnetworks(net, part)
        assert any(v.kind == "disjoint" for v in violations)

    def test_missing_child_is_condition_two(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{1, 3}, {5, 6, 7}])
        violations = tp.validate_subnetworks(net, part)
        assert any(v.kind == "condition-2" for v in violations)

    def test_root_paths_are_condition_three(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{1, 2, 3, 4, 5, 6, 7}])
        violations = tp.validate_subnetworks(net, part)
        assert any(v.kind == "condition-3" for v in violations)

    def test_uncovered_leaf_reported(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{3, 4}])
        violations = tp.validate_subnetworks(net, part)
        assert any(v.kind == "coverage" for v in violations)

    def test_root_subtree_partition_always_covers(self):
        net = seven_node_tree()
        part = tp.root_subtree_partition(net)
        covered = set().union(*part.groups)
        assert set(net.leaves()) <= covered
        groups = tp.resolve_groups(net, part)
        assert all(g.gateway == 0 for g in groups)

    def test_leaf_sibling_partition(self):
        net = seven_node_tree()
        part = tp.leaf_sibling_partition(net)
        assert set(map(frozenset, part.groups)) == {frozenset({3, 4}), frozenset({5, 6, 7})}

    def test_a_partition_built_directly_holds_frozensets_of_its_own(self):
        groups = [{1, 2}, [3, 4]]
        direct, of = tp.SubnetworkPartition(groups), tp.SubnetworkPartition.of(groups)
        assert direct == of and hash(direct) == hash(of)
        assert type(direct.groups) is tuple
        assert all(type(g) is frozenset for g in direct.groups)
        groups[0].add(9)
        assert direct.groups == (frozenset({1, 2}), frozenset({3, 4}))

    def test_no_unique_gateway_raises(self):
        # 0 -> 1, 1 -> {2, 3}, 2 -> 4, 3 -> 5: {4, 5} has two preceding nodes
        net = tp.TreeNetwork.from_edges(
            6, 0, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.5), (2, 4, 1.0), (3, 5, 1.0)]
        )
        part = tp.SubnetworkPartition.of([{4, 5}])
        with pytest.raises(PartitionError):
            tp.resolve_groups(net, part)
        assert any(v.kind == "gateway" for v in tp.validate_subnetworks(net, part))

    @pytest.mark.parametrize("group", [{3}, {2, 3}])
    def test_a_parentless_top_is_a_partition_error(self, group):
        # built directly, node 3 has no parent; {2, 3} has one top with a parent
        net = tp.TreeNetwork.from_edges(4, 0, [(0, 1), (1, 2)])
        system = sv.LinearSystem(rows=np.eye(4), rhs=np.ones(4))
        part = tp.SubnetworkPartition.of([group])
        with pytest.raises(PartitionError, match="no unique gateway"):
            tp.resolve_groups(net, part)
        with pytest.raises(PartitionError, match="no unique gateway"):
            cf.group_operator(system, net, group, sv.RelaxationAssignment.uniform(4))
        assert any(v.kind == "gateway" for v in tp.validate_subnetworks(net, part))

    def test_each_parent_s_children_are_scanned_once_per_group(self):
        # 300 leaves under node 1, two of them left out of the group
        n = 302
        net = tp.TreeNetwork.from_edges(n, 0, [(0, 1)] + [(1, v) for v in range(2, n)])
        kids = ScanCountingTuple(net.children[1])
        # the child lists are a cached view of ``parent``: put the counted list into the cache
        object.__setattr__(net, "children", MappingProxyType({**net.children, 1: kids}))
        members = frozenset(range(2, n - 2))
        violations = tp.validate_subnetworks(net, tp.SubnetworkPartition((members,)))
        assert kids.scans == 1
        assert [v.where for v in violations if v.kind == "condition-1"] == [
            (u, sib) for u in members for sib in (n - 2, n - 1)
        ]

    @pytest.mark.parametrize("group", [[99], [3, 99]])
    def test_unknown_node_named(self, group):
        net = ex.binary7_network()
        system = sv.LinearSystem(rows=np.eye(7), rhs=np.ones(7))
        relax = sv.RelaxationAssignment.uniform(7)
        part = tp.SubnetworkPartition.of([group])
        with pytest.raises(PartitionError, match="group 0 references node 99"):
            tp.resolve_groups(net, part)
        with pytest.raises(PartitionError, match="group 0 references node 99"):
            cf.check_admissibility(system, net, part, relax)
        with pytest.raises(PartitionError, match="group 0 references node 99"):
            cf.subnetwork_norm(system, net, group, relax)


    def test_a_single_node_has_no_uncovered_leaf(self):
        # the root is the only leaf, and the root joins no group
        net = tp.TreeNetwork.from_edges(1, 0, [])
        assert tp.validate_subnetworks(net, tp.SubnetworkPartition(())) == []
        assert tp.resolve_groups(net, tp.SubnetworkPartition(())) == []

    def test_the_root_subtree_partition_validates_unless_a_root_leaf_has_siblings(self):
        # a leaf child of the root with siblings wants them all in its group
        # (condition 1), and no partition of the root's children can hold that
        sizes, flagged = set(), 0
        for seed in range(80):
            net = ex.random_tree(seed, 1, 12)
            kids = net.children[net.root]
            want = [
                ("condition-1", (leaf, sib))
                for leaf in kids
                if net.is_leaf(leaf)
                for sib in kids
                if sib != leaf
            ]
            got = tp.validate_subnetworks(net, tp.root_subtree_partition(net))
            assert sorted((v.kind, v.where) for v in got) == sorted(want)
            sizes.add(net.node_count)
            flagged += bool(want)
        assert {1, 2, 12} <= sizes and 10 <= flagged <= 70

    @pytest.mark.parametrize(
        "group, kind, where",
        [(set(), "empty", ()), ({0, 3}, "root", (0,)), ({0}, "root", (0,))],
    )
    def test_an_empty_or_root_group_stops_resolving(self, group, kind, where):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{3, 4}, group, {5, 6, 7}])
        detail = "group 1 is empty" if kind == "empty" else "group 1 contains the root"
        found = [v for v in tp.validate_subnetworks(net, part) if v.kind in ("empty", "root")]
        assert [(v.kind, v.detail, v.where) for v in found] == [(kind, detail, where)]
        with pytest.raises(PartitionError, match=f"^{detail}$"):
            tp.resolve_groups(net, part)

    def test_an_unknown_node_is_named_before_the_group_is_empty(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{-1, 9}])
        assert [(v.kind, v.detail) for v in tp.validate_subnetworks(net, part)] == [
            ("coverage", f"leaf {leaf} is in no group") for leaf in (3, 4, 5, 6, 7)
        ] + [
            ("unknown-node", "group 0 references node -1"),
            ("unknown-node", "group 0 references node 9"),
            ("empty", "group 0 is empty"),
        ]
        with pytest.raises(PartitionError, match="^group 0 references node -1$"):
            tp.resolve_groups(net, part)

    def test_resolution_stops_exactly_on_its_four_violations(self):
        stops = ("unknown-node", "empty", "root", "gateway")
        rng = np.random.default_rng(25)
        seen = dict.fromkeys(stops, 0) | {"resolved": 0}
        # wide stars too, whose drawn groups of a few leaves omit most siblings
        nets = [ex.random_tree(seed, 1, 12) for seed in range(600)]
        for net in nets + [star(n) for n in (101, 150, 200, 250, 301, 301)]:
            part = random_partition(rng, net)
            found = [v for v in tp.validate_subnetworks(net, part) if v.kind in stops]
            assert (found[0].detail if found else None) == first_stop(net, part.groups)
            if found:
                seen[found[0].kind] += 1
                with pytest.raises(PartitionError) as info:
                    tp.resolve_groups(net, part)
                assert str(info.value) == found[0].detail
            else:
                seen["resolved"] += 1
                want = [brute_resolved_group(net, group) for group in part.groups]
                assert tp.resolve_groups(net, part) == want
        assert min(seen.values()) >= 20, seen

    def test_resolving_builds_no_violation_and_validating_builds_each_once(self, monkeypatch):
        # 1,000 singleton leaf groups each omit 999 siblings: condition 1 alone
        # names 999,000 of them, which resolving must never build
        built = []

        class CountedViolation(tp.Violation):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.kind)

        monkeypatch.setattr(tp, "Violation", CountedViolation)
        net = star(1001)
        part = tp.root_subtree_partition(net)
        system = sv.LinearSystem(rows=np.ones((1001, 2)), rhs=np.ones(1001))
        relax = sv.RelaxationAssignment.uniform(1001)
        assert len(tp.resolve_groups(net, part)) == 1000 and built == []
        for group in part.groups:
            cf.group_operator(system, net, group, relax)
        assert built == []
        cf.build_p_omega(system, net, part, relax)
        assert built == []
        small = star(101)
        violations = tp.validate_subnetworks(small, tp.root_subtree_partition(small))
        assert built == [v.kind for v in violations] == ["condition-1"] * 9900


class TestHasseReduce:
    def test_removes_implied_edge(self):
        covers = tp.hasse_reduce({(1, 2), (2, 3), (1, 3)})
        assert covers == {(1, 2), (2, 3)}

    def test_single_pair(self):
        assert tp.hasse_reduce({(1, 2)}) == {(1, 2)}

    def test_chain_closure(self):
        pairs = {(a, b) for a in range(4) for b in range(4) if a < b}
        assert tp.hasse_reduce(pairs) == {(0, 1), (1, 2), (2, 3)}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = set()
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.4:
                        pairs.add((a, b))
            if not pairs:
                continue
            assert tp.hasse_reduce(pairs) == brute_cover_pairs(pairs)

    def test_transitive_closure_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            pairs = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5}
            if not pairs:
                continue
            # closing the covers reproduces the closure of the input
            assert brute_cover_pairs(brute_cover_pairs(pairs)) == tp.hasse_reduce(pairs)

    def test_ids_of_any_sign_and_size(self):
        """Reach bits go by position in the order, so negative and large ids work.

        Ids stay within 10**6: a bitset indexed by raw ids then fails fast
        instead of building huge integers.
        """
        assert tp.hasse_reduce({(10**6, -1), (-1, 0), (10**6, 0)}) == {(10**6, -1), (-1, 0)}
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            ids = [int(v) for v in rng.choice(np.arange(-50, 51), n, replace=False)]
            ids[int(rng.integers(n))] = int(rng.choice([-(10**6), 10**6]))
            pairs = {(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)}
            pairs = {p for p in sorted(pairs) if rng.random() < 0.5}
            if pairs:
                assert tp.hasse_reduce(pairs) == brute_cover_pairs(pairs)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            tp.hasse_reduce({(1, 2), (2, 1)})
        with pytest.raises(CycleError):
            tp.hasse_reduce({(1, 1)})

    def test_deep_chain_without_recursion_limit(self):
        n = 1500
        chain = {(i, i + 1) for i in range(n - 1)}
        skips = {(i, i + 2) for i in range(n - 2)}
        assert tp.hasse_reduce(chain | skips) == chain
        with pytest.raises(CycleError):
            tp.hasse_reduce(chain | {(n - 1, 0)})


def figure_dag():
    return tp.DagNetwork.from_cover_edges(6, [(0, 2), (0, 3), (1, 3), (2, 4), (2, 5), (3, 5)])


class TestDagNetwork:
    def test_uniform_weights_valid(self):
        net = figure_dag()
        assert tp.validate_dag(net) == []
        assert net.minimal_nodes == (0, 1)
        assert net.maximal_nodes == (4, 5)
        assert net.w_d[(0, 3)] == pytest.approx(0.5)
        assert net.w_p[(0, 2)] == pytest.approx(0.5)

    def test_non_cover_edge_flagged(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert any(v.kind == "cover" for v in tp.validate_dag(net))

    def test_injected_implied_edges_flagged_with_first_witness(self):
        rng = np.random.default_rng(17)
        flagged_total = 0
        for _ in range(60):
            n = int(rng.integers(3, 14))
            perm = rng.permutation(n)  # node ids do not follow the order
            pairs = {
                (int(perm[a]), int(perm[b]))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.uniform() < 0.3
            }
            pairs |= {(int(perm[a]), int(perm[a + 1])) for a in range(n - 1)}  # connected
            net = tp.DagNetwork.from_cover_edges(n, sorted(pairs))
            cover = [v.where for v in tp.validate_dag(net) if v.kind == "cover"]
            assert {w[:2] for w in cover} == pairs - brute_cover_pairs(pairs)
            assert cover == implied_edge_witnesses(net)
            flagged_total += len(cover)
        assert flagged_total > 100

    def test_disconnected_flagged(self):
        net = tp.DagNetwork.from_cover_edges(4, [(0, 1), (2, 3)])
        assert any(v.kind == "connectivity" for v in tp.validate_dag(net))

    def test_weight_keys_that_name_no_edge_reported(self):
        w_d = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 0.7}
        w_p = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 0.5}
        net = tp.DagNetwork(3, [(0, 1), (1, 2)], w_d, w_p)
        assert [(v.kind, v.where) for v in tp.validate_dag(net)] == [
            ("weight-key", (0, 2)),
            ("weight-key", (2, 0)),
        ]

    def test_bad_weight_sum_flagged(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 2, 0.5, 1.0), (1, 2, 0.4, 1.0)])
        assert any(v.kind == "weight-sum" for v in tp.validate_dag(net))

    def test_cycle_rejected_at_construction(self):
        with pytest.raises(CycleError):
            tp.DagNetwork.from_cover_edges(2, [(0, 1), (1, 0)])

    def test_immutable(self):
        net = figure_dag()
        assert net.minimal_nodes == (0, 1)  # cached properties still work
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.node_count = 99
        assert net.node_count == 6

    @pytest.mark.parametrize("table", ["w_d", "w_p", "predecessors", "successors"])
    def test_tables_are_read_only(self, table):
        net = figure_dag()
        mapping = getattr(net, table)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = ()
        with pytest.raises(TypeError):
            del mapping[key]
        assert net.minimal_nodes == (0, 1) and tp.validate_dag(net) == []


class TestTopologicalOrder:
    def test_single_node(self):
        net = tp.DagNetwork.from_cover_edges(1, [])
        assert tp.topological_order(net) == [0]

    def test_tie_break_by_id(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 1), (0, 2)])
        assert tp.topological_order(net) == [0, 1, 2]

    def test_figure_dag(self):
        assert tp.topological_order(figure_dag()) == [0, 1, 2, 3, 4, 5]

    def test_permutation_and_edge_order(self):
        net = figure_dag()
        order = tp.topological_order(net)
        assert sorted(order) == list(range(6))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in net.edges)

    def test_one_sort_serves_every_route(self, monkeypatch):
        # construction sorts once; validation, the solver's pass, the block map,
        # sweeps and both path enumerations read the cached order
        calls = []
        kahn = tp._kahn
        monkeypatch.setattr(tp, "_kahn", lambda succ: calls.append(succ) or kahn(succ))
        net = ex.figure_dag()
        system = ex.random_dag_system(3, net, dim=3)
        relax = sv.RelaxationAssignment.uniform(net.node_count)
        assert tp.validate_dag(net) == []
        sv.solve(system, net, relax)
        cf.dag_block_structure(system, net, relax)
        cf.restricted_rho(system, net, np.ones((net.node_count, 3)))
        tp.enumerate_dispersion_paths(net)
        tp.enumerate_updown_paths(net, 0, 1)
        cf.dag_block_p(system, net, relax)
        assert len(calls) == 1
        assert net.schedule.order.tolist() == list(net.order)
        order = tp.topological_order(net)
        order.reverse()  # a copy: the cached order is untouched
        assert tp.topological_order(net) == [0, 1, 2, 3, 4, 5] and net.order == (0, 1, 2, 3, 4, 5)

    def test_one_walk_serves_every_tree_route(self, monkeypatch):
        # a tree walks its levels once, on first use; construction, validation,
        # the solver's pass, the affine map, sweeps and admissibility read them
        calls = []
        kahn = tp._kahn
        monkeypatch.setattr(tp, "_kahn", lambda *args: calls.append(args) or kahn(*args))
        net = seven_node_tree()
        system = ex.random_tree_system(3, net, dim=3)
        relax = sv.RelaxationAssignment.uniform(net.node_count)
        assert tp.validate_tree(net) == []
        sv.solve(system, net, relax)
        cf.tree_affine(system, net, relax)
        cf.restricted_rho(system, net, np.ones((net.node_count, 3)))
        cf.check_admissibility(system, net, tp.root_subtree_partition(net), relax)
        assert len(calls) == 1
        assert net.levels == ((0,), (1, 2), (3, 4, 5, 6, 7))
        assert net.schedule.order.tolist() == list(net.order) == list(range(8))

    def test_order_is_the_levels_one_after_another(self):
        # a walk that always takes the least ready id would take 1 before 2
        net = tp.DagNetwork.from_cover_edges(5, [(0, 1), (2, 3), (1, 4), (3, 4)])
        assert net.levels == ((0, 2), (1, 3), (4,))
        assert tp.topological_order(net) == [0, 2, 1, 3, 4]


class TestUpDownPaths:
    def test_shared_peak(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 2, 0.3, 1.0), (1, 2, 0.7, 1.0)])
        paths = tp.enumerate_updown_paths(net, 0, 1)
        assert len(paths) == 1
        assert paths[0].nodes == (0, 2, 1)
        assert paths[0].weight == pytest.approx(0.3 * 1.0)

    def test_single_node(self):
        net = tp.DagNetwork.from_cover_edges(1, [])
        paths = tp.enumerate_updown_paths(net, 0, 0)
        assert len(paths) == 1
        assert paths[0].nodes == (0,)
        assert paths[0].weight == pytest.approx(1.0)

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            tp.enumerate_updown_paths(figure_dag(), 2, 0)

    def test_matches_cartesian_brute_force(self):
        net = tp.DagNetwork.from_cover_edges(4, [(0, 2), (1, 2), (0, 3)])
        for m1 in (0, 1):
            for m2 in (0, 1):
                got = {p.nodes: p.weight for p in tp.enumerate_updown_paths(net, m1, m2)}
                want = brute_updown_paths(4, net.edges, net.w_d, net.w_p, m1, m2)
                assert set(got) == set(want)
                for nodes, w in want.items():
                    assert got[nodes] == pytest.approx(w)

    def test_matches_dfs_oracle_on_figure_dag(self):
        net = figure_dag()
        for m1 in net.minimal_nodes:
            for m2 in net.minimal_nodes:
                got = {p.nodes: p.weight for p in tp.enumerate_updown_paths(net, m1, m2)}
                want = dfs_updown_paths(6, net.edges, net.w_d, net.w_p, m1, m2)
                assert got == pytest.approx(want)

    def test_fixed_destination_mass_is_one(self):
        net = figure_dag()
        for dest in net.minimal_nodes:
            total = sum(
                p.weight
                for src in net.minimal_nodes
                for p in tp.enumerate_updown_paths(net, src, dest)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_reversed_sequences_exist(self):
        net = figure_dag()
        forward = {p.nodes for p in tp.enumerate_updown_paths(net, 0, 1)}
        backward = {p.nodes for p in tp.enumerate_updown_paths(net, 1, 0)}
        assert {tuple(reversed(nodes)) for nodes in forward} == backward

    def test_enumeration_order_is_lexicographic(self):
        net = figure_dag()
        paths = tp.enumerate_updown_paths(net, 0, 0)
        assert [p.nodes for p in paths] == sorted(p.nodes for p in paths)
        disp, _ = tp.enumerate_dispersion_paths(net)
        keys = [(p.source, p.nodes) for p in disp]
        assert keys == sorted(keys)


class TestMinimalDistanceDiameter:
    def test_single_minimal_node(self):
        net = tp.DagNetwork.from_cover_edges(2, [(0, 1)])
        assert tp.minimal_distance_diameter(net) == 1

    def test_shared_maximal(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)])
        assert tp.minimal_distance_diameter(net) == 1

    def test_two_hop_example(self):
        # minimal nodes 0..3; 0,1 meet at 4 (then 7), 2 meets 3 at 6, 2 reaches 7 via 5
        net = tp.DagNetwork.from_cover_edges(
            8,
            [(0, 4), (1, 4), (2, 5), (2, 6), (3, 6), (4, 7), (5, 7)],
        )
        assert tp.minimal_distance_diameter(net) == 2

    @pytest.mark.parametrize("single_sink", [False, True])
    def test_matches_brute_force_on_random_dags(self, single_sink):
        seen = set()
        for seed in range(150):
            net = ex.random_dag(seed, max_nodes=12, max_minimal=5, single_sink=single_sink)
            diameter = brute_diameter(net)
            assert tp.minimal_distance_diameter(net) == diameter
            seen.add((len(net.minimal_nodes), diameter))
        assert {m for m, _ in seen} == {1, 2, 3, 4, 5}
        assert {d for _, d in seen} == ({1} if single_sink else {1, 2, 3})

    def test_disconnected_distance_graph_raises(self):
        net = tp.DagNetwork.from_cover_edges(5, [(0, 2), (1, 2), (3, 4)])
        for diameter in (tp.minimal_distance_diameter, brute_diameter):
            with pytest.raises(InvalidNetworkError, match="disconnected"):
                diameter(net)


class TestPathCap:
    def test_refuses_just_above_the_cap_before_enumerating(self):
        net = layered_dag(25, 13)  # 25 * 2**12 = 102,400 dispersion paths
        assert 25 * 2**12 > tp.MAX_ENUMERATED_PATHS > 25 * 2**11
        system = sv.LinearSystem(rows=np.ones((net.node_count, 1)), rhs=np.zeros(net.node_count))
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        start = time.perf_counter()
        with pytest.raises(ApplicabilityError, match="102400 dispersion paths"):
            tp.enumerate_dispersion_paths(net)
        with pytest.raises(ApplicabilityError, match="up-down paths"):
            tp.enumerate_updown_paths(net, 0, 0)
        with pytest.raises(ApplicabilityError):
            cf.dag_block_p(system, net, relax)
        assert time.perf_counter() - start < 1.0

    def test_counts_are_exact_at_the_boundary(self, monkeypatch):
        net = layered_dag(3, 5)  # 3 * 2**4 = 48 dispersion paths
        updown = len(tp.enumerate_updown_paths(net, 0, 0))
        monkeypatch.setattr(tp, "MAX_ENUMERATED_PATHS", 48)
        assert len(tp.enumerate_dispersion_paths(net)[0]) == 48
        monkeypatch.setattr(tp, "MAX_ENUMERATED_PATHS", 47)
        with pytest.raises(ApplicabilityError):
            tp.enumerate_dispersion_paths(net)
        monkeypatch.setattr(tp, "MAX_ENUMERATED_PATHS", updown)
        assert len(tp.enumerate_updown_paths(net, 0, 0)) == updown
        monkeypatch.setattr(tp, "MAX_ENUMERATED_PATHS", updown - 1)
        with pytest.raises(ApplicabilityError):
            tp.enumerate_updown_paths(net, 0, 0)


class TestDispersionPaths:
    def test_single_node(self):
        net = tp.DagNetwork.from_cover_edges(1, [])
        paths, w = tp.enumerate_dispersion_paths(net)
        assert len(paths) == 1 and paths[0].nodes == (0,)
        assert w.shape == (1, 1) and w[0, 0] == pytest.approx(1.0)

    def test_two_node_chain(self):
        net = tp.DagNetwork.from_cover_edges(2, [(0, 1)])
        paths, w = tp.enumerate_dispersion_paths(net)
        assert [p.nodes for p in paths] == [(0, 1)]
        assert w[0, 0] == pytest.approx(1.0)

    def test_deep_chain_without_recursion_limit(self):
        n = 1500
        net = tp.DagNetwork.from_cover_edges(n, [(i, i + 1) for i in range(n - 1)])
        paths, w = tp.enumerate_dispersion_paths(net)
        assert [p.nodes for p in paths] == [tuple(range(n))]
        assert w.shape == (1, 1) and w[0, 0] == pytest.approx(1.0)
        (updown,) = tp.enumerate_updown_paths(net, 0, 0)
        assert updown.nodes == tuple(range(n)) + tuple(range(n - 2, -1, -1))

    def test_row_sums_and_support(self):
        rng = np.random.default_rng(23)
        nets = [
            figure_dag(),
            tp.DagNetwork.from_cover_edges(4, [(0, 2), (1, 2), (0, 3)]),
        ]
        for net in nets:
            paths, w = tp.enumerate_dispersion_paths(net)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
            for i, m in enumerate(net.minimal_nodes):
                for j, p in enumerate(paths):
                    descends = m in _descendable(net, p.sink)
                    assert (w[i, j] > 0) == descends

    def test_matches_updown_mass(self):
        # pooled weight w[i, j] equals the summed up-down masses through path j
        net = figure_dag()
        paths, w = tp.enumerate_dispersion_paths(net)
        for i, m in enumerate(net.minimal_nodes):
            for j, p in enumerate(paths):
                mass = 0.0
                for src_idx, src in enumerate(net.minimal_nodes):
                    for ud in tp.enumerate_updown_paths(net, src, m):
                        if ud.nodes[: ud.peak_index + 1] == p.nodes:
                            mass += ud.weight
                assert w[i, j] == pytest.approx(mass, abs=1e-12)


def _descendable(net, start):
    """Nodes reachable by walking cover edges downward from ``start``."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for u in net.predecessors[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen
