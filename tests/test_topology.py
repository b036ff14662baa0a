import dataclasses

import numpy as np
import pytest

from distkaczmarz import topology as tp
from distkaczmarz.errors import AncestryError, CycleError, InvalidNetworkError, PartitionError

from oracles import brute_cover_pairs, brute_updown_paths, dfs_updown_paths


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


class TestSubnetworks:
    def test_running_example_valid(self):
        net = seven_node_tree()
        part = tp.SubnetworkPartition.of([{1, 3, 4}, {5, 6, 7}])
        assert tp.validate_subnetworks(net, part) == []
        groups = tp.resolve_groups(net, part)
        assert groups[0].gateway == 0
        assert groups[1].gateway == 2
        assert groups[0].leaves == (3, 4)
        assert groups[0].leaf_roots == {3: 1, 4: 1}
        assert groups[1].leaf_roots == {5: 5, 6: 6, 7: 7}
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

    def test_no_unique_gateway_raises(self):
        # 0 -> 1, 1 -> {2, 3}, 2 -> 4, 3 -> 5: {4, 5} has two preceding nodes
        net = tp.TreeNetwork.from_edges(
            6, 0, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.5), (2, 4, 1.0), (3, 5, 1.0)]
        )
        part = tp.SubnetworkPartition.of([{4, 5}])
        with pytest.raises(PartitionError):
            tp.resolve_groups(net, part)
        assert any(v.kind == "gateway" for v in tp.validate_subnetworks(net, part))


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
    return tp.DagNetwork.from_cover_edges(
        6, [(0, 2), (0, 3), (1, 3), (2, 4), (2, 5), (3, 5)], uniform_weights=True
    )


class TestDagNetwork:
    def test_uniform_weights_valid(self):
        net = figure_dag()
        assert tp.validate_dag(net) == []
        assert net.minimal_nodes == (0, 1)
        assert net.maximal_nodes == (4, 5)
        assert net.w_d[(0, 3)] == pytest.approx(0.5)
        assert net.w_p[(0, 2)] == pytest.approx(0.5)

    def test_non_cover_edge_flagged(self):
        net = tp.DagNetwork.from_cover_edges(
            3, [(0, 1), (1, 2), (0, 2)], uniform_weights=True
        )
        assert any(v.kind == "cover" for v in tp.validate_dag(net))

    def test_disconnected_flagged(self):
        net = tp.DagNetwork.from_cover_edges(4, [(0, 1), (2, 3)], uniform_weights=True)
        assert any(v.kind == "connectivity" for v in tp.validate_dag(net))

    def test_bad_weight_sum_flagged(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 2, 0.5, 1.0), (1, 2, 0.4, 1.0)])
        assert any(v.kind == "weight-sum" for v in tp.validate_dag(net))

    def test_cycle_rejected_at_construction(self):
        with pytest.raises(CycleError):
            tp.DagNetwork.from_cover_edges(2, [(0, 1), (1, 0)], uniform_weights=True)

    def test_immutable(self):
        net = figure_dag()
        assert net.minimal_nodes == (0, 1)  # cached properties still work
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.node_count = 99
        assert net.node_count == 6


class TestTopologicalOrder:
    def test_single_node(self):
        net = tp.DagNetwork.from_cover_edges(1, [])
        assert tp.topological_order(net) == [0]

    def test_tie_break_by_id(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 1), (0, 2)], uniform_weights=True)
        assert tp.topological_order(net) == [0, 1, 2]

    def test_figure_dag(self):
        assert tp.topological_order(figure_dag()) == [0, 1, 2, 3, 4, 5]

    def test_permutation_and_edge_order(self):
        net = figure_dag()
        order = tp.topological_order(net)
        assert sorted(order) == list(range(6))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in net.edges)


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
        net = tp.DagNetwork.from_cover_edges(4, [(0, 2), (1, 2), (0, 3)], uniform_weights=True)
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
        net = tp.DagNetwork.from_cover_edges(2, [(0, 1)], uniform_weights=True)
        assert tp.minimal_distance_diameter(net) == 1

    def test_shared_maximal(self):
        net = tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)], uniform_weights=True)
        assert tp.minimal_distance_diameter(net) == 1

    def test_two_hop_example(self):
        # minimal nodes 0..3; 0,1 meet at 4 (then 7), 2 meets 3 at 6, 2 reaches 7 via 5
        net = tp.DagNetwork.from_cover_edges(
            8,
            [(0, 4), (1, 4), (2, 5), (2, 6), (3, 6), (4, 7), (5, 7)],
            uniform_weights=True,
        )
        assert tp.minimal_distance_diameter(net) == 2


class TestDispersionPaths:
    def test_single_node(self):
        net = tp.DagNetwork.from_cover_edges(1, [])
        paths, w = tp.enumerate_dispersion_paths(net)
        assert len(paths) == 1 and paths[0].nodes == (0,)
        assert w.shape == (1, 1) and w[0, 0] == pytest.approx(1.0)

    def test_two_node_chain(self):
        net = tp.DagNetwork.from_cover_edges(2, [(0, 1)], uniform_weights=True)
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
            tp.DagNetwork.from_cover_edges(4, [(0, 2), (1, 2), (0, 3)], uniform_weights=True),
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
