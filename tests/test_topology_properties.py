"""Property tests of the shared network helpers: weight rule, weight checks, ordering."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from distkaczmarz import topology as tp  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def trees(draw, min_nodes=1):
    """Random recursive tree on shuffled labels, weights omitted."""
    n = draw(st.integers(min_nodes, 20))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n)]
    return tp.TreeNetwork.from_edges(n, label[0], edges)


@st.composite
def relations(draw, connected=False):
    """Strict order relation on shuffled labels; ``connected`` links every node to an earlier one."""
    n = draw(st.integers(2, 12))
    label = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    ranks = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    if connected:
        ranks |= {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    return n, {(label[a], label[b]) for a, b in ranks}


@st.composite
def dags(draw):
    """Connected DAG on the cover pairs of a random relation, weights omitted."""
    n, rel = draw(relations(connected=True))
    return tp.DagNetwork.from_cover_edges(n, sorted(tp.hasse_reduce(rel)))


def _closure(pairs):
    succ = {}
    for u, v in pairs:
        succ.setdefault(u, set()).add(v)
    out = set()
    for u in succ:
        stack = list(succ[u])
        while stack:
            v = stack.pop()
            if (u, v) not in out:
                out.add((u, v))
                stack.extend(succ.get(v, ()))
    return out


def _is_uniform(weights, keys):
    """An empty group, or equal weights that sum to 1."""
    ws = [weights[k] for k in keys]
    return not ws or (len(set(ws)) == 1 and abs(sum(ws) - 1.0) <= tp.WEIGHT_SUM_TOL)


def _kinds(violations):
    return sorted((v.kind, v.where) for v in violations)


@SETTINGS
@given(trees())
def test_omitted_tree_weights_are_uniform_and_valid(net):
    for u, kids in net.children.items():
        assert _is_uniform(net.edge_weight, [(u, v) for v in kids])
    assert tp.validate_tree(net) == []


@SETTINGS
@given(dags())
def test_omitted_dag_weights_are_uniform_and_valid(net):
    for v in range(net.node_count):
        assert _is_uniform(net.w_d, [(u, v) for u in net.predecessors[v]])
        assert _is_uniform(net.w_p, [(v, u) for u in net.successors[v]])
    assert tp.validate_dag(net) == []


@SETTINGS
@given(trees(min_nodes=2), st.data())
def test_tree_weight_checks_name_the_node_or_edge(net, data):
    weights = net.edge_weight
    u = data.draw(st.sampled_from(sorted({a for a, _ in weights})))
    f = data.draw(st.sampled_from([0.25, 0.5, 2.0, 3.0]))
    scaled = [(a, b, w * f if a == u else w) for (a, b), w in weights.items()]
    assert _kinds(tp.validate_tree(tp.TreeNetwork.from_edges(net.node_count, net.root, scaled))) == [
        ("weight-sum", (u,))
    ]
    e = data.draw(st.sampled_from(sorted(weights)))
    negated = [(a, b, -w if (a, b) == e else w) for (a, b), w in weights.items()]
    out = tp.validate_tree(tp.TreeNetwork.from_edges(net.node_count, net.root, negated))
    assert [v.where for v in out if v.kind == "weight"] == [e]


@SETTINGS
@given(dags(), st.data())
def test_dag_weight_checks_name_the_node_or_edge(net, data):
    pooling = data.draw(st.booleans())
    e = data.draw(st.sampled_from(net.edges))
    node = e[0] if pooling else e[1]  # the pooling group is out of u, the dispersion group into v

    def rebuild(change):
        edges = []
        for a, b in net.edges:
            wd, wp = net.w_d[(a, b)], net.w_p[(a, b)]
            if pooling:
                wp = change((a, b), wp)
            else:
                wd = change((a, b), wd)
            edges.append((a, b, wd, wp))
        return tp.validate_dag(tp.DagNetwork.from_cover_edges(net.node_count, edges))

    f = data.draw(st.sampled_from([0.25, 0.5, 2.0, 3.0]))
    scaled = rebuild(lambda k, w: w * f if k[0 if pooling else 1] == node else w)
    assert _kinds(scaled) == [("weight-sum", (node,))]
    negated = rebuild(lambda k, w: -w if k == e else w)
    assert [v.where for v in negated if v.kind == "weight"] == [e]


@SETTINGS
@given(dags())
def test_topological_order_respects_every_edge(net):
    order = tp.topological_order(net)
    assert sorted(order) == list(range(net.node_count))
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in net.edges)


@SETTINGS
@given(relations())
def test_hasse_reduce_ignores_implied_pairs(case):
    _, rel = case
    assert tp.hasse_reduce(_closure(rel)) == tp.hasse_reduce(rel)
