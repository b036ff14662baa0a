"""One row-space restriction per map and basis, read by every analysis.

``AffineIteration.restriction`` builds ``Q = kron(I_s, q)``, ``R = Q* B Q``
and R's eigenvalues once per basis and keeps the result for the last basis.
``fixed_point``, ``dag_restricted_rho``, ``dag_fixed_point`` and
``eigen_dichotomy_check`` read it.  On random trees and random, single-sink
and layered DAGs with real, complex and rank-deficient rows, each answer is
bit-identical to ``oracles.fresh_restriction``, which restricts and solves
afresh, while the bases on one map alternate between the row basis, the
empty basis, a rotated basis of the same span and a basis of a proper
subspace.  The DAG stationarity conditions, read from the assembled map,
agree with one more kernel push.  Counting tests pin the eigensolves and
kernel pushes of each analysis.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

from distkaczmarz import cli
from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DimensionError, NonContractionError, PreconditionError

from oracles import fresh_restriction, layered_dag, pushed_condition_values

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=15)
SHAPES = ["tree", "random", "single-sink", "layered"]


@st.composite
def cases(draw, shape):
    """A network, a relaxation in (0.1, 1.9), seeded rows of rank ``r <= d`` (real or complex)."""
    seed = draw(st.integers(0, 2**32 - 1))
    if shape == "tree":
        net = ex.random_tree(seed, 1, 20)
    elif shape == "layered":
        net = layered_dag(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    else:
        net = ex.random_dag(seed, max_nodes=12, max_minimal=4, single_sink=shape == "single-sink")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    complex_entries = draw(st.booleans())

    def entries(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_entries else x

    rows = entries(net.node_count, r) @ entries(r, d)
    system = sv.LinearSystem(rows=rows, rhs=entries(net.node_count))
    relax = sv.RelaxationAssignment(rng.uniform(0.1, 1.9, net.node_count))
    return system, net, relax, rng


def interleaved_bases(system, rng):
    """Row basis, empty basis, a rotated row basis, a proper subspace, the row basis again."""
    row = cf.row_space_basis(system)
    k = len(row)
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    rotated = list((np.column_stack(row) @ u).T)
    return [row, [], rotated, row[:-1], row]


def _agree(got, want):
    assert np.array_equal(got, want), (got, want)


@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data())
def test_every_reader_equals_a_fresh_restriction(shape, data):
    system, net, relax, rng = data.draw(cases(shape))
    d = system.ambient_dim
    if shape == "tree":
        it = cf.tree_affine(system, net, relax)
        for basis in interleaved_bases(system, rng):
            rho, fp = fresh_restriction(it.B, it.c, basis, d)
            assert it.restriction(basis).rho == rho
            if fp is None:
                with pytest.raises(NonContractionError):
                    cf.fixed_point(it, basis)
            else:
                _agree(cf.fixed_point(it, basis), fp)
            want, _ = fresh_restriction(it.B, it.c, cf.row_space_basis(system), d)
            assert cf.eigen_dichotomy_check(it, system).rho_restricted == want
        return
    bs = cf.dag_block_structure(system, net, relax)
    b, c = bs.aggregate.B, bs.aggregate.c
    for basis in interleaved_bases(system, rng):
        rho, fp = fresh_restriction(b, c, basis, d, bs.s)
        assert cf.dag_restricted_rho(bs, basis) == rho
        if fp is None:
            with pytest.raises(NonContractionError):
                cf.dag_fixed_point(bs, basis)
        else:
            blocks, _ = cf.dag_fixed_point(bs, basis)
            _agree(np.concatenate(blocks), fp)


@pytest.mark.parametrize("shape", SHAPES[1:])
@SETTINGS
@given(data=st.data())
def test_condition_values_read_from_the_map_equal_a_kernel_push(shape, data):
    system, net, relax, rng = data.draw(cases(shape))
    bs = cf.dag_block_structure(system, net, relax)
    d = system.ambient_dim
    z = rng.standard_normal((bs.s, d)) + 1j * rng.standard_normal((bs.s, d))
    got = np.concatenate(bs.condition_values(list(z)))
    want = np.concatenate(pushed_condition_values(bs, relax.effective(), list(z)))
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.linalg.norm(z))


def test_the_cache_is_not_a_field():
    it = cf.AffineIteration(B=0.5 * np.eye(2), c=np.ones(2))
    before = repr(it)
    res = it.restriction([np.array([1.0, 0.0])])
    assert it.restriction([np.array([1.0, 0.0])]) is res
    assert it.restriction([np.array([0.0, 1.0])]) is not res
    assert [f.name for f in dataclasses.fields(it)] == ["B", "c"]
    assert repr(it) == before
    assert not it.B.flags.writeable and not it.c.flags.writeable
    assert "omega" not in {f.name for f in dataclasses.fields(cf.BlockStructure)}


def test_a_basis_changed_in_place_gets_its_own_restriction():
    it = cf.AffineIteration(B=np.diag([0.5, 0.25]), c=np.ones(2))
    basis = np.array([[1.0, 0.0]], dtype=np.complex128)
    res = it.restriction(basis)
    assert res.rho == 0.5
    basis[0] = [0.0, 1.0]
    assert it.restriction(basis).rho == 0.25
    assert res.rho == 0.5 and not res.R.flags.writeable


def test_a_kept_restriction_is_returned_without_the_orthonormality_check(monkeypatch):
    it = cf.AffineIteration(B=np.diag([0.5, 0.25, 0.125]), c=np.ones(3))
    checked = []
    real = cf._orthonormal
    monkeypatch.setattr(cf, "_orthonormal", lambda q: checked.append(q) or real(q))
    basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    res = it.restriction(basis)
    assert len(checked) == 1
    assert it.restriction([b.copy() for b in basis]) is res
    assert len(checked) == 1
    assert it.restriction(basis[:1]) is not res
    assert len(checked) == 2


def test_a_non_orthonormal_basis_raises_after_a_restriction_was_kept():
    it = cf.AffineIteration(B=np.diag([0.5, 0.25]), c=np.ones(2))
    res = it.restriction([np.array([1.0, 0.0])])
    with pytest.raises(PreconditionError, match="not orthonormal"):
        it.restriction([np.array([2.0, 0.0])])
    with pytest.raises(PreconditionError, match="not orthonormal"):
        it.restriction([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(DimensionError):
        it.restriction([np.array([1.0, 0.0, 0.0])])
    assert it.restriction([np.array([1.0, 0.0])]) is res


class _Counted:
    """Counts calls to ``np.linalg.eig``/``eigvals`` and the kernel's ``__init__``, ``push``, ``affine``."""

    def __init__(self, monkeypatch):
        self.eig = self.init = self.push = self.affine = 0
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, self._count("eig", getattr(np.linalg, name)))
        for key, name in (("init", "__init__"), ("push", "push"), ("affine", "affine")):
            monkeypatch.setattr(sv._Pass, name, self._count(key, getattr(sv._Pass, name)))

    def _count(self, key, fn):
        def wrapped(*args, **kwargs):
            setattr(self, key, getattr(self, key) + 1)
            return fn(*args, **kwargs)

        return wrapped


def test_a_dag_analysis_solves_one_eigenproblem_and_pushes_no_kernel(monkeypatch):
    net = ex.figure_dag()
    system = ex.random_tree_system(3, net, dim=3)
    bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(net.node_count, 1.0))
    basis = cf.row_space_basis(system)
    counted = _Counted(monkeypatch)
    rho = cf.dag_restricted_rho(bs, basis)
    blocks, residual = cf.dag_fixed_point(bs, basis)
    assert rho < 1.0 and len(blocks) == bs.s and np.isfinite(residual)
    assert (counted.eig, counted.push) == (1, 0)


def test_the_limit_study_solves_one_eigenproblem_per_contractive_scale(monkeypatch):
    net = ex.binary7_network()
    system = ex.generate_system(ex.GeneratorSpec("uniform", 7, 7, 3)).system
    relax = sv.RelaxationAssignment.uniform(7, 1.0)
    counted = _Counted(monkeypatch)
    rows = ex.lsq_limit_study(system, net, relax, [1.0, 0.5, 0.25])
    assert all(row.contractive for row in rows)
    assert counted.eig == len(rows)


def _limit_rows_by_solve(system, net, relax, scales):
    """The limit study with one public ``solve`` per scale, which assembles the map again."""
    target = cf.weighted_ls_minimizer(system, net, relax)
    basis = cf.row_space_basis(system)
    rows = []
    for s in scales:
        scaled = relax.scaled(s)
        it = cf.tree_affine(system, net, scaled)
        try:
            fp = cf.fixed_point(it, basis)
        except NonContractionError:
            rows.append(ex.LimitRow(s, float("nan"), 0, False))
            continue
        budget = ex.iteration_budget(it.restriction(basis).rho, target=1e-12)
        config = sv.SolverConfig(max_iterations=budget, step_tolerance=1e-12)
        report = sv.solve(system, net, scaled, config)
        rows.append(ex.LimitRow(s, float(np.linalg.norm(fp - target)), report.iterations_used, True))
    return rows


def test_the_limit_study_assembles_each_contractive_scale_once(monkeypatch):
    """One kernel for the whole study and one assembly per scale; the rows are unchanged."""
    net = ex.binary7_network()
    system = ex.generate_system(ex.GeneratorSpec("uniform", 7, 7, 3)).system
    relax = sv.RelaxationAssignment.uniform(7, 1.0)
    scales = [1.0, 0.5, 0.25]
    want = _limit_rows_by_solve(copy.copy(system), net, relax, scales)  # leaves system cold
    counted = _Counted(monkeypatch)
    rows = ex.lsq_limit_study(system, net, relax, scales)
    assert all(row.contractive for row in rows)
    assert (counted.init, counted.affine) == (1, len(scales))
    assert rows == want


def _same_rows(got, want):
    """Equal rows, a NaN distance equal to a NaN distance."""
    np.testing.assert_equal(*([dataclasses.astuple(r) for r in rows] for rows in (got, want)))


@pytest.mark.parametrize("seed", range(6))
def test_limit_study_rows_equal_one_solve_per_scale(seed):
    """Random trees with complex, rank-deficient or inconsistent rows; ω = 3 does not contract."""
    net = ex.random_tree(seed + 40, max_nodes=8)
    kinds = {"consistent": seed % 2 == 0, "complex_entries": seed % 3 == 0, "rank_deficient": seed % 3 == 1}
    system = ex.random_tree_system(seed, net, dim=3, **kinds)
    relax = sv.RelaxationAssignment.uniform(net.node_count, 3.0)
    scales = [1.0, 0.5, 0.1, 0.02]
    want = _limit_rows_by_solve(system, net, relax, scales)
    _same_rows(ex.lsq_limit_study(system, net, relax, scales), want)


def test_limit_study_rows_equal_one_solve_per_scale_on_the_engine_route():
    net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.5), (0, 2, 0.5)])
    system = ex.random_tree_system(5, net, dim=65, consistent=True)
    relax = sv.RelaxationAssignment.uniform(3, 1.0)
    run = sv._Pass(system, net)
    assert sv.solve_route(len(run.sources), run.dim, run.size) == "engine"
    scales = [1.0, 0.5]
    want = _limit_rows_by_solve(system, net, relax, scales)
    _same_rows(ex.lsq_limit_study(system, net, relax, scales), want)


def test_cli_analyze_solves_two_eigenproblems(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "system": {"generator": {"kind": "uniform", "k": 3, "d": 3, "seed": 4}},
                "network": {
                    "type": "tree",
                    "nodes": 3,
                    "root": 0,
                    "edges": [{"parent": 0, "child": 1}, {"parent": 0, "child": 2}],
                },
                "subnetworks": {"groups": [[1, 2]]},
                "output": {"dir": str(tmp_path / "out"), "format": "csv"},
            }
        )
    )
    counted = _Counted(monkeypatch)
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    assert counted.eig == 2
    report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
    assert len(report["eigenvalues"]) == 3
    assert (tmp_path / "out" / "eigenvalues.csv").exists()
