import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz.errors import DimensionError, PreconditionError

from oracles import lstsq_min_norm, null_space_basis


class TestEigenvalues:
    def test_diagonal(self):
        spec = nm.eigenvalues(np.diag([0.5, -0.25]))
        assert sorted(spec.eigenvalues.real) == pytest.approx([-0.25, 0.5])
        assert spec.radius == pytest.approx(0.5)

    def test_rotation_has_imaginary_pair(self):
        # characteristic polynomial lambda^2 + 1 = 0 by hand
        spec = nm.eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        got = sorted(spec.eigenvalues, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-12)
        assert got[1] == pytest.approx(1j, abs=1e-12)
        assert spec.radius == pytest.approx(1.0)

    def test_identity(self):
        spec = nm.eigenvalues(np.eye(3))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert spec.radius == pytest.approx(1.0)

    def test_count_matches_dimension(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        assert nm.eigenvalues(m).eigenvalues.shape == (6,)

    def test_determinant_residual_small(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 5))
        scale = np.abs(np.linalg.det(m))
        for lam in nm.eigenvalues(m).eigenvalues:
            assert abs(np.linalg.det(m - lam * np.eye(5))) <= 1e-8 * max(scale, 1.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            nm.eigenvalues(np.ones((2, 3)))

    def test_hermitian_eigenvalues_real(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        h = a + a.conj().T
        assert np.max(np.abs(nm.eigenvalues(h).eigenvalues.imag)) < 1e-10


class TestRealEigensolver:
    """A matrix or stack with an exactly zero imaginary part goes to the real solver."""

    @pytest.fixture
    def solver_dtypes(self, monkeypatch):
        seen = []
        eigvals = np.linalg.eigvals

        def spy(a):
            seen.append(a.dtype)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        return seen

    @pytest.mark.parametrize("make", [np.eye, lambda n: np.eye(n, dtype=np.complex128)])
    def test_complex128_for_real_input(self, make, solver_dtypes):
        m = make(3) + np.diag([0.5, 1.0], 1)
        assert nm.eigenvalues(m).eigenvalues.dtype == np.complex128
        assert nm._eigvals(np.stack([m, 2 * m])).dtype == np.complex128
        assert nm._eigvals(np.asarray(m, dtype=np.complex128)).dtype == np.complex128
        assert solver_dtypes and all(dt == np.float64 for dt in solver_dtypes)

    def test_conjugate_pairs_are_exact(self, solver_dtypes):
        m = np.array([[0.3, -1.7, 0.2], [1.1, 0.4, -0.5], [0.0, 0.6, -0.9]], dtype=np.complex128)
        vals = nm._eigvals(m)
        pair = vals[np.abs(vals.imag) > 0.1]
        assert len(pair) == 2
        assert pair[0] == np.conj(pair[1])
        assert solver_dtypes == [np.float64]

    def test_tiny_imaginary_part_stays_complex(self, solver_dtypes):
        m = np.diag([2.0, 1.0]).astype(np.complex128)
        m[0, 1] = 1e-300j
        assert nm._eigvals(m).dtype == np.complex128
        assert nm.eigenvalues(m).radius == pytest.approx(2.0)
        assert solver_dtypes == [np.complex128, np.complex128]

    @pytest.mark.parametrize("seed", range(4))
    def test_real_and_complex_paths_agree(self, seed):
        stack = np.random.default_rng(seed).standard_normal((64, 6, 6))
        real = nm._eigvals(stack.astype(np.complex128))
        cplx = np.linalg.eigvals(stack.astype(np.complex128))
        scale = np.linalg.norm(stack, 2, axis=(1, 2))[:, None]
        gap = np.abs(real[:, :, None] - cplx[:, None, :]).min(axis=-1)
        assert np.all(gap <= 1e-12 * scale)
        gap = np.abs(cplx[:, :, None] - real[:, None, :]).min(axis=-1)
        assert np.all(gap <= 1e-12 * scale)

    def test_spectrum_order_is_unchanged(self):
        # eigenvalues 3, 1 +- 1j and -0.5: the exact pair ties on modulus and real part
        m = np.zeros((4, 4))
        m[:2, :2] = [[1.0, -1.0], [1.0, 1.0]]
        m[2:, 2:] = np.diag([-0.5, 3.0])
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
        vals = nm.eigenvalues(q @ m @ q.T).eigenvalues
        assert np.allclose(vals, [3.0, 1 - 1j, 1 + 1j, -0.5], atol=1e-12)
        assert vals[1] == np.conj(vals[2])


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert nm.spectral_radius(np.zeros((3, 3))) == 0.0

    def test_companion_of_quadratic(self):
        # lambda^2 - 3 lambda + 2 factors as (lambda - 1)(lambda - 2)
        companion = [[0.0, -2.0], [1.0, 3.0]]
        assert nm.spectral_radius(companion) == pytest.approx(2.0)

    def test_triangular(self):
        assert nm.spectral_radius([[0.9, 0.1], [0.0, 0.9]]) == pytest.approx(0.9)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = rng.standard_normal((8, 8))
            t = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
            sim = t @ m @ np.linalg.inv(t)
            assert nm.spectral_radius(sim) == pytest.approx(
                nm.spectral_radius(m), rel=1e-8
            )

    def test_unsorted_radius_equals_the_spectrum_s(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 9):
            real = rng.standard_normal((n, n))
            for m in (real, real + 1j * rng.standard_normal((n, n))):
                assert nm.spectral_radius(m) == nm.eigenvalues(m).radius
        with pytest.raises(DimensionError):
            nm.spectral_radius(np.zeros((0, 0)))


class TestGram:
    def test_orthonormal_pair(self):
        g = nm.gram([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(g, np.eye(2))

    def test_hand_computed(self):
        g = nm.gram([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert np.allclose(g, [[1.0, 1.0], [1.0, 2.0]])

    def test_single_vector(self):
        g = nm.gram([np.array([3.0, 4.0])])
        assert np.allclose(g, [[25.0]])

    def test_conjugation_convention(self):
        # G[i, j] = <x_i, x_j> conjugates the second argument
        x = np.array([1.0 + 1.0j, 0.0])
        y = np.array([1.0, 0.0])
        g = nm.gram([x, y])
        assert g[0, 1] == pytest.approx(1.0 + 1.0j)
        assert g[1, 0] == pytest.approx(1.0 - 1.0j)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(6)]
        vals = np.linalg.eigvalsh(nm.gram(vecs))
        assert np.min(vals) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nm.gram([np.ones(2), np.ones(3)])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            nm.gram([])


class TestMinNormSolution:
    def test_symmetric_row(self):
        x = nm.min_norm_solution([[1.0, 1.0]], [2.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_identity(self):
        x = nm.min_norm_solution(np.eye(2), [3.0, 4.0])
        assert np.allclose(x, [3.0, 4.0])

    def test_inconsistent_duplicate_rows(self):
        # minimize (x1 - 0)^2 + (x1 - 1)^2 -> x1 = 0.5, x2 = 0 by minimality
        x = nm.min_norm_solution([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
        assert np.allclose(x, [0.5, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        x = nm.min_norm_solution(np.zeros((2, 3)), [1.0, 2.0])
        assert np.allclose(x, 0.0)

    def test_matches_lstsq_on_random_systems(self):
        rng = np.random.default_rng(21)
        for k, d in [(3, 5), (5, 3), (4, 4), (6, 4)]:
            a = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            if k >= 2:
                a[-1] = 2.0 * a[0]  # force rank deficiency
            b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            assert np.allclose(nm.min_norm_solution(a, b), lstsq_min_norm(a, b), atol=1e-9)

    def test_rank_cut_matches_the_row_space_basis(self):
        # singular values 1 and 1e-6: both above the 1e-10 basis cut
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1e-6, 0.0]])
        b = np.array([1.0, 1e-6])
        assert len(nm.orthonormal_basis(a)) == 2
        assert np.allclose(nm.min_norm_solution(a, b), [1.0, 1.0, 0.0], atol=1e-9)

    def test_result_orthogonal_to_null_space(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((3, 6))
        x = nm.min_norm_solution(a, rng.standard_normal(3))
        for q in null_space_basis(a).T:
            assert abs(np.vdot(q, x)) < 1e-10
        # same conclusion with the null space built from the complement of
        # the conjugated rows (ker A is orthogonal to the a_v)
        for q in nm.orthonormal_complement(list(a.conj()), 6):
            assert abs(np.vdot(q, x)) < 1e-10


class TestOrthonormalBasis:
    def test_normalises(self):
        basis = nm.orthonormal_basis([np.array([2.0, 0.0])])
        assert len(basis) == 1
        assert np.allclose(basis[0], [1.0, 0.0])

    def test_drops_duplicates(self):
        basis = nm.orthonormal_basis([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert len(basis) == 1

    def test_two_vectors_span_plane(self):
        basis = nm.orthonormal_basis([np.array([1.0, 1.0]), np.array([1.0, 0.0])])
        assert len(basis) == 2
        g = nm.gram(basis)
        assert np.max(np.abs(g - np.eye(2))) < 1e-12

    def test_near_kronecker_products(self):
        rng = np.random.default_rng(31)
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(9)]
        basis = nm.orthonormal_basis(vecs)
        g = nm.gram(basis)
        assert np.max(np.abs(g - np.eye(len(basis)))) < 1e-12

    def test_empty_and_zero(self):
        assert nm.orthonormal_basis([]) == []
        assert nm.orthonormal_basis([np.zeros(3)]) == []

    def test_complement(self):
        rows = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        comp = nm.orthonormal_complement(rows, 3)
        assert len(comp) == 1
        assert np.allclose(np.abs(comp[0]), [0.0, 0.0, 1.0])

    @staticmethod
    def rank_deficient(seed, k, d, r):
        """k complex vectors in C^d spanning an r-dimensional subspace."""
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
        span = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
        return mix @ span

    @pytest.mark.parametrize("k, d, r", [(6, 7, 3), (9, 4, 2), (3, 5, 1), (5, 5, 5)])
    def test_complex_rank_deficient(self, k, d, r):
        vecs = self.rank_deficient(k + d + r, k, d, r)
        svals = np.linalg.svd(vecs, compute_uv=False)
        basis = nm.orthonormal_basis(list(vecs))
        assert len(basis) == int(np.sum(svals > 1e-10 * svals[0])) == r
        q = np.column_stack(basis)
        assert np.max(np.abs(q.conj().T @ q - np.eye(r))) < 1e-12
        for v in vecs:
            assert np.linalg.norm(v - q @ (q.conj().T @ v)) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("k, d, r", [(6, 7, 3), (9, 4, 2), (3, 5, 1), (5, 5, 5)])
    def test_complement_completes_the_basis(self, k, d, r):
        vecs = list(self.rank_deficient(k * d * r, k, d, r))
        basis = nm.orthonormal_basis(vecs)
        comp = nm.orthonormal_complement(vecs, d)
        assert len(basis) + len(comp) == d
        q = np.column_stack(basis + comp)
        assert np.max(np.abs(q.conj().T @ q - np.eye(d))) < 1e-12

    def test_array_and_list_of_rows_agree(self):
        vecs = self.rank_deficient(5, 6, 4, 3)
        from_array = nm.orthonormal_basis(vecs)
        from_list = nm.orthonormal_basis(list(vecs))
        assert len(from_array) == len(from_list) == 3
        assert np.allclose(np.array(from_array), np.array(from_list), rtol=0.0, atol=1e-14)
        assert np.allclose(
            np.array(nm.orthonormal_complement(vecs, 4)),
            np.array(nm.orthonormal_complement(list(vecs), 4)),
            rtol=0.0,
            atol=1e-14,
        )

    def test_complement_of_nothing_is_everything(self):
        comp = nm.orthonormal_complement([], 3)
        assert np.allclose(np.column_stack(comp), np.eye(3))

    def test_complement_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            nm.orthonormal_complement([np.ones(2)], 3)


def _figure_dag_blocks():
    net = ex.figure_dag()
    system = ex.random_dag_system(1, net, dim=2)
    return cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(net.node_count, 1.0))


def _dag_ls(basis):
    bs = _figure_dag_blocks()
    return cf.dag_ls_minimizer(bs, np.ones(bs.system.node_count), basis)


# Every route that restricts a map on C^2 to the span of a caller's basis.
RESTRICTIONS = {
    "operator_norm_on_span": lambda basis: nm.operator_norm_on_span(np.eye(2), basis),
    "restrict_to_span": lambda basis: nm.restrict_to_span(np.eye(2), basis),
    "spectral_radius_on_span": lambda basis: nm.spectral_radius_on_span(np.eye(2), basis),
    "fixed_point": lambda basis: cf.fixed_point(
        cf.AffineIteration(B=0.5 * np.eye(2), c=np.ones(2)), basis
    ),
    "dag_restricted_rho": lambda basis: cf.dag_restricted_rho(_figure_dag_blocks(), basis),
    "dag_fixed_point": lambda basis: cf.dag_fixed_point(_figure_dag_blocks(), basis),
    "dag_ls_minimizer": _dag_ls,
}


class TestOperatorNormOnSpan:
    def test_zero_matrix(self):
        basis = [np.array([1.0, 0.0])]
        assert nm.operator_norm_on_span(np.zeros((2, 2)), basis) == 0.0

    def test_scalar_scaling(self):
        basis = [np.array([1.0, 0.0]) / 1.0]
        assert nm.operator_norm_on_span(3.0 * np.eye(2), basis) == pytest.approx(3.0)

    def test_restriction_to_second_axis(self):
        basis = [np.array([0.0, 1.0])]
        assert nm.operator_norm_on_span(np.diag([2.0, 0.5]), basis) == pytest.approx(0.5)

    def test_full_basis_equals_largest_singular_value(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((5, 5))
        basis = [np.eye(5)[i] for i in range(5)]
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        assert nm.operator_norm_on_span(m, basis) == pytest.approx(sigma, abs=1e-9)

    def test_rejects_non_orthonormal(self):
        for restrict in RESTRICTIONS.values():
            with pytest.raises(PreconditionError):
                restrict([np.array([1.0, 1.0])])
            with pytest.raises(PreconditionError):
                restrict(np.array([[0.6, 0.8], [0.8, 0.6]]))

    def test_rejects_wrong_length(self):
        for restrict in RESTRICTIONS.values():
            with pytest.raises(DimensionError):
                restrict([np.array([1.0, 0.0, 0.0])])

    def test_empty_basis(self):
        assert nm.operator_norm_on_span(np.eye(2), []) == 0.0

    def test_empty_basis_gives_the_same_answer_on_every_route(self):
        bs = _figure_dag_blocks()
        assert cf.dag_restricted_rho(bs, []) == 0.0
        assert nm.spectral_radius_on_span(bs.aggregate.B, []) == 0.0
        blocks, _ = cf.dag_fixed_point(bs, [])
        assert len(blocks) == bs.s and not np.any(blocks)
