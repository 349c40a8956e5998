import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled, random_psd
from oracles import quad_form
from wiretap.linalg import (
    LinalgError,
    hermitian_eig,
    numerical_rank,
    psd_project_factor,
    trace_inner,
)

# The first user and eavesdropper covariances of problems/paper_j1.json.
H1, Z1 = bundled(1).H[0], bundled(1).Z[0]


def cubic_roots_hermitian_3x3(a):
    """Characteristic-polynomial oracle: roots of det(A - x I) for Hermitian
    3x3 A via the trigonometric solution of the cubic (no eigen routine)."""
    c2 = -np.trace(a).real
    # sum of principal 2x2 minors
    m01 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    m02 = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    m12 = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    c1 = (m01 + m02 + m12).real
    c0 = -np.linalg.det(a).real
    # depressed cubic t^3 + p t + q with x = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    r = math.sqrt(max(-(p**3) / 27.0, 0.0))
    phi = math.acos(min(1.0, max(-1.0, -q / (2.0 * r)))) if r > 0 else 0.0
    m = 2.0 * math.sqrt(max(-p / 3.0, 0.0))
    roots = [m * math.cos((phi + 2.0 * math.pi * k) / 3.0) - c2 / 3.0 for k in range(3)]
    return sorted(roots)


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        vals, vecs = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        assert np.allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)

    def test_reference_matrix_against_characteristic_polynomial(self):
        vals, _ = hermitian_eig(H1)
        oracle = cubic_roots_hermitian_3x3(H1)
        assert np.allclose(vals, oracle, atol=1e-8)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 5)
        vals, vecs = hermitian_eig(a)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_rejects_non_square(self):
        with pytest.raises(LinalgError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(LinalgError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPsdFactor:
    def test_identity(self):
        b = psd_project_factor(np.eye(3))
        assert np.allclose(b @ b.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        b = psd_project_factor(np.diag([4.0, 1.0]))
        assert np.allclose(b @ b.conj().T, np.diag([4.0, 1.0]), atol=1e-12)

    def test_reference_eavesdropper_covariance(self):
        b = psd_project_factor(Z1)
        assert np.linalg.norm(b @ b.conj().T - Z1) <= 1e-10 * max(1.0, np.linalg.norm(Z1))

    def test_clamps_tiny_negative_eigenvalue(self):
        a = np.diag([1.0, -1e-12])
        b = psd_project_factor(a, tol=1e-9)
        assert np.allclose(b @ b.conj().T, np.diag([1.0, 0.0]), atol=1e-11)

    def test_rejects_indefinite(self):
        with pytest.raises(LinalgError):
            psd_project_factor(np.diag([1.0, -0.5]))


class TestQuadForm:
    def test_basis_vector(self):
        assert quad_form(np.array([1.0, 0.0]), np.diag([5.0, 7.0])) == pytest.approx(5.0)

    def test_uniform_vector_identity(self):
        w = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert quad_form(w, np.eye(2)) == pytest.approx(1.0)

    def test_reference_matrix_against_scalar_expansion(self):
        w = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
        # independent elementwise expansion sum_ij conj(w_i) A_ij w_j
        expect = 0.0 + 0.0j
        for i in range(3):
            for j in range(3):
                expect += np.conj(w[i]) * H1[i, j] * w[j]
        assert abs(expect.imag) < 1e-12
        assert quad_form(w, H1) == pytest.approx(expect.real, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(LinalgError):
            quad_form(np.ones(3), np.eye(2))


class TestTraceInner:
    def test_identity_pair(self):
        assert trace_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_diagonal_pair(self):
        assert trace_inner(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == pytest.approx(11.0)

    def test_reference_matrices_against_elementwise_sum(self):
        expect = sum(
            (H1[m, n] * Z1[n, m]).real for m in range(3) for n in range(3)
        )
        assert trace_inner(H1, Z1) == pytest.approx(expect, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = random_psd(rng, 4), random_psd(rng, 4)
        assert trace_inner(a, b) == pytest.approx(trace_inner(b, a), rel=1e-12)


class TestNumericalRank:
    def test_outer_product(self):
        v = np.array([1.0, 2.0j, -1.0])
        assert numerical_rank(np.outer(v, v.conj())) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_below_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-12]), rel_tol=1e-6) == 1

    def test_full_rank(self):
        assert numerical_rank(np.diag([1.0, 0.5, 0.25])) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_quad_form_equals_trace_inner_of_outer_product(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    lhs = quad_form(w, a)
    rhs = trace_inner(np.outer(w, w.conj()), a)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_eig_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n, scale=float(rng.uniform(0.1, 50.0)))
    vals, vecs = hermitian_eig(a)
    assert np.all(np.diff(vals) >= -1e-12)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_factor_reconstructs_clamped_spectrum(seed):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, 4)
    b = psd_project_factor(a)
    assert np.linalg.norm(b @ b.conj().T - a) <= 1e-8 * max(1.0, np.linalg.norm(a))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
)
def test_rank_invariant_under_unitary_conjugation(seed, rank):
    rng = np.random.default_rng(seed)
    n = 5
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(0.5, 2.0, size=rank)
    a = np.diag(vals).astype(complex)
    # unitary from the eigenvectors of a random Hermitian matrix
    u = hermitian_eig(random_psd(rng, n)).eigenvectors
    conjugated = u @ a @ u.conj().T
    assert numerical_rank(conjugated) == rank
