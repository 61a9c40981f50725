import numpy as np
import pytest

from biased_sgd import (finite_diff_check, make_huber_problem,
                        make_nesterov_worst, quadratic_problem, scaled_x0)
from biased_sgd._rng import stream


def test_nesterov_d2_hessian_by_hand():
    # multiply the 3x2 first-difference matrix out by hand: tridiag(2, -1)
    p = make_nesterov_worst(2)
    assert np.allclose(p.hessian, [[2.0, -1.0], [-1.0, 2.0]], atol=0)
    assert p.matrix_A.shape == (3, 2)


def test_nesterov_d2_unit_vector_value():
    p = make_nesterov_worst(2)
    e1 = np.array([1.0, 0.0])
    assert p.value(e1) == pytest.approx(1.0, abs=1e-15)


def test_nesterov_d10_condition_number():
    p = make_nesterov_worst(10)
    expected = (1 - np.cos(10 * np.pi / 11)) / (1 - np.cos(np.pi / 11))
    assert p.smoothness_L / p.pl_mu == pytest.approx(expected, rel=1e-12)
    assert p.smoothness_L / p.pl_mu == pytest.approx(48.37, rel=1e-3)


def test_nesterov_constants_match_eigensolver():
    for d in (2, 5, 10, 17):
        p = make_nesterov_worst(d)
        eigs = np.linalg.eigvalsh(p.hessian)
        assert p.smoothness_L == pytest.approx(eigs[-1], rel=1e-10)
        assert p.pl_mu == pytest.approx(eigs[0], rel=1e-10)


def test_nesterov_dim_error():
    with pytest.raises(ValueError):
        make_nesterov_worst(1)


def test_smoothness_inequality_sampled():
    rng = stream(7)
    for p in (make_nesterov_worst(10), make_huber_problem()):
        L = p.smoothness_L
        for _ in range(1000):
            x = 10 * rng.standard_normal(p.dim)
            y = 10 * rng.standard_normal(p.dim)
            lhs = p.value(y)
            rhs = p.value(x) + p.grad(x) @ (y - x) + 0.5 * L * ((y - x) @ (y - x))
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_pl_inequality_and_equality_at_min_eigenvector():
    p = make_nesterov_worst(10)
    rng = stream(8)
    for _ in range(200):
        x = 5 * rng.standard_normal(p.dim)
        g = p.grad(x)
        assert g @ g >= 2 * p.pl_mu * p.gap(x) - 1e-12
    # equality is attained on the eigenvector of the smallest eigenvalue
    w, V = np.linalg.eigh(p.hessian)
    v = V[:, 0]
    g = p.grad(v)
    assert g @ g == pytest.approx(2 * p.pl_mu * p.gap(v), rel=1e-10)


def test_gap_nonnegative_when_f_star_known():
    rng = stream(9)
    for p in (make_nesterov_worst(6), make_huber_problem()):
        for _ in range(300):
            x = 10 * rng.standard_normal(p.dim)
            assert p.gap(x) >= -1e-12


def test_huber_values_and_derivatives():
    p = make_huber_problem()
    assert p.value(np.array([0.0])) == 0.5
    assert p.grad(np.array([0.0]))[0] == 0.0
    assert p.value(np.array([2.0])) == 2.0
    assert p.grad(np.array([2.0]))[0] == 1.0
    assert p.value(np.array([-3.0])) == 3.0
    assert p.grad(np.array([-3.0]))[0] == -1.0
    assert p.smoothness_L == 1.0
    assert p.f_star == 0.5
    assert p.pl_mu is None


def test_finite_diff_quadratic_tight():
    p = make_nesterov_worst(10)
    rng = stream(10)
    for _ in range(20):
        x = 3 * rng.standard_normal(10)
        assert finite_diff_check(p, x, 1e-5) < 1e-6


def test_finite_diff_huber():
    p = make_huber_problem()
    assert finite_diff_check(p, np.array([0.5]), 1e-5) < 1e-5
    assert finite_diff_check(p, np.array([2.0]), 1e-5) < 1e-5


def test_finite_diff_matches_grad_generic():
    # central differences agree with grad at relative tolerance 1e-5
    rng = stream(11)
    for p in (make_nesterov_worst(5), make_huber_problem()):
        for _ in range(50):
            x = 2 * rng.standard_normal(p.dim)
            assert finite_diff_check(p, x, 1e-5) < 1e-5


def test_finite_diff_step_validation():
    p = make_huber_problem()
    with pytest.raises(ValueError):
        finite_diff_check(p, np.array([1.0]), 0.0)


def test_quadratic_problem_generic_matrix():
    rng = stream(12)
    A = rng.standard_normal((8, 5))
    p = quadratic_problem(A)
    eigs = np.linalg.eigvalsh(A.T @ A)
    assert p.smoothness_L == pytest.approx(eigs[-1], rel=1e-10)
    assert p.f_star == 0.0
    x = rng.standard_normal(5)
    assert p.value(x) == pytest.approx(0.5 * np.linalg.norm(A @ x) ** 2, rel=1e-12)
    assert np.allclose(p.grad(x), A.T @ (A @ x), rtol=1e-12)


def test_default_x0_has_unit_gap():
    for d in (2, 10, 25):
        p = make_nesterov_worst(d)
        assert p.gap(p.default_x0) == pytest.approx(1.0, rel=1e-12)
        assert p.gap(scaled_x0(p, 3.5)) == pytest.approx(3.5, rel=1e-12)


def test_default_x0_is_the_unit_gap_start_to_the_bit():
    # one rule for both: a library run with x0=None starts where the CLI's
    # x0_gap = 1 run does
    for d in range(2, 60):
        p = make_nesterov_worst(d)
        assert p.default_x0.tobytes() == scaled_x0(p, 1.0).tobytes(), d


def test_vectorized_paths_agree():
    """`value(x)` and `grad(x)` have the bits of `value_many`/`grad_many`
    on the one row x, and of the row holding x in a 7-row batch."""
    rng = stream(13)
    for p in (make_nesterov_worst(10), make_huber_problem()):
        for _ in range(150):  # 1,050 points per problem
            X = 2.0 * rng.standard_normal((7, p.dim))
            vals, grads = p.value_many(X), p.grad_many(X)
            for i, x in enumerate(X):
                value = np.float64(p.value(x)).tobytes()
                grad = p.grad(x).tobytes()
                assert value == p.value_many(x[None])[0].tobytes() == vals[i].tobytes()
                assert grad == p.grad_many(x[None])[0].tobytes() == grads[i].tobytes()
