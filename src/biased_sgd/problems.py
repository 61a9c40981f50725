"""Synthetic differentiable objectives with known constants (L, mu, f*)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _derive(obj, name: str, fn: Callable) -> None:
    """Set the field `name` of the frozen dataclass `obj` to `fn`, marked
    as derived, unless the field holds a function passed in. A derived
    function, as `dataclasses.replace` copies it, is made again from the
    fields of the copy."""
    given = getattr(obj, name)
    if given is None or getattr(given, "derived", False):
        fn.derived = True
        object.__setattr__(obj, name, fn)


@dataclass(frozen=True)
class Problem:
    """A differentiable objective with exact gradient and known constants.

    `value` and `grad` must agree under central finite differences (see
    `finite_diff_check`); `smoothness_L` is a valid Lipschitz constant of the
    gradient; `pl_mu`, `f_star`, `x_star` are set when known. `value_many`
    and `grad_many` evaluate the rows of an (n, dim) matrix; when a caller
    leaves them out they are derived from `value`/`grad` (`_derive`), so
    every problem has both.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    smoothness_L: float
    pl_mu: Optional[float] = None
    f_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    value_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    default_x0: Optional[np.ndarray] = None

    def __post_init__(self):
        value, grad, dim = self.value, self.grad, self.dim
        _derive(self, "value_many", lambda X: np.array(
            [value(x) for x in X], dtype=float))
        _derive(self, "grad_many", lambda X: np.array(
            [grad(x) for x in X], dtype=float).reshape(len(X), dim))

    def gap(self, x: np.ndarray) -> float:
        """f(x) - f*, falling back to f(x) when the optimum is unknown."""
        v = float(self.value(x))
        return v - self.f_star if self.f_star is not None else v


@dataclass(frozen=True)
class QuadraticProblem(Problem):
    """f(x) = 0.5 * ||A x||^2 with Hessian A^T A."""

    matrix_A: np.ndarray = field(default=None, repr=False)
    hessian: np.ndarray = field(default=None, repr=False)


def _gemm_row(x: np.ndarray, B: np.ndarray) -> np.ndarray:
    # x @ B for one row x, as the first row of a two-row product: numpy
    # hands a one-row product to gemv, which can round differently from
    # gemm, and a gemm row does not depend on the rows beside it
    return (np.concatenate((x, x)) @ B)[:1]


def quadratic_problem(A: np.ndarray, name: str = "quadratic",
                      eigvals: Optional[np.ndarray] = None) -> QuadraticProblem:
    """Least-squares objective 0.5*||Ax||^2 for a dense matrix A (rows >= cols).

    L and mu are the extreme eigenvalues of A^T A; `eigvals` overrides the
    eigensolver when the spectrum is known in closed form.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise ValueError("A must be a 2-D matrix with rows >= columns")
    dim = A.shape[1]
    H = A.T @ A
    AT = np.ascontiguousarray(A.T)  # a C-ordered factor multiplies faster
    if eigvals is None:
        eigvals = np.linalg.eigvalsh(H)
    eigvals = np.sort(np.asarray(eigvals, dtype=float))
    L = float(eigvals[-1])
    mu = float(eigvals[0])

    def value(x: np.ndarray) -> float:
        r = A @ x
        return 0.5 * float(r @ r)

    def grad(x: np.ndarray) -> np.ndarray:
        return H @ x

    def value_many(X: np.ndarray) -> np.ndarray:
        R = X @ AT if X.shape[0] != 1 else _gemm_row(X, AT)
        return 0.5 * np.einsum("ij,ij->i", R, R)

    def grad_many(X: np.ndarray) -> np.ndarray:
        return X @ H if X.shape[0] != 1 else _gemm_row(X, H)  # H symmetric

    # x0 scaled so the initial gap is exactly 1
    v = np.ones(dim) / np.sqrt(dim)
    fv = 0.5 * float((A @ v) @ (A @ v))
    x0 = v / np.sqrt(fv)

    return QuadraticProblem(
        name=name,
        dim=dim,
        value=value,
        grad=grad,
        smoothness_L=L,
        pl_mu=mu if mu > 0 else None,
        f_star=0.0,
        x_star=np.zeros(dim),
        value_many=value_many,
        grad_many=grad_many,
        default_x0=x0,
        matrix_A=A,
        hessian=H,
    )


def make_nesterov_worst(dim: int) -> QuadraticProblem:
    """Ill-conditioned quadratic whose Hessian is tridiag(-1, 2, -1).

    A is the (dim+1) x dim first-difference matrix; the eigenvalues of A^T A
    are 2 - 2*cos(j*pi/(dim+1)), which fix L and mu in closed form.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    A = np.zeros((dim + 1, dim))
    A[0, 0] = 1.0
    for i in range(1, dim):
        A[i, i] = 1.0
        A[i, i - 1] = -1.0
    A[dim, dim - 1] = -1.0
    j = np.arange(1, dim + 1)
    eigvals = 2.0 - 2.0 * np.cos(j * np.pi / (dim + 1))
    return quadratic_problem(A, name=f"nesterov_worst_d{dim}", eigvals=eigvals)


def make_huber_problem() -> Problem:
    """1-D Huber objective: |x| outside [-1, 1], x^2/2 + 1/2 inside.

    Smooth with L = 1 and minimum value 1/2 at x = 0; weakly convex, so no
    PL constant.
    """

    def value(x: np.ndarray) -> float:
        v = float(np.asarray(x).reshape(-1)[0])
        return abs(v) if abs(v) > 1.0 else 0.5 * v * v + 0.5

    def grad(x: np.ndarray) -> np.ndarray:
        v = float(np.asarray(x).reshape(-1)[0])
        return np.array([np.sign(v) if abs(v) > 1.0 else v])

    def value_many(X: np.ndarray) -> np.ndarray:
        v = np.asarray(X, dtype=float).reshape(-1)
        return np.where(np.abs(v) > 1.0, np.abs(v), 0.5 * v * v + 0.5)

    def grad_many(X: np.ndarray) -> np.ndarray:
        v = np.asarray(X, dtype=float).reshape(-1, 1)
        return np.where(np.abs(v) > 1.0, np.sign(v), v)

    return Problem(
        name="huber",
        dim=1,
        value=value,
        grad=grad,
        smoothness_L=1.0,
        pl_mu=None,
        f_star=0.5,
        x_star=np.zeros(1),
        value_many=value_many,
        grad_many=grad_many,
        default_x0=np.array([2.0]),
    )


def finite_diff_check(p: Problem, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between central differences of `value` and `grad`.

    Relative error per coordinate is |cd_i - g_i| / (1 + |g_i|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = p.grad(x)
    worst = 0.0
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        cd = (p.value(x + e) - p.value(x - e)) / (2.0 * h)
        worst = max(worst, abs(cd - g[i]) / (1.0 + abs(g[i])))
    return worst


def scaled_x0(p: Problem, gap: float) -> np.ndarray:
    """Starting point with f(x0) - f* equal to `gap` (quadratics only)."""
    if not isinstance(p, QuadraticProblem):
        raise ValueError("scaled_x0 requires a quadratic problem")
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    v = np.ones(p.dim) / np.sqrt(p.dim)
    fv = p.value(v)
    return v * np.sqrt(gap / fv)
