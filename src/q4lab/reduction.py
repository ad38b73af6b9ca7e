"""Moment recurrences and the reduction chain down to the four-term form.

Multiplying the level cubic H(x, y, h) = 0 by x^i y^{j+1} dx, respectively
x^{i+1} y^j dy, and integrating over the oval yields two five-term
recurrences among the cubic-form moments; their combination eliminates the
h-dependent term and specializes at (i, j) = (-6, 1) to I_{-6,2} = I_{-6,1}.
The same construction for the symmetric cubic gives the tabulated reduction
identities that express I_{1,2} = I_{2,1}, I_{3,0}, I_{0,3} and I_{-1,4}
over the six-moment basis (I00, I10, I01, I11, I-10, I-11).

The generating integral is assembled along four equivalent routes:

  eq22    cubic-form moments of the raw integrand
          x^-6 (mu1 + mu2 y + mu3 y^3 + mu4 (kappa^2 y^4 - x^4))
          after the shift to the (1,1)-centered picture,
  eq28    the same folded with I_{-6,2} = I_{-6,1},
  eq210   symmetric-form moments of
          mu1 x^3 + mu2 x^2 y + mu3 y^3 + mu4 (kappa^2 y^4 - 1)/x,
  eq211   the four-term form
          mu1 h I00 + mu2 I10 + mu3 I01 + mu4 (2 I-10 + 3 kappa h I-11).

Each rewrite silently reparametrizes the weight vector mu; route equality
therefore holds after an explicit linear conversion of mu, implemented here
exactly.  The weights stored on ModelParams are always in the canonical
eq211 stage; every other route converts internally.  With moments taken as
plain positive-measure double integrals the inversion map
(x, y) -> (1/x, y/x) gives cubic I_{i,j}(h) = + symmetric I_{-i-j-3, j}(h):
the classical bookkeeping carries a formal Jacobian sign that the measure
convention absorbs, and :func:`inversion_check` returns the difference that
actually vanishes.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedIndexError
from .model import HamiltonianForm, ModelParams
from .quadrature import MomentIndex, moment_value

CUBIC = HamiltonianForm.CUBIC_FORM
SYM = HamiltonianForm.SYMMETRIC_FORM


@dataclass(frozen=True)
class MomentCombination:
    """A finite linear combination of moments; each term carries a
    polynomial-in-h coefficient stored as ascending power coefficients."""

    terms: tuple[tuple[tuple[float, ...], MomentIndex], ...]

    def evaluate(self, h: float, params: ModelParams, tol: float = 1e-10) -> float:
        total = 0.0
        for coeffs, idx in self.terms:
            w = weigh(coeffs, [h**p for p in range(len(coeffs))])
            total += w * moment_value(idx.i, idx.j, h, params, form=idx.form, tol=tol)
        return total


# ---------------------------------------------------------------------------
# recurrences (cubic form)
# ---------------------------------------------------------------------------

def recurrence_residual(kind: str, i: int, j: int, h: float, params: ModelParams,
                        tol: float = 1e-10) -> float:
    """Left side of the chosen moment recurrence with oracle moment values;
    vanishes up to quadrature error.

    ``eq25`` comes from x^i y^{j+1} dx, ``eq26`` from x^{i+1} y^j dy, and
    ``combined`` is (i+4) eq25 - (j+1) eq26, which drops the I_{i+3,j} term:
    kappa (i+j+5) I_{i,j+3} - (i+j+5) I_{i+2,j+1}
    - (kappa-1)(i+3j+7) I_{i,j+1} + 2 (kappa-1)(j+1) I_{i,j} = 0.
    """
    # a left fold, not sum(): from Python 3.12 sum() compensates float sums
    return functools.reduce(operator.add, _recurrence_terms(kind, i, j, h, params, tol))


def recurrence_scale(kind: str, i: int, j: int, h: float, params: ModelParams,
                     tol: float = 1e-10) -> float:
    """Largest absolute term of the recurrence, for relative residuals."""
    return max(abs(t) for t in _recurrence_terms(kind, i, j, h, params, tol))


def _recurrence_terms(kind: str, i: int, j: int, h: float, params: ModelParams,
                      tol: float) -> list[float]:
    """The signed terms of the recurrence's left side, in its order."""
    k = params.kappa
    M = lambda a, b: moment_value(a, b, h, params, form=CUBIC, tol=tol)
    if kind == "eq25":
        return [(k / 3.0) * (j + 4) * M(i, j + 3), -(j + 2) * M(i + 2, j + 1),
                -h * (j + 1) * M(i + 3, j), -(k - 1.0) * (j + 2) * M(i, j + 1),
                (2.0 / 3.0) * (k - 1.0) * (j + 1) * M(i, j)]
    if kind == "eq26":
        return [(k / 3.0) * (i + 1) * M(i, j + 3), -(i + 3) * M(i + 2, j + 1),
                -h * (i + 4) * M(i + 3, j), -(k - 1.0) * (i + 1) * M(i, j + 1),
                (2.0 / 3.0) * (k - 1.0) * (i + 1) * M(i, j)]
    if kind == "combined":
        return [k * (i + j + 5) * M(i, j + 3), -(i + j + 5) * M(i + 2, j + 1),
                -(k - 1.0) * (i + 3 * j + 7) * M(i, j + 1),
                2.0 * (k - 1.0) * (j + 1) * M(i, j)]
    raise DomainError(f"unknown recurrence kind {kind!r}")


# ---------------------------------------------------------------------------
# reduction identities (symmetric form)
# ---------------------------------------------------------------------------

def moment_reduce(index: MomentIndex, params: ModelParams) -> MomentCombination:
    """Exact reduction of a supported symmetric-form moment over the basis
    {I00, I10, I01, I11, I-10, I-11} with h-polynomial coefficients
    (rational in kappa, hence the params argument).

    Supported indices: (1,2), (2,1), (3,0), (0,3), (-1,4); anything else is
    deliberately rejected rather than solved through recurrence closure.
    """
    if index.form is not SYM:
        raise UnsupportedIndexError("reductions are stated for the symmetric form")
    k = params.kappa
    km = k - 1.0
    B = lambda i, j: MomentIndex(i, j, SYM)
    table = {
        (1, 2): (((0.0, 3.0 / 10.0), B(0, 0)), ((1.0,), B(1, 0)), ((1.0 / 5.0,), B(0, 1))),
        (2, 1): (((0.0, 3.0 / 10.0), B(0, 0)), ((1.0,), B(1, 0)), ((1.0 / 5.0,), B(0, 1))),
        (3, 0): (((0.0, 3.0 * k / (10.0 * km)), B(0, 0)), ((1.0,), B(1, 0)),
                 ((k / (5.0 * km),), B(0, 1))),
        (0, 3): (((0.0, 3.0 * (k + 1.0) / (10.0 * k)), B(0, 0)), ((km / k,), B(1, 0)),
                 (((k + 6.0) / (5.0 * k),), B(0, 1))),
    }
    if (index.i, index.j) in table:
        return MomentCombination(terms=table[(index.i, index.j)])
    if (index.i, index.j) == (-1, 4):
        # I_{-1,4} = (6h/5k) I_{-1,1} + (9/5k^2) I_{-1,0} + (9(k-1)/5k^2) I10
        #            + ((k-1)/k) I_{1,2}, with I_{1,2} expanded over the basis
        base = [
            ((0.0, 6.0 / (5.0 * k)), B(-1, 1)),
            ((9.0 / (5.0 * k * k),), B(-1, 0)),
            ((9.0 * km / (5.0 * k * k),), B(1, 0)),
        ]
        w = km / k
        for coeffs, idx in table[(1, 2)]:
            base.append((tuple(w * c for c in coeffs), idx))
        return MomentCombination(terms=tuple(base))
    raise UnsupportedIndexError(f"no reduction listed for index ({index.i}, {index.j})")


def reduction_residual(index: MomentIndex, h: float, params: ModelParams,
                       tol: float = 1e-10) -> float:
    """lhs - rhs of the reduction identity for one supported index."""
    lhs = moment_value(index.i, index.j, h, params, form=SYM, tol=tol)
    rhs = moment_reduce(index, params).evaluate(h, params, tol=tol)
    return lhs - rhs


def inversion_check(i: int, j: int, h: float, params: ModelParams,
                    tol: float = 1e-10) -> float:
    """Residual of the inversion correspondence between the two pictures:
    cubic-form I_{i,j}(h) minus symmetric-form I_{-i-j-3, j}(h).

    Both moments are positive-measure double integrals, under which the
    correspondence carries a plus sign (the formal Jacobian -x^-3 of the
    involution combines with its orientation reversal); the residual
    vanishes to oracle tolerance.
    """
    a = moment_value(i, j, h, params, form=CUBIC, tol=tol)
    b = moment_value(-i - j - 3, j, h, params, form=SYM, tol=tol)
    return a - b


# ---------------------------------------------------------------------------
# route conversions for the weight vector
# ---------------------------------------------------------------------------

def mu_eq28_from_eq22(mu, kappa: float) -> np.ndarray:
    """Fold of the y-shifted raw integrand onto the eq28 moments, using
    I_{-6,2} = I_{-6,1} to absorb the quadratic term."""
    k2 = kappa * kappa
    m1, m2, m3, m4 = mu
    return np.array([m1 - m2 - m3 + m4 * k2, m2 + 2.0 * m4 * k2, m3 - 4.0 * m4 * k2, m4])


def mu_eq22_from_eq28(mu, kappa: float) -> np.ndarray:
    k2 = kappa * kappa
    t1, t2, t3, t4 = mu
    m4 = t4
    m3 = t3 + 4.0 * m4 * k2
    m2 = t2 - 2.0 * m4 * k2
    m1 = t1 + m2 + m3 - m4 * k2
    return np.array([m1, m2, m3, m4])


def _m_eq211_from_eq210(kappa: float) -> np.ndarray:
    k = kappa
    km = k - 1.0
    return np.array([
        [3.0 * k / (10.0 * km), 3.0 / 10.0, 3.0 * (k + 1.0) / (10.0 * k), 3.0 * k * km / 10.0],
        [1.0, 1.0, km / k, km * (9.0 / 5.0 + k)],
        [k / (5.0 * km), 1.0 / 5.0, (k + 6.0) / (5.0 * k), k * km / 5.0],
        [0.0, 0.0, 0.0, 2.0 / 5.0],
    ])


def mu_eq211_from_eq210(mu, kappa: float) -> np.ndarray:
    return _m_eq211_from_eq210(kappa) @ np.asarray(mu, dtype=float)


def mu_eq210_from_eq211(mu, kappa: float) -> np.ndarray:
    return np.linalg.solve(_m_eq211_from_eq210(kappa), np.asarray(mu, dtype=float))


def mu_G_from_eq211(mu, kappa: float) -> np.ndarray:
    """Weights of G(h) = h I' - I in the normal form
    (nu1 h^2 + nu3) I00' + nu2 I11' + nu4 (-4h I-10' + (3 kappa h^2 - 4) I-11')
    for I given in the eq211 stage; mu may also be a (4, T) array of weight
    columns, each mapped by the same operations."""
    k = kappa
    m1, m2, m3, m4 = mu
    return np.array([
        m1,
        -(2.0 / 3.0) * m2 - 2.0 * (k - 1.0) / (3.0 * k) * m3,
        -(2.0 / (3.0 * k)) * m3,
        m4,
    ])


def I_rows(h, V, kappa: float):
    """The unit rows of I in the eq211 stage, (h I00, I10, I01, 2 I-10 + 3 kappa
    h I-11), V the six basis moments; operators only, for floats, arrays, jets."""
    return h * V[0], V[1], V[2], 2.0 * V[4] + 3.0 * kappa * h * V[5]


def JJ_value(h, V, J2, kappa: float):
    """JJ = -4h I-10' + (3 kappa h^2 - 4) I-11' by rows 1, 4 and 5 of V = B V',
    without the 2x2 solve for I-10', I-11', which divides by 9 kappa h^2 - 4
    (zero at the saddle level)."""
    return 2.0 * (kappa * h * V[5] - V[4]) - 2.0 * (kappa - 1.0) * (V[1] - (2.0 / 3.0) * J2)


def G_rows(h, J1, J2, JJ):
    """The four unit rows of G = L1(I) in the G stage, (h^2 J1, J2, J1, JJ)."""
    return h * h * J1, J2, J1, JJ


def weigh(mu, rows):
    """sum_m mu[m] rows[m], a left fold in a fixed order: no BLAS dot, and the
    same on floats, arrays and jets."""
    return functools.reduce(operator.add, (m * r for m, r in zip(mu, rows)))


ROUTES = ("eq22", "eq28", "eq210", "eq211")


def assemble_I(h: float, params: ModelParams, route: str = "eq211",
               tol: float = 1e-10) -> float:
    """The generating integral I(h) for the canonical (eq211-stage) weights
    stored on ``params``, evaluated through the chosen route.

    All four routes compute the same function of h; each converts the
    canonical weights into its own stage internally.  eq211 is ``weigh``
    of the weights over ``I_rows``, the scanner's rows of I.
    """
    if route not in ROUTES:
        raise DomainError(f"unknown route {route!r}; expected one of {ROUTES}")
    k = params.kappa
    mu211 = np.asarray(params.mu, dtype=float)
    Mc = lambda i, j: moment_value(i, j, h, params, form=CUBIC, tol=tol)
    Ms = lambda i, j: moment_value(i, j, h, params, form=SYM, tol=tol)

    if route == "eq211":
        V = [Ms(0, 0), Ms(1, 0), Ms(0, 1), None, Ms(-1, 0), Ms(-1, 1)]  # no I11
        return weigh(mu211, I_rows(h, V, k))

    mu210 = mu_eq210_from_eq211(mu211, k)
    if route == "eq210":
        m1, m2, m3, m4 = mu210
        return (m1 * Ms(3, 0) + m2 * Ms(2, 1) + m3 * Ms(0, 3)
                + m4 * (k * k * Ms(-1, 4) - Ms(-1, 0)))
    if route == "eq28":
        m1, m2, m3, m4 = mu210  # eq28 and eq210 stages coincide
        return (m1 * Mc(-6, 0) + m2 * Mc(-6, 1) + m3 * Mc(-6, 3)
                + m4 * (k * k * Mc(-6, 4) - Mc(-2, 0)))
    # eq22: unfolded integrand, evaluates I_{-6,2} explicitly
    m1, m2, m3, m4 = mu_eq22_from_eq28(mu210, k)
    k2 = k * k
    c0 = m1 - m2 - m3 + m4 * k2
    c1 = m2 + 3.0 * m3 - 4.0 * m4 * k2
    c2 = -3.0 * m3 + 6.0 * m4 * k2
    c3 = m3 - 4.0 * m4 * k2
    return (c0 * Mc(-6, 0) + c1 * Mc(-6, 1) + c2 * Mc(-6, 2) + c3 * Mc(-6, 3)
            + m4 * (k2 * Mc(-6, 4) - Mc(-2, 0)))
