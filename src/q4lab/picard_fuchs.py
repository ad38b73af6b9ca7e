"""The six-equation Picard-Fuchs system and everything derived from it.

The six basic symmetric-form moments V = (I00, I10, I01, I11, I-10, I-11)
satisfy V = B(h) V' with the 6x6 matrix

    I00  = (3h/2) I00' + I01'
    I10  = h I10' + (2/3) I11'
    I01  = (2/(3k)) I00' + h I01' + (2(k-1)/(3k)) I11'
    I11  = (3h/8) I00' + (1/2) I10' + (1/4) I01' + (3h/4) I11'
    I-10 = 3h I-10' + 2 I-11'
    I-11 = ((k-1)/k) I10' + (1/k) I-10' + (3h/2) I-11'

so V' = B(h)^{-1} V is a linear ODE in h whose coefficient matrix is regular
exactly away from the critical levels: det B = (3h-2)(3h+2)(9kh^2-4)^2 /
(144 k^2).  ``pf_solve`` applies B(h)^{-1} in closed form, and derivatives
of any order follow from the Taylor recursion (n+1) B v_{n+1} = (1 - n B') v_n
of the closed ODE, never by finite differences (FD appears only in
cross-check tests).

The moments across the annulus come by two independent routes from the
same quadrature oracle value at the window midpoint: ``MomentBasis``
(J = (I00', I11') in closed form, V from exact Taylor expansions of
V = B V'), which the bound pipeline uses, and ``PFPropagation`` (DOP853),
kept as the check.  The other moments have no closed form of that kind:
I10' is not a polynomial combination of J1 and J2, nor is JJ modulo the
kernel of L2 (``MomentBasis``).

Also here: the derived 2x2 second-order system for (J1, J2) =
(I00', I11'), the closed-form second/third derivative formulas,
the operators L1 = h d/dh - 1 and
L2 = 5 kappa h - (9 kappa h^2 - 8) d/dh + h (9 kappa h^2 - 4) d^2/dh^2,
the hypergeometric change of variable s = (9 kappa / 4) h^2, J and the
Kummer pair of L2 as 2F1 functions of s, and analytic continuation of
J = (J1, J2) with a fundamental matrix along paths in the complex s-plane
(the system 6 (s-1)(s-kappa) dJ/ds = N(s) J).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import hyp2f1

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DomainError,
    PathProximityError,
    SingularityError,
)
from .model import ModelParams, h_from_s, make_params, s_from_h
from .quadrature import basis_values

SINGULAR_GAP = 1e-10  # distance in h to a critical level within which V' is refused
# Both moment routes span the annulus less WINDOW_MARGIN at each end and start
# from one quadrature oracle call at its midpoint, so they share its cache.
WINDOW_MARGIN = 1e-8
ORACLE_TOL = 1e-10
PROPAGATION_TOL = 1e-12  # PFPropagation's DOP853 rtol


@dataclass(frozen=True)
class PFVector:
    """The six basic integrals and their h-derivatives at one level."""

    h: float
    values: np.ndarray
    derivs: np.ndarray


def pf_matrix(h: float, params: ModelParams) -> np.ndarray:
    k = params.kappa
    return np.array([
        [1.5 * h, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, h, 0.0, 2.0 / 3.0, 0.0, 0.0],
        [2.0 / (3.0 * k), 0.0, h, 2.0 * (k - 1.0) / (3.0 * k), 0.0, 0.0],
        [3.0 * h / 8.0, 0.5, 0.25, 0.75 * h, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 3.0 * h, 2.0],
        [0.0, (k - 1.0) / k, 0.0, 0.0, 1.0 / k, 1.5 * h],
    ])


# dB/dh: B is affine in h, and kappa enters only B(0)
_B_PRIME = pf_matrix(1.0, make_params(2.0)) - pf_matrix(0.0, make_params(2.0))


def pf_residuals(pf: PFVector, params: ModelParams) -> np.ndarray:
    """Residual of each of the six equations, values - B(h) @ derivs."""
    return pf.values - pf_matrix(pf.h, params) @ pf.derivs


def _split(x):  # Veltkamp: x = hi + lo, halves of 26 bits
    hi = 134217729.0 * x - (134217729.0 * x - x)
    return hi, x - hi


def _two_product(a, b):  # Dekker: p + e = a b exactly
    (ah, al), (bh, bl), p = _split(a), _split(b), a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _denominators(h, ck):
    """(3h - 2)(3h + 2) and 9 kappa h^2 - 4, ck = _two_product(2.25, kappa), the
    factors of det B, compensated: 3h = p + e exactly, then (p -+ 2) + e."""
    p, e = _two_product(3.0, h)
    return ((p - 2.0) + e) * ((p + 2.0) + e), 4.0 * _s_minus_one(h, ck)


def _solve_factored(h, v, kappa: float, d1, d2):
    """B(h)^{-1} v given (d1, d2) = ``_denominators(h, kappa)``, by B's
    blocks: rows 1 and 3 over d1, row 0 over d2, row 2 from row 0 of B, and
    the (I-10, I-11) block, coupled to I10', over d2."""
    k = kappa
    v0, v1, v2, v3, v4, v5 = v
    x1 = (2.0 * v0 + 9.0 * h * v1 - 8.0 * v3) / d1
    x3 = (12.0 * h * v3 - 3.0 * h * v0 - 6.0 * v1) / d1
    x0 = (6.0 * k * (h * v0 - v2) + 4.0 * (k - 1.0) * x3) / d2
    x2 = v0 - 1.5 * h * x0
    x4 = (3.0 * k * h * v4 - 4.0 * k * v5 + 4.0 * (k - 1.0) * x1) / d2
    x5 = (6.0 * k * h * v5 - 2.0 * v4 - 6.0 * (k - 1.0) * h * x1) / d2
    return x0, x1, x2, x3, x4, x5


def pf_solve(h, v, kappa: float):
    """B(h)^{-1} v in closed form, a tuple of six floats (h a float) or of six
    rows (h n levels, v six rows), with the same bits level by level.  Next to
    the center it keeps full precision; next to the saddle B^{-1} has a pole
    where V' has only a log singularity, so a loss of cond(B) eps is inherent."""
    return _solve_factored(h, v, kappa, *_denominators(h, _two_product(2.25, kappa)))


def _check_regular(h, kappa: float):
    """SingularityError when h (or a level of an array) lies within SINGULAR_GAP
    of a root of 9 a^2 h^2 - 4, a = 1 or sqrt(kappa), by the compensated factors."""
    d1, d2 = _denominators(h, _two_product(2.25, kappa))
    a = math.sqrt(kappa)
    gap = np.ravel(np.minimum(abs(d1) / (3.0 * (3.0 * abs(h) + 2.0)),
                              abs(d2) / (3.0 * a * (3.0 * a * abs(h) + 2.0))))
    i = np.argmin(gap >= SINGULAR_GAP)  # the first level refused, NaN included
    if not gap[i] >= SINGULAR_GAP:
        raise SingularityError(f"Picard-Fuchs matrix singular at h={float(np.ravel(h)[i])}: "
                               f"{gap[i]:.3e} from a critical level")


def _taylor(c: float, v, kappa: float, order: int, r: float = 1.0) -> list:
    """a_n = v_n r^n, n <= order: the Taylor coefficients v_n of V about the
    level c, from (n + 1) B(c) v_{n+1} = (1 - n B') v_n (B is affine in h),
    in plain floats summed in a fixed order, so no BLAS kernel moves a bit."""
    d1, d2 = _denominators(c, _two_product(2.25, kappa))
    b_prime = [(i, j, float(b)) for (i, j), b in np.ndenumerate(_B_PRIME) if b]
    a = [[float(x) for x in v]]
    for n in range(order):
        w = list(a[n])
        for i, j, b in b_prime:
            w[i] -= n * b * a[n][j]
        a.append([r / (n + 1) * x for x in _solve_factored(c, w, kappa, d1, d2)])
    return a


def pf_derivatives(h, values, params: ModelParams) -> np.ndarray:
    """V' = B(h)^{-1} V at a level, or (6, n) at n levels; SingularityError
    within SINGULAR_GAP of a critical level."""
    _check_regular(h, params.kappa)
    return np.array(pf_solve(h, np.asarray(values, dtype=float), params.kappa))


class PFPropagation:
    """Dense propagation of the six moments across a window, initialized
    from the quadrature oracle at the window midpoint (both window endpoints
    are singular levels, the midpoint is maximally conditioned).

    Provides pointwise values and derivatives up to order three (``derivs``,
    ``chain``), for vectorized evaluation on level grids.  B^{-1} has a pole
    at both window ends (cond(B) reaches 1e7 within 1e-6 of the window of an
    end), so DOP853's error in V is magnified there: J at the bound scanner's
    end nodes is 1e-10 to 5e-10 off at kappa 1.5, 4 and 9.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        hc, hs = params.center_h, params.saddle_h
        self.lo, self.hi = hc + WINDOW_MARGIN, hs - WINDOW_MARGIN
        if not (hc < self.lo < self.hi < hs):
            raise DomainError("PFPropagation window must sit inside the annulus interval")
        self.h_mid = 0.5 * (self.lo + self.hi)
        self.v_mid = basis_values(self.h_mid, params, tol=ORACLE_TOL)
        k, ck = params.kappa, _two_product(2.25, params.kappa)  # once, not per call
        rhs = lambda hh, v: _solve_factored(float(hh), v.tolist(), k, *_denominators(float(hh), ck))
        kw = dict(method="DOP853", rtol=PROPAGATION_TOL, dense_output=True,
                  atol=1e-3 * PROPAGATION_TOL * np.max(np.abs(self.v_mid)))
        self._left = solve_ivp(rhs, (self.h_mid, self.lo), self.v_mid, **kw)
        self._right = solve_ivp(rhs, (self.h_mid, self.hi), self.v_mid, **kw)
        if not (self._left.success and self._right.success):
            raise ConvergenceError("dense propagation failed")

    def values(self, h):
        h = np.asarray(h, dtype=float)
        scalar = h.ndim == 0
        hv = np.atleast_1d(h)
        if np.any((hv < self.lo - 1e-12) | (hv > self.hi + 1e-12)):
            raise DomainError("level outside the propagated window")
        out = np.empty((6, hv.size))
        left = hv <= self.h_mid
        if np.any(left):
            out[:, left] = self._left.sol(hv[left])
        if np.any(~left):
            out[:, ~left] = self._right.sol(hv[~left])
        return out[:, 0] if scalar else out

    def derivs(self, h):
        """The primed six-vector at a scalar level, or (6, n) at n levels,
        each level's bits those of ``pf_derivatives`` at that level alone."""
        return pf_derivatives(h, self.values(h), self.params)

    def chain(self, h: float):
        """(V', V'', V''') at h: the n! v_n, n = 1, 2, 3, of ``_taylor``."""
        h, k = float(h), self.params.kappa
        _check_regular(h, k)
        a = _taylor(h, self.values(h), k, 3)
        return tuple(math.factorial(n) * np.array(a[n]) for n in (1, 2, 3))


SERIES_ORDER = 40     # Taylor terms kept per expansion
SERIES_STEP = 0.4     # continuation step, as a fraction of the convergence radius
ROW_CHECK_TOL = 1e-8  # rows 2 and 3 of V = B V' against closed-form J


class MomentBasis:
    """The six moments across the same window as ``PFPropagation``, with no
    ODE solver: J = (I00', I11') in closed form (``hypergeometric_J`` at
    s = ``s_from_h(h)``) and the values V from Taylor expansions of V = B V'.

    B is affine in h, so the Taylor coefficients of V about a center c follow
    exactly from (n+1) B(c) v_{n+1} = (1 - n B') v_n.  Each series converges
    out to the nearest critical level; the expansions are continued from
    the quadrature oracle at the window midpoint (the call ``PFPropagation``
    makes) to both window ends in steps of ``SERIES_STEP`` of that radius,
    and a level is summed about the center nearest in those units (at most
    a quarter of a radius away).  The other four derivatives follow from
    rows 0, 1, 4 and 5 of V = B V' with J in closed form; rows 2 and 3 are
    checked at the midpoint and at both ends, and a residual above
    ``ROW_CHECK_TOL`` raises ConsistencyError.

    The series stand in for closed forms that do not exist: I10' is not
    p J1 + q J2, nor JJ that plus a solution of L2 x = 0, for polynomials
    p, q (exact linear algebra over ``tests/ratfunc.py``, degree 10 at kappa = 4;
    tests/test_melnikov.py::TestNoClosedFormBeyondJ).
    """

    def __init__(self, params: ModelParams):
        self.params = params
        hc, hs = params.center_h, params.saddle_h
        self.lo, self.hi = hc + WINDOW_MARGIN, hs - WINDOW_MARGIN
        if not (hc < self.lo < self.hi < hs):
            raise DomainError("MomentBasis window must sit inside the annulus interval")
        self.h_mid = 0.5 * (self.lo + self.hi)
        root_k = math.sqrt(params.kappa)
        self._critical = np.array([-2.0 / 3.0, 2.0 / 3.0, -2.0 / (3.0 * root_k),
                                   2.0 / (3.0 * root_k)])
        mid = self._expand(self.h_mid, basis_values(self.h_mid, params, tol=ORACLE_TOL))
        chain = self._continue(mid, self.lo)[::-1] + [mid] + self._continue(mid, self.hi)
        c = np.array([e[0] for e in chain])
        r = np.array([e[1] for e in chain])
        self._centers, self._radii = c, r
        self._coef = np.stack([e[2].T for e in chain])  # (centers, 6, order + 1)
        # each level goes to the center nearest in units of its radius
        self._breaks = (c[:-1] * r[1:] + c[1:] * r[:-1]) / (r[:-1] + r[1:])
        for h in (self.lo, self.h_mid, self.hi):
            self._check_rows(h)

    def _expand(self, c: float, v):
        """(c, r, a): the scaled Taylor coefficients a_n = v_n r^n, n <= order,
        of V about c, with r the distance from c to the nearest critical level."""
        r = float(np.min(np.abs(self._critical - c)))
        return c, r, np.array(_taylor(c, v, self.params.kappa, SERIES_ORDER, r))

    def _continue(self, start, end: float) -> list:
        """Expansions from ``start`` toward ``end`` until one covers it, each
        started from the last one summed by add.reduce, not a BLAS gemv."""
        powers = np.arange(SERIES_ORDER + 1)
        c, r, a = start
        step = math.copysign(SERIES_STEP, end - c)
        out = []
        while abs(end - c) > SERIES_STEP / (2.0 - SERIES_STEP) * r:
            c, r, a = self._expand(c + step * r, np.add.reduce(step ** powers[:, None] * a))
            out.append((c, r, a))
        return out

    def _levels(self, h):
        h = np.asarray(h, dtype=float)
        hv = np.atleast_1d(h)
        if not self.lo - 1e-12 <= hv.min() <= hv.max() <= self.hi + 1e-12:
            raise DomainError("level outside the expanded window")
        return h.ndim == 0, hv

    def values(self, h):
        """V at a scalar level, shape (6,), or at n levels, shape (6, n).
        Each level's sum is formed alone, so a level's values do not depend
        on the other levels in the call."""
        scalar, hv = self._levels(h)
        out = np.empty((6, hv.size))
        powers = np.arange(SERIES_ORDER + 1)
        for a in range(0, hv.size, 64):  # caps the (levels, 6, order + 1) temporary
            block = hv[a:a + 64]
            i = np.searchsorted(self._breaks, block)
            terms = self._coef[i]  # a gathered copy
            terms *= (((block - self._centers[i]) / self._radii[i])[:, None] ** powers)[:, None, :]
            out[:, a:a + 64] = terms.sum(axis=-1).T
        return out[:, 0] if scalar else out

    def taylor(self, h, e, absolute: bool = False) -> np.ndarray:
        """V, V' and V'' of expansion e (an index per level) at the levels h,
        shape (3, 6, n): the polynomials that ``values`` sums, differentiated
        term by term.  With ``absolute``, every term is taken in modulus, so
        the result bounds |V^(k)| of that expansion wherever |h - c| <= |h_i - c|."""
        n = np.arange(SERIES_ORDER + 1)
        r = self._radii[e]
        t = (np.asarray(h, dtype=float) - self._centers[e]) / r
        coef = np.abs(self._coef[e]) if absolute else self._coef[e]
        tp = np.vander(np.abs(t) if absolute else t, n.size, increasing=True)
        out = np.empty((3, 6, t.size))
        for k, f in enumerate((np.ones(n.size), n, n * (n - 1.0))):
            out[k] = (coef[:, :, k:] @ (tp[:, :n.size - k] * f[k:])[:, :, None])[..., 0].T / r ** k
        return out

    def J(self, h):
        """(J1, J2) in closed form, shape (2,) or (2, n)."""
        scalar, hv = self._levels(h)
        out = hypergeometric_J(s_from_h(hv, self.params), self.params)
        return out[:, 0] if scalar else out

    def JJ(self, h, J2=None):
        """-4h I-10' + (3 kappa h^2 - 4) I-11' from rows 1, 4 and 5 of
        V = B V': 2 (kappa h I-11 - I-10) - 2 (kappa - 1)(I10 - (2/3) J2).
        The 2x2 solve for I-10', I-11' would divide by 9 kappa h^2 - 4, which
        vanishes at the saddle level; this form does not."""
        k = self.params.kappa
        V = self.values(h)
        J2 = self.J(h)[1] if J2 is None else J2
        return 2.0 * (k * h * V[5] - V[4]) - 2.0 * (k - 1.0) * (V[1] - (2.0 / 3.0) * J2)

    def derivs(self, h):
        """V' at a scalar level, shape (6,), or at n levels, shape (6, n):
        J in closed form, I10' and I01' from rows 1 and 0 of V = B V', and
        (I-10', I-11') from the 2x2 block of rows 4 and 5."""
        k = self.params.kappa
        h = np.asarray(h, dtype=float)
        V, (J1, J2) = self.values(h), self.J(h)
        d10 = (V[1] - (2.0 / 3.0) * J2) / h
        d01 = V[0] - 1.5 * h * J1
        rhs = V[5] - (k - 1.0) / k * d10
        det = 4.5 * h * h - 2.0 / k
        return np.stack([J1, d10, d01, J2, (1.5 * h * V[4] - 2.0 * rhs) / det,
                         (3.0 * h * rhs - V[4] / k) / det])

    def _check_rows(self, h: float):
        B = pf_matrix(h, self.params)
        v, d = self.values(h), self.derivs(h)
        for row in (2, 3):
            terms = np.append(B[row] * d, v[row])
            res = abs(v[row] - B[row] @ d) / np.max(np.abs(terms))
            if not res <= ROW_CHECK_TOL:
                raise ConsistencyError(
                    f"row {row} of V = B V' misses by {res:.3e} (relative) at h={h}: "
                    f"the moment series and closed-form J disagree")


# ---------------------------------------------------------------------------
# closed-form derivative formulas for (J1, J2) = (I00', I11')
# ---------------------------------------------------------------------------

def derivative_formulas(order: str, h: float, J1: float, J2: float,
                        params: ModelParams) -> np.ndarray:
    """The closed rational expressions for (I00'', I11'') or
    (I00''', I11''') in terms of (J1, J2) = (I00', I11')."""
    _check_regular(h, params.kappa)
    k = params.kappa
    d1 = 9.0 * h * h - 4.0
    d2 = 9.0 * k * h * h - 4.0
    if order == "second":
        i200 = (-3.0 * h * d2 * J1 + 12.0 * (k - 1.0) * h * J2) / (d1 * d2)
        i211 = (-3.0 * h * J1 + 3.0 * h * J2) / d1
        return np.array([i200, i211])
    if order == "third":
        i300 = ((324.0 * k * h**4 + (72.0 * k - 108.0) * h * h - 48.0) / (d1 * d1 * d2) * J1
                - 12.0 * (k - 1.0) * (243.0 * k * h**4 - 36.0 * (k + 1.0) * h * h - 16.0)
                / (d1 * d1 * d2 * d2) * J2)
        i311 = ((27.0 * h * h + 12.0) / (d1 * d1) * J1
                - (162.0 * k * h**4 + (144.0 * k - 108.0) * h * h - 48.0) / (d1 * d1 * d2) * J2)
        return np.array([i300, i311])
    raise DomainError(f"order must be 'second' or 'third', got {order!r}")


def pfs_residuals(h: float, J1: float, J2: float, I200: float, I211: float,
                  params: ModelParams) -> np.ndarray:
    """Residuals of the closed 2x2 second-order system for (J1, J2):
    -3 kappa h J1 = (9 kappa h^2 - 4) I00'' - 4 (kappa - 1) I11''
    -3 kappa h J2 = (9 kappa h^2 - 4) (I00'' - I11'')."""
    k = params.kappa
    d2 = 9.0 * k * h * h - 4.0
    return np.array([
        -3.0 * k * h * J1 - (d2 * I200 - 4.0 * (k - 1.0) * I211),
        -3.0 * k * h * J2 - d2 * (I200 - I211),
    ])


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def apply_L1(I_value: float, I_prime: float, h: float) -> float:
    """L1 = h d/dh - 1."""
    return h * I_prime - I_value


def apply_L2(g: float, g1: float, g2: float, h: float, params: ModelParams) -> float:
    """L2 = 5 kappa h - (9 kappa h^2 - 8) d/dh + h (9 kappa h^2 - 4) d^2/dh^2."""
    k = params.kappa
    return (5.0 * k * h * g - (9.0 * k * h * h - 8.0) * g1
            + h * (9.0 * k * h * h - 4.0) * g2)


# ---------------------------------------------------------------------------
# closed forms: J = (I00', I11') and the Kummer pair of L2
# ---------------------------------------------------------------------------

def hypergeometric_J(s, params: ModelParams) -> np.ndarray:
    """J = (J1, J2) = (I00', I11') at real or complex s off the cut (-inf, 1]:

        J1 = c 2F1(1/6, 5/6; 1; z),
        J2 = w J1 + (5/6) c z 2F1(5/6, 1/6; 2; z),

    with c = pi / sqrt(kappa - 1), w = (s - 1) / (kappa - 1) and z = 1 - w;
    returns a (2, n) array.  J2 is (6 (s - 1)(s - kappa) J1' + (s - 1) J1) /
    (kappa - 1) with J1' = -(5/36) c / (kappa - 1) 2F1(7/6, 11/6; 2; z) turned
    by Euler's transformation 2F1(7/6, 11/6; 2; z) = 2F1(5/6, 1/6; 2; z) / w
    (DLMF 15.8.1), so J2 keeps its digits next to the saddle (z -> 1) and
    around the keyhole.  Real levels h enter as s = ``s_from_h(h, params)``."""
    k = params.kappa
    s = np.atleast_1d(np.asarray(s))
    w = (s - 1.0) / (k - 1.0)
    z = 1.0 - w
    c = math.pi / math.sqrt(k - 1.0)
    J1 = c * hyp2f1(1.0 / 6.0, 5.0 / 6.0, 1.0, z)
    J2 = w * J1 + (5.0 / 6.0) * c * z * hyp2f1(5.0 / 6.0, 1.0 / 6.0, 2.0, z)
    return np.array([J1, J2])


def _s_minus_one(h, ck):
    """s - 1 = (9 kappa / 4) h^2 - 1 at the double h, ck = _two_product(2.25, kappa),
    compensated so that no digits cancel near the saddle (s = 1)."""
    (c, c_err), (hh, hh_err) = ck, _two_product(h, h)
    s, s_err = _two_product(c, hh)
    return (s - 1.0) + (s_err + c * hh_err + c_err * hh)


def _l2_kummer_pair(h, kappa: float) -> np.ndarray:
    """[[u1, u2], [u1', u2']] along the levels h, shape (2, 2, n): in
    s = (9 kappa / 4) h^2, L2 is Gauss's equation with (a, b, c) =
    (-1/6, -5/6, -1/2), and u1 = 2F1(-1/6, -5/6; 1/2; 1 - s), u2 = sqrt(s - 1)
    2F1(-1/3, 1/3; 3/2; 1 - s) is its Kummer pair at s = 1, real for s > 1
    (left of the saddle level).  ' is d/dh, with ds/dh = 9 kappa h / 2."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    sm1 = _s_minus_one(h, _two_product(2.25, kappa))
    w = -sm1
    r = np.sqrt(sm1)
    f2 = hyp2f1(-1.0 / 3.0, 1.0 / 3.0, 1.5, w)
    du1 = -(5.0 / 18.0) * hyp2f1(5.0 / 6.0, 1.0 / 6.0, 1.5, w)
    du2 = 0.5 * f2 / r + (2.0 / 27.0) * r * hyp2f1(2.0 / 3.0, 4.0 / 3.0, 2.5, w)
    dsdh = 4.5 * kappa * h
    return np.array([[hyp2f1(-1.0 / 6.0, -5.0 / 6.0, 0.5, w), r * f2],
                     [du1 * dsdh, du2 * dsdh]])


# ---------------------------------------------------------------------------
# the 2x2 hypergeometric-type system in s and complex continuation
# ---------------------------------------------------------------------------

@dataclass
class JState:
    """(J1, J2) = (I00', I11') as functions of s, with a 2x2 fundamental
    matrix W whose columns are two independent solutions (the first column
    is J itself); det W is an exact constant of the system."""

    s: complex
    J: np.ndarray
    W: np.ndarray

    @property
    def det_W(self) -> complex:
        return self.W[0, 0] * self.W[1, 1] - self.W[0, 1] * self.W[1, 0]


def pfs2_matrix(s, kappa: float):
    """A(s) with dJ/ds = A(s) J, i.e. N(s) / (6 (s-1)(s-kappa))."""
    one = np.ones_like(np.asarray(s))
    N = np.array([[1.0 - s, (kappa - 1.0) * one], [1.0 - s, s - 1.0]])
    return N / (6.0 * (s - 1.0) * (s - kappa))


def initial_jstate(s0: float, params: ModelParams) -> JState:
    """JState at a real s0 in (1, kappa) from the quadrature oracle: the
    first column of W is the geometric solution J, the second the unit
    vector (0, 1) (independent since J1 != 0)."""
    if not (1.0 < s0 < params.kappa):
        raise DomainError(f"s0={s0} outside (1, kappa)")
    h0 = h_from_s(s0, params)
    d = pf_derivatives(h0, basis_values(h0, params, tol=ORACLE_TOL), params)
    J = np.array([d[0], d[3]], dtype=complex)
    W = np.array([[J[0], 0.0], [J[1], 1.0]], dtype=complex)
    return JState(s=complex(s0), J=J, W=W)


@dataclass(frozen=True)
class Line:
    a: complex
    b: complex

    def point(self, t):
        return self.a + (self.b - self.a) * t

    def velocity(self, t):
        return self.b - self.a


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return self.center + self.radius * np.exp(1j * th)

    def velocity(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return 1j * (self.theta1 - self.theta0) * self.radius * np.exp(1j * th)


@dataclass(frozen=True)
class LogLine:
    """The segment from a to b on one ray from 0, traversed uniformly in
    log s: s(t) = a (b/a)^t.  b/a must be real and positive in floating
    point, as it is for two points of the real half-line s > 0."""

    a: complex
    b: complex

    def __post_init__(self):
        q = self.b / self.a if self.a != 0 else 0j
        if not (q.imag == 0.0 and q.real > 0.0):
            raise DomainError(f"LogLine endpoints {self.a} and {self.b} are not on one ray from 0")

    @property
    def ratio(self) -> float:
        return (self.b / self.a).real

    def point(self, t):
        return self.a * self.ratio ** np.asarray(t)

    def velocity(self, t):
        return self.point(t) * math.log(self.ratio)


def _piece_legal(piece, kappa: float, eps_min: float):
    ts = np.linspace(0.0, 1.0, 257)
    z = piece.point(ts)
    for sing in (1.0 + 0.0j, complex(kappa)):
        d = np.min(np.abs(z - sing))
        if isinstance(piece, (Line, LogLine)):
            # exact point-to-segment distance (both trace the segment a-b)
            ab = piece.b - piece.a
            t = np.clip(((sing - piece.a) * np.conj(ab)).real / abs(ab) ** 2, 0.0, 1.0)
            d = abs(piece.a + t * ab - sing)
        if d < eps_min:
            raise PathProximityError(
                f"path comes within {d:.2e} of the singular point s={sing}")
    # cut crossing or touching: Im changes sign, or an interior sample lands
    # exactly on the real axis, at Re < 1
    im = z.imag
    crossings = np.nonzero(im[:-1] * im[1:] < 0)[0]
    for idx in crossings:
        f = im[idx] / (im[idx] - im[idx + 1])
        re_cross = (z[idx] + f * (z[idx + 1] - z[idx])).real
        if re_cross < 1.0:
            raise PathProximityError(
                f"path crosses the cut (-inf, 1) at Re s = {re_cross:.6f}")
    on_axis = np.nonzero(im == 0.0)[0]
    for idx in on_axis:
        if z[idx].real < 1.0:
            raise PathProximityError(
                f"path lands on the cut (-inf, 1) at Re s = {z[idx].real:.6f}")


def continue_state(pieces, state0: JState, params: ModelParams,
                   tol: float = 1e-11, eps_min: float = 1e-4,
                   samples_per_piece: int | None = None):
    """Analytic continuation of J and W along a sequence of path pieces:
    ``Line`` (straight, uniform in s), ``Arc`` (circular, uniform in angle)
    and ``LogLine`` (a segment of a ray from 0, uniform in log s).

    Integrates the realified linear system with an embedded Runge-Kutta
    pair (DOP853), the step capped by 0.1 / (||A|| |dz/dt|) along each
    piece.  With ``samples_per_piece`` set, returns per-piece sample arrays
    (s values, J values) for argument tracking.
    """
    k = params.kappa
    X = np.concatenate([state0.J, state0.W.reshape(-1)])
    Xr = np.concatenate([X.real, X.imag])
    out_samples = []
    scale0 = np.max(np.abs(X)) + 1e-300

    for piece in pieces:
        _piece_legal(piece, k, eps_min)

        def rhs(t, yr):
            z = piece.point(t)
            v = piece.velocity(t)
            y = yr[:6] + 1j * yr[6:]
            A = pfs2_matrix(z, k) * v
            J = A @ y[:2]
            W = A @ y[2:].reshape(2, 2)
            dy = np.concatenate([J, W.reshape(-1)])
            return np.concatenate([dy.real, dy.imag])

        ts = np.linspace(0.0, 1.0, 65)
        zs = piece.point(ts)
        vs = np.broadcast_to(piece.velocity(ts), zs.shape)
        normA = np.max([np.linalg.norm(pfs2_matrix(z, k)) * abs(v) for z, v in zip(zs, vs)])
        max_step = max(0.1 / (normA + 1e-300), 1e-7)
        t_eval = (np.linspace(0.0, 1.0, samples_per_piece)
                  if samples_per_piece else None)
        sol = solve_ivp(rhs, (0.0, 1.0), Xr, method="DOP853", rtol=tol,
                        atol=tol * scale0 * 1e-2, max_step=max_step, t_eval=t_eval,
                        dense_output=False)
        if not sol.success:
            raise ConvergenceError(f"continuation failed on {piece}: {sol.message}")
        if samples_per_piece:
            out_samples.append((piece.point(sol.t), sol.y[:2] + 1j * sol.y[6:8]))
        Xr = sol.y[:, -1]

    Xc = Xr[:6] + 1j * Xr[6:]
    end = pieces[-1].point(1.0)
    state = JState(s=complex(end), J=Xc[:2], W=Xc[2:].reshape(2, 2))
    if samples_per_piece:
        return state, out_samples
    return state


def propagate_J(path, J0: JState, params: ModelParams, tol: float = 1e-11,
                eps_min: float = 1e-4) -> JState:
    """Continuation of a JState along a polyline of complex s-nodes."""
    nodes = [complex(z) for z in path]
    if abs(nodes[0] - J0.s) > 1e-9 * (1.0 + abs(J0.s)):
        raise DomainError("path must start at the state's current s")
    pieces = [Line(a, b) for a, b in zip(nodes[:-1], nodes[1:]) if a != b]
    if not pieces:
        return JState(s=J0.s, J=J0.J.copy(), W=J0.W.copy())
    return continue_state(pieces, J0, params, tol=tol, eps_min=eps_min)


def infinity_exponents(params: ModelParams):
    """Growth exponents of the two characteristic solutions at s = infinity,
    fitted from the eigenvalues of the transfer matrix between the radii
    1e3 kappa and 1e5 kappa on the real axis (expected {-1/6, +1/6}).

    J is continued from 10 kappa along two ``LogLine`` pieces, uniform in
    log s.  For large s the system is close to Euler's equation in log s,
    with exponents +-1/6, so ||A ds/dt|| is nearly flat along them and the
    step cap 0.1 / (||A|| |ds/dt|) of ``continue_state`` allows long steps
    (15 to 18 per piece at kappa = 4).  Along a ``Line`` the cap is set by
    the near end, where ||A|| is largest, and a piece took about 300 steps
    whatever the tolerance asked.  det W is constant (trace A = 0), so
    |hi - 1/6| = |lo + 1/6| in exact arithmetic; the log-s route keeps that
    to rounding (the ``Line`` route to about 1e-14)."""
    k = params.kappa
    s0, s1, s2 = 10.0 * k, 1e3 * k, 1e5 * k
    W = np.eye(2, dtype=complex)
    state = JState(s=complex(s0), J=W[:, 0].copy(), W=W)
    state = continue_state([LogLine(complex(s0), complex(s1))], state, params, tol=1e-12)
    W1 = state.W.copy()
    state = continue_state([LogLine(complex(s1), complex(s2))], state, params, tol=1e-12)
    T = state.W @ np.linalg.inv(W1)
    ev = np.linalg.eigvals(T)
    return np.sort(np.log(np.abs(ev)) / math.log(s2 / s1))
