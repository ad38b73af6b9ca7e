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

The moments across the annulus come by two independent routes that share
no input: ``MomentBasis`` (J = (I00', I11') in closed form, V from two
exact expansions of V = B V' about the singular ends of the annulus, with
no quadrature), which the bound pipeline uses, and ``PFPropagation``
(Taylor steps from the quadrature oracle at the window midpoint), kept as
the check.  The other moments have no closed form of that kind:
I10' is not a polynomial combination of J1 and J2, nor is JJ modulo the
kernel of L2 (``MomentBasis``).

Both linear systems here, V = B V' in h and 6 (s - 1)(s - kappa) J' = N(s) J
in s, have polynomial coefficients and are continued by re-expanding their
Taylor series from disc to disc (``_Walk``; J. van der Hoeven, Fast
evaluation of holonomic functions, TCS 210, 1999), with no ODE solver.

Also here: the derived 2x2 second-order system for (J1, J2) =
(I00', I11'), the closed-form second/third derivative formulas, jets
(``_Jet``: a function and two h-derivatives), the operators L1 = h d/dh - 1 and
L2 = 5 kappa h - (9 kappa h^2 - 8) d/dh + h (9 kappa h^2 - 4) d^2/dh^2,
the hypergeometric change of variable s = (9 kappa / 4) h^2, J and the
Kummer pair of L2 as 2F1 functions of s, and analytic continuation of a
fundamental matrix W, whose first column is J = (J1, J2), along paths in the
complex s-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# not called: perfbench/tracing.py counts calls through this name, and tests refuse it
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.special import hyp2f1

from .errors import (
    ConsistencyError,
    DomainError,
    PathProximityError,
    SingularityError,
)
from .model import ModelParams, h_from_s, make_params, s_from_h
from .quadrature import basis_values
from .reduction import JJ_value, weigh

SINGULAR_GAP = 1e-10  # distance in h to a critical level within which V' is refused
# Both moment routes span the annulus less WINDOW_MARGIN at each end;
# PFPropagation starts from a quadrature oracle call at its midpoint.
WINDOW_MARGIN = 1e-8
ORACLE_TOL = 1e-10
# A Taylor step's radius over its series' radius of convergence, and the
# order it keeps: STEP_RATIO^n summed past it stays below tol / 2, the rule
# of MomentBasis (53 at tol = eps, so 54 terms)
STEP_RATIO = 0.5


def step_order(tol: float) -> int:
    return math.ceil(math.log(tol * (1.0 - STEP_RATIO)) / math.log(STEP_RATIO))


STEP_ORDER = step_order(np.finfo(float).eps)


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
    """Residual of each of the six equations, values - B(h) V', each row of
    B(h) V' a fixed-order fold (``weigh``), not a BLAS product."""
    return pf.values - np.array([weigh(row, pf.derivs) for row in pf_matrix(pf.h, params)])


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


def _solve_factored(h, v, kappa: float, d1, d2, pin=None):
    """B(h)^{-1} v given (d1, d2) = ``_denominators(h, kappa)``, by B's
    blocks: rows 1 and 3 over d1, row 0 over d2, row 2 from row 0 of B, and
    the (I-10, I-11) block, coupled to I10', over d2.  At an end of the
    annulus, where d1 (the center) or d2 (the saddle) vanishes, ``pin`` gives
    the kernel coordinates of a solution x of B x = v, x1 or (x0, x4), rows 1
    and 4 of B give x3 or x5, and with x come L v: the numerators over the
    vanishing factor, zero exactly when v lies in the range of B(h)."""
    k, end = kappa, -1 if pin is None else len(pin)
    v0, v1, v2, v3, v4, v5 = v
    n1 = 2.0 * v0 + 9.0 * h * v1 - 8.0 * v3
    if end == 1:
        x1, x3 = pin[0], 1.5 * (v1 - h * pin[0])
    else:
        x1, x3 = n1 / d1, (12.0 * h * v3 - 3.0 * h * v0 - 6.0 * v1) / d1
    n0 = 6.0 * k * (h * v0 - v2) + 4.0 * (k - 1.0) * x3
    n4 = 3.0 * k * h * v4 - 4.0 * k * v5 + 4.0 * (k - 1.0) * x1
    if end == 2:
        (x0, x4), x5 = pin, 0.5 * (v4 - 3.0 * h * pin[1])
    else:
        x0, x4 = n0 / d2, n4 / d2
        x5 = (6.0 * k * h * v5 - 2.0 * v4 - 6.0 * (k - 1.0) * h * x1) / d2
    x = (x0, x1, v0 - 1.5 * h * x0, x3, x4, x5)
    if pin is None:
        return x
    return x, [n0, n4] if end == 2 else [n1] if end == 1 else []


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


def pf_derivatives(h, values, params: ModelParams) -> np.ndarray:
    """V' = B(h)^{-1} V at a level, or (6, n) at n levels; SingularityError
    within SINGULAR_GAP of a critical level."""
    _check_regular(h, params.kappa)
    return np.array(pf_solve(h, np.asarray(values, dtype=float), params.kappa))


def _window_levels(window, h):
    """(whether h is a scalar, h as a 1-d array), or DomainError for a level
    outside ``window``'s [lo, hi] by more than 1e-12 (NaN included)."""
    h = np.asarray(h, dtype=float)
    hv = np.atleast_1d(h)
    if not window.lo - 1e-12 <= hv.min() <= hv.max() <= window.hi + 1e-12:
        raise DomainError(f"level outside the window [{window.lo}, {window.hi}]")
    return h.ndim == 0, hv


class PFPropagation:
    """The six moments across a window by Taylor steps (``_Walk``) from the
    quadrature oracle at the window midpoint toward each end (both window
    endpoints are singular levels, the midpoint is maximally conditioned),
    each step ``_frobenius``'s series about a regular level; the singular
    levels are +-h_c and +-h_s.

    Provides pointwise values and derivatives up to order three (``derivs``,
    ``chain``), for vectorized evaluation on level grids.  B^{-1} has a pole
    at both window ends (cond(B) reaches 1e7 within 1e-6 of the window of an
    end), so the error in V is magnified in ``derivs`` there, most at the
    saddle end, where V does not vanish.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        hc, hs = params.center_h, params.saddle_h
        self.lo, self.hi = hc + WINDOW_MARGIN, hs - WINDOW_MARGIN
        if not (hc < self.lo < self.hi < hs):
            raise DomainError("PFPropagation window must sit inside the annulus interval")
        self.h_mid = 0.5 * (self.lo + self.hi)
        self.v_mid = basis_values(self.h_mid, params, tol=ORACLE_TOL)
        k = params.kappa

        def step(c, v):  # r: STEP_RATIO times the distance to the nearest singular level
            r = STEP_RATIO * min(abs(c - z) for z in (hc, -hc, hs, -hs))
            return r, _frobenius(c, k, 0, STEP_ORDER, [v], r)[0][0]
        self._sides = [_Walk(Line(self.h_mid, end), step, self.v_mid)
                       for end in (self.lo, self.hi)]

    def values(self, h):
        scalar, hv = _window_levels(self, h)
        out = _two_sided(hv, hv > self.h_mid, lambda x, right: self._sides[right](
            (x - self.h_mid) / ((self.hi if right else self.lo) - self.h_mid), x))
        return out[:, 0] if scalar else out

    def derivs(self, h):
        """The primed six-vector at a scalar level, or (6, n) at n levels,
        each level's bits those of ``pf_derivatives`` at that level alone."""
        return pf_derivatives(h, self.values(h), self.params)

    def chain(self, h: float):
        """(V', V'', V''') at h: n! a_n, n = 1, 2, 3, of ``_frobenius`` at h."""
        h, k = float(h), self.params.kappa
        _check_regular(h, k)
        (a, _), = _frobenius(h, k, 0, 3, [self.values(h)])
        return tuple(math.factorial(n) * a[:, n] for n in (1, 2, 3))


ROW_CHECK_TOL = 1e-8  # rows 2 and 3 of V = B V' against closed-form J


def _frobenius(c: float, kappa: float, d: int, terms: int, starts, r: float = 1.0,
               rho: float = 0.0, first: float = 0.0, log=None) -> list:
    """For each start a_0, the coefficients a_n r^n, n <= terms, of the solution
    |u|^rho sum a_n u^n (+ gamma log|u| sum q_n u^n) of V = B V' about c,
    u = h - c, where B(c) has a kernel K of dimension d (0 at a regular level,
    1 at the center, 2 at the saddle).  In t = u / r, order n gives m B(c)
    a_{n+1} = r ((1 - (n + rho) B') a_n - (1 + B') q_n / (n + 1)), m = n + 1
    + rho, which fixes a_{n+1} but for its kernel coordinates beta; order
    n + 1's solvability, L ((1 - m B') a_{n+1} - B' q_{n+1}) = 0, fixes them
    by forward substitution (L (1 - m B') K is lower triangular).  At m = 1
    its row 0 vanishes (the exponent 1 of both ends): beta_0 is ``first`` and
    row 0 fixes gamma, the scale of ``log`` (the exponent-1 series, scaled).
    Plain floats in a fixed order.  Returns [(coefficients (6, terms + 1), gamma)]."""
    d1, d2 = (_denominators(c, _two_product(2.25, kappa)), (0.0, 4.0 * (kappa - 1.0)),
              (-4.0 * (kappa - 1.0) / kappa, 0.0))[d]
    bp = [(i, j, float(b)) for (i, j), b in np.ndenumerate(_B_PRIME) if b]
    sb = lambda s: [(i, j, s * b) for i, j, b in bp]  # s B'

    def shift(x, sbp):  # (1 - s B') x, sbp = sb(s)
        w = list(x)
        for i, j, b in sbp:
            w[i] -= b * x[j]
        return w

    zero, B1 = [0.0] * d, lambda x: [y - z for y, z in zip(x, shift(x, bp))]
    solve = lambda w, pin=zero: _solve_factored(c, w, kappa, d1, d2, pin)
    K = [solve([0.0] * 6, [float(i == j) for i in range(d)])[0] for j in range(d)]
    LK, LBK = [solve(x)[1] for x in K], [solve(B1(x))[1] for x in K]
    cols, gamma = [[[float(x) for x in a0]] for a0 in starts], [0.0] * len(starts)
    ws = [shift(a[0], sb(rho)) for a in cols]  # (1 - (n + rho) B') a_n
    q = None if log is None else log.T.tolist()
    for n in range(terms):
        m = n + 1.0 + rho
        M = [[y - m * z for y, z in zip(*col)] for col in zip(LK, LBK)]  # L (1 - m B') K
        if q is not None:
            cq, lq = [y / (n + 1.0) for y in shift(q[n], sb(-1.0))], solve(B1(q[n + 1]))[1]
        rm, mb = r / m, sb(m)
        for col, a in enumerate(cols):
            w = ws[col] if q is None else [y - gamma[col] * z for y, z in zip(ws[col], cq)]
            x = [rm * y for y in solve(w)[0]]
            sx = shift(x, mb)
            if d:
                res = solve(sx)[1]  # L (1 - m B') x, less gamma L B' q_{n+1}: beta cancels it
                if q is not None:
                    gamma[col] = res[0] / lq[0] if m == 1.0 else gamma[col]
                    res = [e - gamma[col] * y for e, y in zip(res, lq)]
                beta = []
                for i in range(d):
                    rest = -res[i] - (M[0][i] * beta[0] if i else 0.0)
                    beta.append(first if m == 1.0 and i == 0 else rest / M[i][i])
                for b, v in zip(beta, K):
                    x = [y + b * z for y, z in zip(x, v)]
                sx = shift(x, mb)
            a.append(x)
            ws[col] = sx
    return [(np.array(a).T, g) for a, g in zip(cols, gamma)]


def _gauss(A, b):
    """x with A x = b by Gauss-Jordan elimination with partial pivoting, in
    plain floats in a fixed order (no LAPACK)."""
    M = [[float(v) for v in row] + [float(y)] for row, y in zip(A, b)]
    for i in range(len(M)):
        p = max(range(i, len(M)), key=lambda r: abs(M[r][i]))
        M[i], M[p] = M[p], M[i]
        M = [row if r == i else [u - row[i] / M[i][i] * v for u, v in zip(row, M[i])]
             for r, row in enumerate(M)]
    return [row[-1] / row[i] for i, row in enumerate(M)]


def _saddle_factors(u, near=None):
    """log|u| and |u|^(1/2) as jets in u < 0: signed at u, or, given ``near``,
    magnitude jets over the cells from u to near, their ends farthest from and
    nearest to the saddle.  For |u| < 1, |log|u||, 1/|u|, 1/u^2 and the
    derivatives of |u|^(1/2) are largest at the near end, |u|^(1/2) at the far one."""
    if near is None:
        x = np.sqrt(-u)
        return _Jet((np.log(-u), 1.0 / u, -1.0 / (u * u))), _Jet((x, -0.5 / x, 0.25 / (x * u)))
    b = -near
    x = np.sqrt(b)
    return (_Jet((-np.log(b), 1.0 / b, 1.0 / (b * b)), True),
            _Jet((np.sqrt(-u), 0.5 / x, 0.25 / (x * b)), True))


class MomentBasis:
    """The six moments across the same window as ``PFPropagation``, with no
    ODE solver and no quadrature: J = (I00', I11') in closed form
    (``hypergeometric_J`` at s = ``s_from_h(h)``), and V from two exact
    expansions of V = B V' (``_frobenius``) about the ends of the annulus.

    About the center h_c, V is the Taylor series with V(h_c) = 0 and V'(h_c) =
    (pi / sqrt(kappa - 1)) (1, ..., 1), the kernel of B(h_c).  About the
    saddle h_s the residue of B^{-1} has eigenvalues {1, 1/2, 0, 0, 0, 0}, and
    V = P(u) + Q(u) log|u| + |u|^(1/2) S(u), u = h - h_s, Q the exponent-1
    solution.  Its six constants (P(0) in the range of B(h_s), a multiple of
    Q in P, the scale of S; Q's follows from P(0)) match the center series at
    the switch level, where both converge at the same ratio of their radii:
    h_s - h_c, and the distance from h_s to h_c or to -h_s, the nearer.
    Each keeps the terms that take that ratio's powers below eps (1 - ratio),
    and sums the levels on its side of the switch.

    The other four derivatives follow from rows 0, 1, 4 and 5 of V = B V' with
    J in closed form; rows 2 and 3 are checked at the midpoint and at both
    ends, and a residual above ``ROW_CHECK_TOL`` raises ConsistencyError.

    The series stand in for closed forms that do not exist: I10' is not
    p J1 + q J2, nor JJ that plus a solution of L2 x = 0, for polynomials
    p, q (exact linear algebra over ``tests/ratfunc.py``, degree 10 at kappa = 4;
    tests/test_melnikov.py::TestNoClosedFormBeyondJ).
    """

    def __init__(self, params: ModelParams):
        self.params = params
        k = params.kappa
        hc, hs = params.center_h, params.saddle_h
        self.lo, self.hi = hc + WINDOW_MARGIN, hs - WINDOW_MARGIN
        if not (hc < self.lo < self.hi < hs):
            raise DomainError("MomentBasis window must sit inside the annulus interval")
        self.h_mid = 0.5 * (self.lo + self.hi)
        self._ck = _two_product(2.25, k)  # once, not per call
        self._r = rc, rs = hs - hc, min(hs - hc, 4.0 / (3.0 * math.sqrt(k)))
        self.switch, ratio = (hc * rs + hs * rc) / (rc + rs), rc / (rc + rs)
        terms = math.ceil(math.log(np.finfo(float).eps * (1.0 - ratio)) / math.log(ratio))
        (self._center, _), = _frobenius(hc, k, 1, terms, [[0.0] * 6], rc,
                                        first=rc * math.pi / math.sqrt(k - 1.0))
        (Q, _), = _frobenius(hs, k, 2, terms, [[0.0] * 6], rs, first=1.0)
        # S starts on the kernel vector (0, 0, 0, 0, 1, 1 / sqrt(kappa)) of B(h_s)
        (S, _), = _frobenius(hs, k, 2, terms, [[0.0] * 4 + [1.0, -1.5 * hs]], rs, rho=0.5)
        # P starts on a basis of the range of B(h_s), L p = 0: e_j, j = 0, 1, 3, 4,
        # less multiples of e_2 and e_5, which only rows 0 and 1 of L see (B(h_s)'s
        # columns 1 and 3 grow parallel as kappa -> 1)
        L = lambda w: _solve_factored(hs, w, k, -4.0 * (k - 1.0) / k, 0.0, [0.0, 0.0])[1]
        E = np.eye(6)
        starts = [e - L(e)[0] / L(E[2])[0] * E[2] - L(e)[1] / L(E[5])[1] * E[5]
                  for e in E[[0, 1, 3, 4]]]
        P, gamma = zip(*_frobenius(hs, k, 2, terms, starts, rs, log=Q))
        sw = np.array([self.switch])
        u = self._u(sw, True)
        Y = lambda a: series_sum(a[:, None], u / rs)[:, 0]
        Ys = [Y(p) + g * Y(Q) * np.log(-u) for p, g in zip(P, gamma)] + [Y(Q), np.sqrt(-u) * Y(S)]
        c = _gauss(np.array(Ys).T, self._form(sw, False)[:, 0])
        self._saddle = np.array([weigh(c[:4], P) + c[4] * Q, weigh(c[:4], gamma) * Q, c[5] * S])
        for h in (self.lo, self.h_mid, self.hi):
            self._check_rows(h)

    def _u(self, h, saddle: bool):
        """h - h_c = (3h + 2) / 3 or h - h_s = (s - 1) / ((9 kappa / 4)(h + h_s)),
        compensated, so the rounding of h_c and h_s does not enter."""
        k = self.params.kappa
        if saddle:
            return _s_minus_one(h, self._ck) / (2.25 * k * (h + self.params.saddle_h))
        p, e = _two_product(3.0, h)
        return ((p + 2.0) + e) / 3.0

    def _form(self, h, saddle: bool, mag=None, near=None):
        """V at the levels h by the series of one end: an array (6, n) with
        ``mag`` None, else a jet, signed or (mag True) a magnitude jet over the
        cells whose ends farthest from and nearest to that end are h and near."""
        r, u = self._r[saddle], self._u(h, saddle)
        a = self._saddle if saddle else self._center[None]
        if mag is None:
            T = series_sum(a[:, :, None], u / r)
        else:
            T = series_jet(a[:, :, None], u / r, mag).of(_Jet((u / r, 1.0 / r, 0.0), mag))
            T = [_Jet([f[i] for f in T.f], mag) for i in range(len(a))]
        if not saddle:
            return T[0]
        if mag is None:
            log, root = np.log(-u), np.sqrt(-u)
        else:
            log, root = _saddle_factors(u, None if near is None else self._u(near, True))
        return T[0] + T[1] * log + root * T[2]

    def values(self, h):
        """V at a scalar level, shape (6,), or at n levels, shape (6, n), each
        level summed by the series of its side of the switch."""
        scalar, hv = _window_levels(self, h)
        out = _two_sided(hv, hv >= self.switch, self._form)
        return out[:, 0] if scalar else out

    def taylor(self, h, side=None) -> _Jet:
        """V, V' and V'' at the levels h, a signed jet of shape (6, n): each
        level by the series of its side of the switch, or all by the center's
        (side False) or the saddle's (side True)."""
        hv = np.atleast_1d(np.asarray(h, dtype=float))
        if side is not None:
            return self._form(hv, side, False)
        return _two_sided(hv, hv >= self.switch, lambda x, saddle: self._form(x, saddle, False),
                          True)

    def bound(self, lo, hi) -> _Jet:
        """A magnitude jet of shape (6, n) bounding |V|, |V'| and |V''| over each
        cell [lo, hi]: the absolute series at its largest |t|, the log and root
        factors at its ends, the larger of both sides' bounds where it meets the switch."""
        sw = self.switch
        return _either(lo < sw, hi >= sw, self._form(np.minimum(hi, sw), False, True),
                       self._form(np.maximum(lo, sw), True, True, near=hi))

    def J(self, h):
        """(J1, J2) in closed form, shape (2,) or (2, n)."""
        scalar, hv = _window_levels(self, h)
        out = hypergeometric_J(s_from_h(hv, self.params), self.params)
        return out[:, 0] if scalar else out

    def JJ(self, h, J2=None):
        """-4h I-10' + (3 kappa h^2 - 4) I-11' at the levels h, by ``JJ_value``."""
        return JJ_value(h, self.values(h), self.J(h)[1] if J2 is None else J2, self.params.kappa)

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
            res = abs(v[row] - weigh(B[row], d)) / np.max(np.abs(terms))
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
# the operators, and jets: a function with its first two h-derivatives
# ---------------------------------------------------------------------------

def apply_L1(I_value: float, I_prime: float, h: float) -> float:
    """L1 = h d/dh - 1."""
    return h * I_prime - I_value


def apply_L2(g: float, g1: float, g2: float, h: float, params: ModelParams) -> float:
    """L2 = 5 kappa h - (9 kappa h^2 - 8) d/dh + h (9 kappa h^2 - 4) d^2/dh^2."""
    k = params.kappa
    return (5.0 * k * h * g - (9.0 * k * h * h - 8.0) * g1
            + h * (9.0 * k * h * h - 4.0) * g2)


class _Jet:
    """A function and its first two h-derivatives, three arrays with one
    entry per level or per cell.  A signed jet holds the values at levels.
    A magnitude jet (``mag``) holds upper bounds of |f|, |f'| and |f''| over
    cells; its arithmetic is the same sum, Leibniz and chain rules with
    every term counted positive, so its results are bounds again."""

    __slots__ = ("f", "mag")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, f, mag: bool = False):
        self.f, self.mag = tuple(f), mag

    def _jet(self, o) -> _Jet:
        return o if isinstance(o, _Jet) else _Jet((abs(o) if self.mag else o, 0.0, 0.0), self.mag)

    def __add__(self, o):
        return _Jet([a + b for a, b in zip(self.f, self._jet(o).f)], self.mag)

    def __neg__(self):
        return self if self.mag else _Jet([-a for a in self.f])

    def __sub__(self, o):
        return self + -self._jet(o)

    def __rsub__(self, o):
        return self._jet(o) - self

    def __mul__(self, o):
        (a, a1, a2), (b, b1, b2) = self.f, self._jet(o).f
        return _Jet((a * b, a1 * b + a * b1, a2 * b + 2.0 * a1 * b1 + a * b2), self.mag)

    __radd__, __rmul__ = __add__, __mul__

    def of(self, z: _Jet) -> _Jet:
        """This jet in z composed with z(h), a jet in h."""
        (g, g1, g2), (_, z1, z2) = self.f, z.f
        return _Jet((g, g1 * z1, g2 * z1 * z1 + g1 * z2), self.mag)


def series_sum(coef, t):
    """sum_n coef[..., n] t^n, t real or complex, broadcast against
    coef[..., 0] (at least one axis): running powers, and a left fold in n by
    einsum's own loop in Fortran order on the other axes reversed, so n runs
    outermost and the last of them (the levels) innermost; no BLAS kernel,
    layout or other entry of a call moves a bit."""
    t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
    tp = np.vander(t.ravel(), coef.shape[-1], increasing=True).reshape(t.shape + (-1,))
    nd = max(coef.ndim, tp.ndim)
    axes = (*range(nd - 2, -1, -1), nd - 1)
    c, tp = (x.reshape((1,) * (nd - x.ndim) + x.shape).transpose(axes) for x in (coef, tp))
    return np.einsum("...n,...n->...", c, tp, order="F").T


def series_jet(coef, t, mag: bool = False) -> _Jet:
    """``series_sum`` and its first two t-derivatives; with ``mag``, of |coef|
    at |t|, bounds wherever the argument's modulus is at most |t|."""
    c, t = (np.abs(coef), np.abs(t)) if mag else (coef, t)
    n = np.arange(c.shape[-1])
    f = (None, n[1:], n[2:] * (n[2:] - 1.0))
    return _Jet([series_sum(c[..., k:] * f[k] if k else c, t) for k in range(3)], mag)


def _two_sided(hv, right, part, jet: bool = False):
    """part(levels, side) at the levels hv left (side False) and right (True)
    of a split, joined in the order of hv: arrays of shape (6, n), or jets.
    When every level falls on one side, part's own result for all of hv (made
    contiguous, as the split's copies are) is returned."""
    n_right = np.count_nonzero(right)
    if n_right in (0, hv.size):
        return part(np.ascontiguousarray(hv), bool(n_right))
    out = [np.empty((6, hv.size)) for _ in range(3 if jet else 1)]
    for side in (False, True):
        m = right == side
        if m.any():
            y = part(hv[m], side)
            for o, f in zip(out, y.f if jet else [y]):
                o[:, m] = f
    return _Jet(out) if jet else out[0]


def _either(has_a, has_b, a: _Jet, b: _Jet) -> _Jet:
    """The magnitude jet over cells that meet a, b or both of two pieces: the
    larger of both bounds where a cell meets both."""
    return _Jet([np.where(has_a & has_b, np.maximum(x, y), np.where(has_a, x, y))
                 for x, y in zip(a.f, b.f)], True)


def _stack(jets) -> _Jet:
    """Jets of one kind stacked into one whose arrays have a leading row axis."""
    shape = np.broadcast_shapes(*(np.shape(y) for j in jets for y in j.f))
    return _Jet([np.stack([np.broadcast_to(j.f[c], shape) for j in jets]) for c in range(3)],
                jets[0].mag)


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
    """(J1, J2) = (I00', I11') as functions of s, held as the first column of
    a 2x2 fundamental matrix W whose columns are two independent solutions;
    det W is an exact constant of the system."""

    s: complex
    W: np.ndarray

    @property
    def J(self) -> np.ndarray:
        return self.W[:, 0]

    @property
    def det_W(self) -> complex:
        return self.W[0, 0] * self.W[1, 1] - self.W[0, 1] * self.W[1, 0]


def initial_jstate(s0: float, params: ModelParams) -> JState:
    """JState at a real s0 in (1, kappa) from the quadrature oracle: the
    first column of W is the geometric solution J, the second the unit
    vector (0, 1) (independent since J1 != 0)."""
    if not (1.0 < s0 < params.kappa):
        raise DomainError(f"s0={s0} outside (1, kappa)")
    h0 = h_from_s(s0, params)
    d = pf_derivatives(h0, basis_values(h0, params, tol=ORACLE_TOL), params)
    return JState(s=complex(s0), W=np.array([[d[0], 0.0], [d[3], 1.0]], dtype=complex))


@dataclass(frozen=True)
class Line:
    a: complex
    b: complex

    def point(self, t):
        return self.a + (self.b - self.a) * t

    def reach(self, t: float, r: float) -> float:
        """The parameter where the segment leaves the disc of radius r about
        point(t), or 1."""
        return min(1.0, t + r / abs(self.b - self.a))


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return self.center + self.radius * np.exp(1j * th)

    def reach(self, t: float, r: float) -> float:
        """The parameter where the arc leaves the disc of radius r about
        point(t), or 1: the chord 2 radius sin(dtheta / 2) grows up to pi."""
        dth = 2.0 * math.asin(min(1.0, r / (2.0 * self.radius)))
        return min(1.0, t + dth / abs(self.theta1 - self.theta0))


class _Walk:
    """A system's solution along a piece (``Line`` or ``Arc``) by Taylor steps
    from y, its value at the piece's start.  At the center c = piece.point(t),
    step(c, y) gives (r, a_n r^n of the solution through y, shape (..., n));
    the next center is where the piece leaves the disc of radius r, y there
    the step's polynomial summed at x.  ``end`` is y at the piece's end, or
    at that of the first step for which until(coefficients, x, y) holds."""

    def __init__(self, piece, step, y, until=lambda coef, x, y: False):
        steps, t = [], 0.0
        while t < 1.0:
            c = piece.point(t)
            r, coef = step(c, y)
            steps.append((t, c, r, coef))
            t = piece.reach(t, r)
            y = series_sum(coef, (x := (piece.point(t) - c) / r))
            if until(coef, x, y):
                break
        self.t, self.c, self.r, self.coef = map(np.array, zip(*steps))
        self.end = y

    def __call__(self, t, z):
        """The solution at the points z = piece.point(t), shape (..., n), each
        summed by the step whose stretch of the piece holds its t."""
        k = np.searchsorted(self.t, t, side="right") - 1
        return series_sum(np.moveaxis(self.coef[k], 0, -2), (z - self.c[k]) / self.r[k])


def _s_series(c: complex, kappa: float, r: float, W) -> np.ndarray:
    """The coefficients a_n r^n, n <= STEP_ORDER, of the fundamental matrix
    about s = c with W(c) = W, shape (2, 2, STEP_ORDER + 1).  With t = s - c,
    p(s) = 6 (s - 1)(s - kappa) = p0 + p1 t + 6 t^2 and N(s) = N0 + N1 t, N1 =
    [[-1, 0], [-1, 1]], order n of p W' = N W gives p0 (n + 1) a_{n+1} =
    (N0 - p1 n) a_n + (N1 - 6 (n - 1)) a_{n-1}, run on each column in plain
    complex scalars."""
    c = complex(c)
    p0, p1 = 6.0 * (c - 1.0) * (c - kappa), 6.0 * (2.0 * c - 1.0 - kappa)
    e, k1 = 1.0 - c, kappa - 1.0  # N0 = [[e, k1], [e, -e]]
    cols = []
    for x, y in np.asarray(W, dtype=complex).T.tolist():
        col, xp, yp = [(x, y)], 0j, 0j
        for n in range(STEP_ORDER):
            g, q, f = p1 * n, 6.0 * (n - 1.0), r / (p0 * (n + 1.0))
            x, y, xp, yp = (f * ((e - g) * x + k1 * y - r * (1.0 + q) * xp),
                            f * (e * x - (e + g) * y + r * ((1.0 - q) * yp - xp)), x, y)
            col.append((x, y))
        cols.append(col)
    return np.array(cols).transpose(2, 0, 1)


def _piece_legal(piece, kappa: float, eps_min: float):
    ts = np.linspace(0.0, 1.0, 257)
    z = piece.point(ts)
    for sing in (1.0 + 0.0j, complex(kappa)):
        d = np.min(np.abs(z - sing))
        if isinstance(piece, Line):  # the exact point-to-segment distance
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


def continue_state(pieces, state0: JState, params: ModelParams, eps_min: float = 1e-4,
                   samples_per_piece: int | None = None):
    """Analytic continuation of W, and with it J = W[:, 0], along path pieces:
    ``Line`` (straight) and ``Arc`` (circular), each walked by Taylor steps in
    s (``_Walk`` on ``_s_series``) about centers on the piece, the singular
    points s = 1 and kappa.  With ``samples_per_piece`` set, returns per-piece
    sample arrays (s values at that many equal parameter steps, J values)
    for argument tracking."""
    k, W, out_samples = params.kappa, state0.W, []

    def step(c, w):  # r: STEP_RATIO times the distance to the nearer of s = 1, kappa
        r = STEP_RATIO * min(abs(c - 1.0), abs(c - k))
        return r, _s_series(c, k, r, w)
    for piece in pieces:
        _piece_legal(piece, k, eps_min)
        walk = _Walk(piece, step, W)
        if samples_per_piece:
            ts = np.linspace(0.0, 1.0, samples_per_piece)
            s = piece.point(ts)
            out_samples.append((s, walk(ts, s)[:, 0]))
        W = walk.end
    state = JState(s=complex(pieces[-1].point(1.0)), W=W)
    return (state, out_samples) if samples_per_piece else state


def propagate_J(path, J0: JState, params: ModelParams, eps_min: float = 1e-4) -> JState:
    """Continuation of a JState along a polyline of complex s-nodes."""
    nodes = [complex(z) for z in path]
    if abs(nodes[0] - J0.s) > 1e-9 * (1.0 + abs(J0.s)):
        raise DomainError("path must start at the state's current s")
    pieces = [Line(a, b) for a, b in zip(nodes[:-1], nodes[1:]) if a != b]
    if not pieces:
        return JState(s=J0.s, W=J0.W.copy())
    return continue_state(pieces, J0, params, eps_min=eps_min)


def infinity_exponents(params: ModelParams):
    """Growth exponents (lo, hi) of the two characteristic solutions at s =
    infinity, fitted from the eigenvalues of the transfer matrix T = W2 W1^-1
    between the radii 1e3 kappa and 1e5 kappa on the real axis (expected
    {-1/6, +1/6}), W continued from 10 kappa along two ``Line`` pieces (24
    Taylor steps).  With no LAPACK call: W1^-1 is its adjugate over its
    determinant, and T's eigenvalue moduli come from its trace and
    determinant, the smaller as |det T| over the larger.  det W is constant
    (trace N = 0), so hi + lo = log|det T| / log(100) vanishes to rounding."""
    k = params.kappa
    s0, s1, s2 = 10.0 * k, 1e3 * k, 1e5 * k
    state = JState(s=complex(s0), W=np.eye(2, dtype=complex))
    state = continue_state([Line(complex(s0), complex(s1))], state, params)
    (a, b), (c, d) = state.W.tolist()
    state = continue_state([Line(complex(s1), complex(s2))], state, params)
    (e, f), (g, h) = state.W.tolist()
    det1 = a * d - b * c
    tr = ((e * d - f * c) + (h * a - g * b)) / det1
    det = (e * h - f * g) / det1
    root = (tr * tr - 4.0 * det) ** 0.5
    big = 0.5 * max(abs(tr + root), abs(tr - root))
    scale = math.log(s2 / s1)
    return math.log(abs(det) / big) / scale, math.log(big) / scale
