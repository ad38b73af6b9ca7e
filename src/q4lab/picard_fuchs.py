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
exactly away from the critical levels (det B is a multiple of
(9h^2-4)(9kh^2-4)^2).  Derivatives of any order follow from the closed ODE
by exact matrix calculus, never by finite differences (FD appears only in
cross-check tests).

Also here: the derived 2x2 second-order system for (J1, J2) =
(I00', I11'), the closed-form second/third derivative formulas,
the operators L1 = h d/dh - 1 and
L2 = 5 kappa h - (9 kappa h^2 - 8) d/dh + h (9 kappa h^2 - 4) d^2/dh^2,
the hypergeometric change of variable s = (9 kappa / 4) h^2, and analytic
continuation of J = (J1, J2) with a fundamental matrix along paths in the
complex s-plane (the system 6 (s-1)(s-kappa) dJ/ds = N(s) J).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConvergenceError,
    DomainError,
    PathProximityError,
    SingularityError,
)
from .model import ModelParams, h_from_s
from .quadrature import basis_values

BASIS_INDICES = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1))
COND_LIMIT = 1e12  # cond(B) above which the derivatives are refused


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


# dB/dh is constant
_B_PRIME = np.zeros((6, 6))
_B_PRIME[0, 0] = 1.5
_B_PRIME[1, 1] = 1.0
_B_PRIME[2, 2] = 1.0
_B_PRIME[3, 0] = 3.0 / 8.0
_B_PRIME[3, 3] = 0.75
_B_PRIME[4, 4] = 3.0
_B_PRIME[5, 5] = 1.5


def pf_residuals(pf: PFVector, params: ModelParams) -> np.ndarray:
    """Residual of each of the six equations, values - B(h) @ derivs."""
    return pf.values - pf_matrix(pf.h, params) @ pf.derivs


def pf_derivatives(h: float, values, params: ModelParams,
                   cond_limit: float = COND_LIMIT) -> np.ndarray:
    """The unique primed six-vector solving the system at (h, kappa).

    Raises SingularityError near the critical levels where B is singular,
    reporting the condition number.
    """
    B = pf_matrix(h, params)
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularityError(
            f"Picard-Fuchs matrix nearly singular at h={h}: cond(B) = {cond:.3e}")
    return np.linalg.solve(B, np.asarray(values, dtype=float))


def pf_derivative_chain(h: float, values, params: ModelParams):
    """(V', V'', V''') by exact differentiation of the closed linear ODE
    V' = X(h) V with X = B^{-1}:

        V''  = (X' + X X) V,            X'  = -X B' X
        V''' = (X'' + 2 X' X + X X' + X X X) V,   X'' = 2 X B' X B' X

    (B'' = 0 since B is affine in h).  This is the production route to
    higher derivatives; finite differences serve only as an independent
    oracle in tests.
    """
    v = np.asarray(values, dtype=float)
    X = np.linalg.inv(pf_matrix(h, params))
    Bp = _B_PRIME
    Xp = -X @ Bp @ X
    Xpp = 2.0 * X @ Bp @ X @ Bp @ X
    d1 = X @ v
    d2 = (Xp + X @ X) @ v
    d3 = (Xpp + 2.0 * Xp @ X + X @ Xp + X @ X @ X) @ v
    return d1, d2, d3


def _check_no_singularity_between(a: float, b: float, params: ModelParams):
    k = params.kappa
    lo, hi = min(a, b), max(a, b)
    for hs in (-2.0 / 3.0, 2.0 / 3.0, -2.0 / (3.0 * math.sqrt(k)), 2.0 / (3.0 * math.sqrt(k))):
        if lo - 1e-13 <= hs <= hi + 1e-13:
            raise SingularityError(
                f"propagation interval [{lo}, {hi}] crosses the singular level h={hs}")


def propagate(from_h: float, values0, to_h: float, params: ModelParams,
              tol: float = 1e-12) -> np.ndarray:
    """Propagate the six-moment vector along the linear ODE from one level
    to another inside a singularity-free window."""
    if from_h == to_h:
        return np.asarray(values0, dtype=float).copy()
    _check_no_singularity_between(from_h, to_h, params)
    sol = solve_ivp(
        lambda hh, v: np.linalg.solve(pf_matrix(hh, params), v),
        (from_h, to_h), np.asarray(values0, dtype=float),
        method="DOP853", rtol=tol, atol=1e-3 * tol * np.max(np.abs(values0)) + 1e-300,
    )
    if not sol.success:
        raise ConvergenceError(f"propagation failed: {sol.message}")
    return sol.y[:, -1]


class PFPropagation:
    """Dense propagation of the six moments across a window, initialized
    from the quadrature oracle at the window midpoint (both window endpoints
    are singular levels, the midpoint is maximally conditioned).

    Provides pointwise values/derivatives of any order up to three through
    the exact ODE chain, for vectorized evaluation on level grids.
    """

    def __init__(self, params: ModelParams, lo: float | None = None,
                 hi: float | None = None, tol: float = 1e-12,
                 margin: float = 1e-8, oracle_tol: float = 1e-10):
        self.params = params
        hc, hs = params.center_h, params.saddle_h
        self.lo = hc + margin if lo is None else lo
        self.hi = hs - margin if hi is None else hi
        if not (hc < self.lo < self.hi < hs):
            raise DomainError("PFPropagation window must sit inside the annulus interval")
        self.h_mid = 0.5 * (self.lo + self.hi)
        self.v_mid = basis_values(self.h_mid, params, tol=oracle_tol)
        rhs = lambda hh, v: np.linalg.solve(pf_matrix(hh, params), v)
        kw = dict(method="DOP853", rtol=tol, dense_output=True,
                  atol=1e-3 * tol * np.max(np.abs(self.v_mid)))
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
        """The primed six-vector at a scalar level, or (6, n) at n levels:
        B is affine in h, so the n matrices B(0) + h B' get one batched cond
        check and one batched solve (per level the same as ``pf_derivatives``)."""
        h = np.asarray(h, dtype=float)
        if h.ndim == 0:
            return pf_derivatives(float(h), self.values(h), self.params)
        vals = self.values(h)
        B = pf_matrix(0.0, self.params) + h[:, None, None] * _B_PRIME
        cond = np.linalg.cond(B)
        bad = ~np.isfinite(cond) | (cond > COND_LIMIT)
        if np.any(bad):
            i = np.argmax(bad)
            raise SingularityError(
                f"Picard-Fuchs matrix nearly singular at h={h[i]}: cond(B) = {cond[i]:.3e}")
        return np.linalg.solve(B, vals.T[:, :, None])[:, :, 0].T

    def chain(self, h: float):
        return pf_derivative_chain(float(h), self.values(float(h)), self.params)

    def pf_vector(self, h: float) -> PFVector:
        v = self.values(float(h))
        return PFVector(h=float(h), values=v, derivs=pf_derivatives(float(h), v, self.params))


# ---------------------------------------------------------------------------
# closed-form derivative formulas for (J1, J2) = (I00', I11')
# ---------------------------------------------------------------------------

def _pole_guard(h: float, params: ModelParams):
    k = params.kappa
    if abs(9.0 * h * h - 4.0) < 1e-12 or abs(9.0 * k * h * h - 4.0) < 1e-12:
        raise SingularityError(f"derivative formulas have a pole at h={h}")


def derivative_formulas(order: str, h: float, J1: float, J2: float,
                        params: ModelParams) -> np.ndarray:
    """The closed rational expressions for (I00'', I11'') or
    (I00''', I11''') in terms of (J1, J2) = (I00', I11')."""
    _pole_guard(h, params)
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


def apply_s_operator(g, g1, g2, s):
    """The hypergeometric-type operator in the variable s:
    s (1 - s) d^2/ds^2 - (1/2) d/ds - 5/36."""
    return s * (1.0 - s) * g2 - 0.5 * g1 - (5.0 / 36.0) * g


def l2_chain_factor(s: float, params: ModelParams) -> float:
    """Under h = -(2/3) sqrt(s/kappa) the operator L2 in h equals
    24 sqrt(kappa s) times the s-operator; the factor never vanishes on
    (1, kappa), so zero counts transfer unchanged."""
    return 24.0 * math.sqrt(params.kappa * s)


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


def initial_jstate(s0: float, params: ModelParams, oracle_tol: float = 1e-10) -> JState:
    """JState at a real s0 in (1, kappa) from the quadrature oracle: the
    first column of W is the geometric solution J, the second the unit
    vector (0, 1) (independent since J1 != 0)."""
    if not (1.0 < s0 < params.kappa):
        raise DomainError(f"s0={s0} outside (1, kappa)")
    h0 = h_from_s(s0, params)
    d = pf_derivatives(h0, basis_values(h0, params, tol=oracle_tol), params)
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


def _piece_legal(piece, kappa: float, eps_min: float):
    ts = np.linspace(0.0, 1.0, 257)
    z = piece.point(ts)
    for sing in (1.0 + 0.0j, complex(kappa)):
        d = np.min(np.abs(z - sing))
        if isinstance(piece, Line):
            # exact point-to-segment distance
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
    """Analytic continuation of J and W along a sequence of path pieces.

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


def infinity_exponents(params: ModelParams, s1_mult: float = 1e3,
                       s2_mult: float = 1e5, tol: float = 1e-12):
    """Growth exponents of the two characteristic solutions at s = infinity,
    fitted from the eigenvalues of the transfer matrix between two radii on
    the real axis beyond kappa (expected {-1/6, +1/6})."""
    k = params.kappa
    s0, s1, s2 = 10.0 * k, s1_mult * k, s2_mult * k
    W = np.eye(2, dtype=complex)
    state = JState(s=complex(s0), J=W[:, 0].copy(), W=W)
    state = continue_state([Line(complex(s0), complex(s1))], state, params, tol=tol)
    W1 = state.W.copy()
    state = continue_state([Line(complex(s1), complex(s2))], state, params, tol=tol)
    T = state.W @ np.linalg.inv(W1)
    ev = np.linalg.eigvals(T)
    return np.sort(np.log(np.abs(ev)) / math.log(s2 / s1))
