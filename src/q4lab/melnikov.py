"""Assembly of G = L1(I) and R = L2(G), and exact extraction of R's
rational-function coefficients.

With the derivative pair J1 = I00', J2 = I11' and the combination
JJ = -4h I-10' + (3 kappa h^2 - 4) I-11', the normal form is

    G(h) = (nu1 h^2 + nu3) J1 + nu2 J2 + nu4 JJ,

where (nu1..nu4) are the G-stage weights (see
:func:`q4lab.reduction.mu_G_from_eq211` for the conversion from the
canonical stage).  R = L2(G) collapses to

    R(h) = h [ (a0 + a1 h^2 + a2 h^4 + a3 h^6) J1
             + (b0 + b1 h^2 + b2 h^4) J2 ] / [ (9h^2-4)^2 (9 kappa h^2-4) ]

with a_j, b_j linear in nu.  Two independent numerical routes to R are
implemented: the closed-form derivative formulas on the closed-form J
(``direct``) against differentiation of the six-moment ODE propagated by
DOP853 (``pf_numeric``), plus a once-per-kappa exact symbolic extraction of
(a_j, b_j) over Fraction arithmetic that never leaves this package.  G is
evaluated on ``MomentBasis`` (closed-form J and series moments), so neither
G nor the direct R solves an ODE.

The propagation, the moment basis and the R coefficients are built once per
kappa from ``make_params(kappa)`` and kept in ``functools`` caches behind
``get_propagation``, ``get_moment_basis`` and ``extract_R_coeffs``, so a
cached object never holds a caller's weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, DomainError
from .model import ModelParams, make_params, s_from_h
from .picard_fuchs import (
    MomentBasis,
    PFPropagation,
    apply_L2,
    derivative_formulas,
    hypergeometric_J,
)
from .ratfunc import Poly, RatF

CENTER_Z = 0.25     # below this z the unit rows of R use the center expansion
CENTER_TERMS = 30   # its Taylor terms in z


def get_propagation(params: ModelParams) -> PFPropagation:
    """Dense six-moment propagation across the annulus window, cached per
    kappa (moments never depend on the perturbation weights); the ODE
    route, kept as the independent check."""
    return _propagation(params.kappa)


@functools.cache
def _propagation(kappa: float) -> PFPropagation:
    return PFPropagation(make_params(kappa))


def get_moment_basis(params: ModelParams) -> MomentBasis:
    """The six moments without an ODE solver (``MomentBasis``), cached per
    kappa."""
    return _moment_basis(params.kappa)


@functools.cache
def _moment_basis(kappa: float) -> MomentBasis:
    return MomentBasis(make_params(kappa))


def eval_G(h: float, params: ModelParams) -> float:
    """G(h) for the G-stage weights stored on ``params``, with J and JJ from
    the cached ``MomentBasis``."""
    n1, n2, n3, n4 = params.mu
    basis = get_moment_basis(params)
    J1, J2 = basis.J(h)
    return (n1 * h * h + n3) * J1 + n2 * J2 + n4 * basis.JJ(h, J2)


def eval_G_prime(h: float, params: ModelParams):
    """(G, G', G'') by exact differentiation of the six-moment ODE along the
    cached DOP853 propagation."""
    return G_from_chain(h, get_propagation(params).chain(h), params)


def G_from_chain(h: float, chain, params: ModelParams):
    """(G, G', G'') at h for the weights on ``params``, from ``PFPropagation.chain(h)``."""
    d1, d2, d3 = chain
    n1, n2, n3, n4 = params.mu
    k = params.kappa
    G = ((n1 * h * h + n3) * d1[0] + n2 * d1[3]
         + n4 * (-4.0 * h * d1[4] + (3.0 * k * h * h - 4.0) * d1[5]))
    Gp = (2.0 * n1 * h * d1[0] + (n1 * h * h + n3) * d2[0] + n2 * d2[3]
          + n4 * (-4.0 * d1[4] - 4.0 * h * d2[4] + 6.0 * k * h * d1[5]
                  + (3.0 * k * h * h - 4.0) * d2[5]))
    Gpp = (2.0 * n1 * d1[0] + 4.0 * n1 * h * d2[0] + (n1 * h * h + n3) * d3[0]
           + n2 * d3[3]
           + n4 * (-8.0 * d2[4] - 4.0 * h * d3[4] + 6.0 * k * d1[5]
                   + 12.0 * k * h * d2[5] + (3.0 * k * h * h - 4.0) * d3[5]))
    return G, Gp, Gpp


def eval_R(h: float, params: ModelParams, route: str = "direct") -> float:
    """R(h) = L2(G)(h) by one of two independent routes.

    ``direct``      L2 applied termwise to the normal form, using
                    the closed second/third derivative formulas for the
                    J-dependent terms and the closed-form image identity for the
                    L2-image of JJ, on the closed-form J
                    (``hypergeometric_J`` at s = ``s_from_h(h)``).
    ``pf_numeric``  apply_L2 on (G, G', G'') obtained by differentiating
                    the closed six-moment linear ODE along the cached DOP853
                    propagation (``eval_G_prime``).
    """
    k = params.kappa
    if route == "pf_numeric":
        return apply_L2(*eval_G_prime(h, params), h, params)
    if route != "direct":
        raise DomainError(f"unknown route {route!r}")
    J1, J2 = hypergeometric_J(s_from_h(h, params), params)[:, 0]
    n1, n2, n3, n4 = params.mu
    i200, i211 = derivative_formulas("second", h, J1, J2, params)
    i300, i311 = derivative_formulas("third", h, J1, J2, params)
    # term (nu1 h^2 + nu3) J1
    f, fp, fpp = n1 * h * h + n3, 2.0 * n1 * h, 2.0 * n1
    u = f * J1
    up = fp * J1 + f * i200
    upp = fpp * J1 + 2.0 * fp * i200 + f * i300
    out = apply_L2(u, up, upp, h, params)
    # term nu2 J2
    out += n2 * apply_L2(J2, i211, i311, h, params)
    # term nu4 JJ through the closed-form L2-image identity
    out += n4 * (4.0 / 3.0) * (k - 1.0) * (
        h * (9.0 * k * h * h - 4.0) * i311 + (6.0 * k * h * h + 8.0) * i211)
    return out


# ---------------------------------------------------------------------------
# exact extraction of the rational-template coefficients of R
# ---------------------------------------------------------------------------

def center_z(h, kappa: float):
    """z = (kappa - s) / (kappa - 1) at the levels h, the variable of the
    center series; ``unit_rows`` switches to that series where z < CENTER_Z."""
    return kappa * (1.0 - 1.5 * h) * (1.0 + 1.5 * h) / (kappa - 1.0)


def _pair_derive(p: RatF, q: RatF, M):
    """d/dh of p J1 + q J2 as a new (p, q) pair, via J' = M J."""
    M11, M12, M21, M22 = M
    return (p.deriv() + p * M11 + q * M21, q.deriv() + p * M12 + q * M22)


def _pair_L2(p: RatF, q: RatF, kf: Fraction, M):
    h = RatF(Poly.x())
    p1, q1 = _pair_derive(p, q, M)
    p2, q2 = _pair_derive(p1, q1, M)
    c0 = 5 * kf * h
    c1 = RatF(Poly([-8, 0, 9 * kf]))
    c2 = h * RatF(Poly([-4, 0, 9 * kf]))
    return (c0 * p - c1 * p1 + c2 * p2, c0 * q - c1 * q1 + c2 * q2)


def j_matrix(kf: Fraction):
    """(M11, M12, M21, M22) with J' = M J at kappa = kf, from the closed
    formulas for (I00'', I11'') in terms of (J1, J2)."""
    d1 = Poly([-4, 0, 9])           # 9h^2 - 4
    delta = d1 * Poly([-4, 0, 9 * kf])
    return (RatF(Poly([0, -3]), d1), RatF(Poly([0, 12 * (kf - 1)]), delta),
            RatF(Poly([0, -3]), d1), RatF(Poly([0, 3]), d1))


def jj_image(kf: Fraction, M):
    """L2(JJ) as a (p, q) pair: the closed-form image identity through
    I11'' and I11'''."""
    d2pair = _pair_derive(RatF(0), RatF(1), M)
    d3pair = _pair_derive(*d2pair, M)
    c_third = RatF(Poly([0, -4, 0, 9 * kf])) * Fraction(4, 3) * (kf - 1)
    c_second = RatF(Poly([8, 0, 6 * kf])) * Fraction(4, 3) * (kf - 1)
    return (c_third * d3pair[0] + c_second * d2pair[0],
            c_third * d3pair[1] + c_second * d2pair[1])


@dataclass(frozen=True)
class RCoefficients:
    """Exact coefficients of the R template for one kappa: a_j, b_j as
    linear forms over the G-stage weights (nu1..nu4), Fraction entries;
    ``a_float``, ``b_float`` hold them as float matrices, converted once."""

    kappa: float
    a: tuple  # 4 linear forms, each a 4-tuple of Fractions
    b: tuple  # 3 linear forms

    @functools.cached_property
    def a_float(self) -> np.ndarray:
        return np.array(self.a, dtype=float)

    @functools.cached_property
    def b_float(self) -> np.ndarray:
        return np.array(self.b, dtype=float)

    def a_values(self, mu) -> np.ndarray:
        return np.array([sum(c * m for c, m in zip(row, mu)) for row in self.a_float])

    def b_values(self, mu) -> np.ndarray:
        return np.array([sum(c * m for c, m in zip(row, mu)) for row in self.b_float])

    @functools.cached_property
    def center_series(self) -> np.ndarray:
        """Taylor coefficients in z = (kappa - s) / (kappa - 1) of the
        template numerator A J1 + B J2 over c z^2, one row per unit weight,
        shape (4, CENTER_TERMS), c = pi / sqrt(kappa - 1).

        At the center z = 0, h^2 = (4/9)(1 - q z) with q = (kappa - 1)/kappa,
        J1 / c = sum alpha_n z^n and J2 / c = (1 - z) J1 / c + (5/6) z
        sum beta_n z^n are the 2F1 series of ``hypergeometric_J``, and the
        template's (9h^2 - 4)^2 is (4 q z)^2.  So the numerator's z^0 and z^1
        terms cancel exactly (ConsistencyError otherwise); in floating point
        that cancellation leaves the template no digits next to the center.
        """
        kf = Fraction(self.kappa)
        q = (kf - 1) / kf
        n = CENTER_TERMS + 2
        alpha, beta = [Fraction(1)], [Fraction(1)]
        for j in range(n - 1):
            sixth, five_sixths = Fraction(1, 6) + j, Fraction(5, 6) + j
            alpha.append(alpha[-1] * sixth * five_sixths / (j + 1) ** 2)
            beta.append(beta[-1] * five_sixths * sixth / ((j + 2) * (j + 1)))
        gamma = [alpha[0]] + [alpha[j] - alpha[j - 1] + Fraction(5, 6) * beta[j - 1]
                              for j in range(1, n)]
        h2 = Poly([Fraction(4, 9), Fraction(-4, 9) * q])
        powers = [Poly([1])]
        for _ in range(3):
            powers.append(powers[-1] * h2)
        rows = []
        for m in range(4):
            A = sum((powers[i] * self.a[i][m] for i in range(4)), Poly([0]))
            B = sum((powers[i] * self.b[i][m] for i in range(3)), Poly([0]))
            num = (A * Poly(alpha) + B * Poly(gamma)).c + (Fraction(0),) * n
            if num[0] != 0 or num[1] != 0:
                raise ConsistencyError(
                    f"R numerator of unit weight {m + 1} does not vanish to second "
                    f"order at the center: z^0 {num[0]}, z^1 {num[1]}")
            rows.append([float(x) for x in num[2:n]])
        return np.array(rows)

    def unit_rows(self, h, J1, J2) -> np.ndarray:
        """The R template of each unit weight at the levels h, shape (4, n):
        from ``center_series`` where z < CENTER_Z, else directly.  A row can
        differ in its last bits with the layout of h, since ``np.power`` takes
        other loops on contiguous and on strided arrays; the tests check that
        rows on the scanner's grid (a reversed view) equal one-level calls."""
        k = self.kappa
        A = self.a_float[:, :, None]
        B = self.b_float[:, :, None]
        den = (9.0 * h * h - 4.0) ** 2 * (9.0 * k * h * h - 4.0)
        rows = h * ((A[0] + A[1] * h**2 + A[2] * h**4 + A[3] * h**6) * J1
                    + (B[0] + B[1] * h**2 + B[2] * h**4) * J2) / den
        z = center_z(h, k)
        near = z < CENTER_Z
        if np.any(near):
            hn, zp = h[near], z[near][:, None, None] ** np.arange(CENTER_TERMS)
            series = (self.center_series * zp).sum(axis=-1).T
            c = math.pi / math.sqrt(k - 1.0)
            rows[:, near] = (hn * k * k * c * series
                             / (16.0 * (k - 1.0) ** 2 * (9.0 * k * hn * hn - 4.0)))
        return rows

    def template(self, h: float, J1: float, J2: float, mu) -> float:
        """Evaluate the rational template of R with these coefficients."""
        av, bv = self.a_values(mu), self.b_values(mu)
        h2 = h * h
        num = h * ((av[0] + av[1] * h2 + av[2] * h2**2 + av[3] * h2**3) * J1
                   + (bv[0] + bv[1] * h2 + bv[2] * h2**2) * J2)
        den = (9.0 * h2 - 4.0) ** 2 * (9.0 * self.kappa * h2 - 4.0)
        return num / den

    def as_text(self) -> str:
        lines = [f"# exact R-template coefficients at kappa = {Fraction(self.kappa)}",
                 "# numerator h*( (a0+a1 h^2+a2 h^4+a3 h^6) J1 + (b0+b1 h^2+b2 h^4) J2 )",
                 "# denominator (9h^2-4)^2 (9 kappa h^2-4); weights are G-stage nu1..nu4"]
        for name, rows in (("a", self.a), ("b", self.b)):
            for idx, row in enumerate(rows):
                terms = " + ".join(f"({c})*nu{m + 1}" for m, c in enumerate(row) if c != 0)
                lines.append(f"{name}{idx} = {terms if terms else '0'}")
        return "\n".join(lines)


def extract_R_coeffs(params: ModelParams) -> RCoefficients:
    """Carry out the substitution of the closed derivative formulas into
    L2(G) exactly, over Fractions, and clear denominators to the rational
    template.  Raises ConsistencyError if the rational function fails to
    cancel to the template's denominator and parity."""
    return _r_coeffs(params.kappa)


@functools.cache
def _r_coeffs(kappa: float) -> RCoefficients:
    kf = Fraction(kappa)
    d1 = Poly([-4, 0, 9])           # 9h^2 - 4
    d2 = Poly([-4, 0, 9 * kf])      # 9 kappa h^2 - 4
    M = j_matrix(kf)
    zero, one = RatF(0), RatF(1)
    h2 = RatF(Poly([0, 0, 1]))

    pairs = []
    # nu1, nu2, nu3 terms go through L2 directly
    pairs.append(_pair_L2(h2, zero, kf, M))
    pairs.append(_pair_L2(zero, one, kf, M))
    pairs.append(_pair_L2(one, zero, kf, M))
    pairs.append(jj_image(kf, M))

    dstd = RatF(d1 * d1 * d2)
    a_rows, b_rows = [[], [], [], []], [[], [], []]
    for p, q in pairs:
        cleared = []
        for r in (p, q):
            rp = r * dstd
            if not rp.is_poly():
                raise ConsistencyError(
                    f"R numerator failed to cancel to the template denominator: {rp.den!r}")
            cleared.append(rp.as_poly())
        pnum, qnum = cleared
        if pnum.degree > 7 or qnum.degree > 5:
            raise ConsistencyError("R numerator exceeds the template degrees")
        for poly in (pnum, qnum):
            for pw, coef in enumerate(poly.c):
                if pw % 2 == 0 and coef != 0:
                    raise ConsistencyError("R numerator has an even-power term")
        for idx in range(4):
            a_rows[idx].append(pnum.c[2 * idx + 1] if pnum.degree >= 2 * idx + 1 else Fraction(0))
        for idx in range(3):
            b_rows[idx].append(qnum.c[2 * idx + 1] if qnum.degree >= 2 * idx + 1 else Fraction(0))

    return RCoefficients(kappa=kappa, a=tuple(tuple(row) for row in a_rows),
                         b=tuple(tuple(row) for row in b_rows))
