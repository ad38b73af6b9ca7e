"""Assembly of G = L1(I) and R = L2(G), and the exact coefficients of R's
rational template in closed form.

With the derivative pair J1 = I00', J2 = I11' and the combination
JJ = -4h I-10' + (3 kappa h^2 - 4) I-11', the normal form is

    G(h) = (nu1 h^2 + nu3) J1 + nu2 J2 + nu4 JJ,

where (nu1..nu4) are the G-stage weights (see
:func:`q4lab.reduction.mu_G_from_eq211` for the conversion from the
canonical stage), weighed over ``reduction.G_rows``; ``G_from_chain`` weighs
them on jets, so G' and G'' follow from ``_Jet``'s Leibniz rule.  R = L2(G) is

    R(h) = h [ (a0 + a1 h^2 + a2 h^4 + a3 h^6) J1
             + (b0 + b1 h^2 + b2 h^4) J2 ] / [ (9h^2-4)^2 (9 kappa h^2-4) ]

with a_j, b_j linear in nu.  Two independent numerical routes to R are
implemented: the closed-form derivative formulas on the closed-form J
(``direct``) against differentiation of the six-moment ODE propagated by
Taylor steps from the quadrature oracle (``pf_numeric``).  The exact (a_j, b_j) are integer cubics in kappa
(``_A_TABLE``, ``_B_TABLE``), evaluated at Fraction(kappa); the test suite
derives the table from the exact substitution into L2(G).  G is
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
    _Jet,
    apply_L2,
    derivative_formulas,
    hypergeometric_J,
    series_sum,
)
from .reduction import G_rows, weigh

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
    """G(h) for the G-stage weights stored on ``params``: ``weigh`` over the
    ``G_rows`` of the cached ``MomentBasis``."""
    basis = get_moment_basis(params)
    J1, J2 = basis.J(h)
    return weigh(params.mu, G_rows(h, J1, J2, basis.JJ(h, J2)))


def eval_G_prime(h: float, params: ModelParams):
    """(G, G', G'') by exact differentiation of the six-moment ODE along the
    cached Taylor-step propagation (``PFPropagation``)."""
    return G_from_chain(h, get_propagation(params).chain(h), params)


def G_from_chain(h: float, chain, params: ModelParams):
    """(G, G', G'') at h for the weights on ``params``: the ``G_rows`` weighed
    on jets, V'_i = (d1[i], d2[i], d3[i]) of ``PFPropagation.chain(h)`` and h."""
    H, D = _Jet((h, 1.0, 0.0)), [_Jet(d) for d in zip(*chain)]
    JJ = -4.0 * H * D[4] + (3.0 * params.kappa * H * H - 4.0) * D[5]
    return weigh(params.mu, G_rows(H, D[0], D[3], JJ)).f


def eval_R(h: float, params: ModelParams, route: str = "direct") -> float:
    """R(h) = L2(G)(h) by one of two independent routes.

    ``direct``      L2 applied termwise to the normal form, using
                    the closed second/third derivative formulas for the
                    J-dependent terms and the closed-form image identity for the
                    L2-image of JJ, on the closed-form J
                    (``hypergeometric_J`` at s = ``s_from_h(h)``).
    ``pf_numeric``  apply_L2 on (G, G', G'') obtained by differentiating
                    the closed six-moment linear ODE along the cached
                    Taylor-step propagation (``eval_G_prime``).
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
# the rational-template coefficients of R in closed form
# ---------------------------------------------------------------------------

def center_z(h, kappa: float):
    """z = (kappa - s) / (kappa - 1) at the levels h, the variable of the
    center series; ``RCoefficients.switch`` is the level where z = CENTER_Z."""
    return kappa * (1.0 - 1.5 * h) * (1.0 + 1.5 * h) / (kappa - 1.0)


# Entry [j][m] = (c0, c1, c2, c3) is the coefficient of nu_{m+1} in a_j (b_j)
# as the integer cubic c0 + c1 kappa + c2 kappa^2 + c3 kappa^3.  The table is
# the exact substitution of J' = M J into L2(G), cleared to the template's
# denominator, interpolated through kappa = 2..6 (the kappa^4 terms vanish);
# tests/test_melnikov.py::TestTemplateTable rederives it that way and checks
# it at other kappas.
_A_TABLE = (
    ((-512, 0, 0, 0), (-192, 0, 0, 0), (-192, -320, 0, 0), (256, -256, 0, 0)),
    ((2880, 832, 0, 0), (1296, 432, 0, 0), (1296, 2016, 720, 0), (-1728, 2112, -384, 0)),
    ((-3024, -6624, 720, 0), (0, -4860, 0, 0), (0, -6804, -3564, 0), (0, 4320, -6480, 2160)),
    ((0, 6804, 324, 0), (0, 0, 4374, 0), (0, 0, 8748, 0), (0, 0, -972, 972)),
)
_B_TABLE = (
    ((0, 0, 0, 0), (192, -320, 0, 0), (192, -192, 0, 0), (-256, 256, 0, 0)),
    ((-576, 576, 0, 0), (-1296, 1152, 720, 0), (-1296, 432, 864, 0), (1728, -2304, 576, 0)),
    ((432, 432, -864, 0), (0, 2916, -3564, 0), (0, 3888, -3888, 0), (0, -3888, 6480, -2592)),
)


def _center_2f1(n: int):
    """The first n Taylor coefficients in z of J1 / c (alpha) and J2 / c
    (gamma), as integers over their common denominator: J1 / c = F(1/6, 5/6;
    1; z) and J2 / c = (1 - z) J1 / c + (5/6) z F(5/6, 1/6; 2; z), with beta
    the coefficients of the latter 2F1."""
    alpha, beta = [Fraction(1)], [Fraction(1)]
    for j in range(n - 1):
        sixth, five_sixths = Fraction(1, 6) + j, Fraction(5, 6) + j
        alpha.append(alpha[-1] * sixth * five_sixths / (j + 1) ** 2)
        beta.append(beta[-1] * five_sixths * sixth / ((j + 2) * (j + 1)))
    gamma = [alpha[0]] + [alpha[j] - alpha[j - 1] + Fraction(5, 6) * beta[j - 1]
                          for j in range(1, n)]
    den = math.lcm(*(x.denominator for x in alpha + gamma))
    return (tuple(int(x * den) for x in alpha), tuple(int(x * den) for x in gamma), den)


_ALPHA, _GAMMA, _ALPHA_GAMMA_DEN = _center_2f1(CENTER_TERMS + 2)


@dataclass(frozen=True)
class RCoefficients:
    """Exact coefficients of the R template for one kappa: a_j, b_j as
    linear forms over the G-stage weights (nu1..nu4), Fraction entries
    (``extract_R_coeffs`` fills them from the closed-form table; any
    Fractions are accepted); ``a_float``, ``b_float`` hold them as float
    matrices, converted once."""

    kappa: float
    a: tuple  # 4 linear forms, each a 4-tuple of Fractions
    b: tuple  # 3 linear forms

    @functools.cached_property
    def a_float(self) -> np.ndarray:
        return np.array(self.a, dtype=float)

    @functools.cached_property
    def b_float(self) -> np.ndarray:
        return np.array(self.b, dtype=float)

    @functools.cached_property
    def switch(self) -> float:
        """The level where z = CENTER_Z: ``unit_rows`` sums the center series
        at the levels below it and the direct form from it up."""
        k = self.kappa
        return -(2.0 / 3.0) * math.sqrt(1.0 - CENTER_Z * (k - 1.0) / k)

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

        The sums run in Python integers over one common denominator: that of
        alpha and gamma (module constants), (9 N)^3 for kappa = N / D, and
        the lcm of this object's a, b denominators.  Each entry is one
        correctly rounded integer division, so the floats are those of the
        exact Fractions.
        """
        num, den = Fraction(self.kappa).as_integer_ratio()
        # (9 num)^3 h^(2i) = 4^i (9 num)^(3 - i) (num + (den - num) z)^i
        h2 = [[4**i * (9 * num) ** (3 - i) * math.comb(i, t) * num ** (i - t) * (den - num) ** t
               for t in range(i + 1)] for i in range(4)]
        scale = math.lcm(*(c.denominator for row in self.a + self.b for c in row))
        total = scale * (9 * num) ** 3 * _ALPHA_GAMMA_DEN
        n = CENTER_TERMS + 2
        rows = []
        for m in range(4):
            A, B = [0] * 4, [0] * 3
            for coefs, poly in ((self.a, A), (self.b, B)):
                for i, row in enumerate(coefs):
                    c = row[m].numerator * (scale // row[m].denominator)
                    for t, e in enumerate(h2[i]):
                        poly[t] += c * e
            out = [sum(A[t] * _ALPHA[k - t] for t in range(min(k, 3) + 1))
                   + sum(B[t] * _GAMMA[k - t] for t in range(min(k, 2) + 1))
                   for k in range(n)]
            if out[0] != 0 or out[1] != 0:
                raise ConsistencyError(
                    f"R numerator of unit weight {m + 1} does not vanish to second order "
                    f"at the center: z^0 {Fraction(out[0], total)}, "
                    f"z^1 {Fraction(out[1], total)}")
            rows.append([x / total for x in out[2:]])
        return np.array(rows)

    def direct_rows(self, h, J1, J2, inv1, inv2):
        """R's template of each unit weight, h (A(h^2) J1 + B(h^2) J2) inv1^2 inv2,
        inv1 = 1/(9h^2 - 4), inv2 = 1/(9 kappa h^2 - 4); for arrays and jets."""
        a, b = self.a_float[:, :, None], self.b_float[:, :, None]
        h2 = h * h
        return (h * ((a[0] + a[1] * h2 + a[2] * h2 * h2 + a[3] * h2 * h2 * h2) * J1
                     + (b[0] + b[1] * h2 + b[2] * h2 * h2) * J2) * inv1 * inv1 * inv2)

    def center_rows(self, h, S, inv2):
        """The template as kappa^2 c h S inv2 / (16 (kappa - 1)^2), S the rows of
        ``center_series`` summed at ``center_z(h)``; for arrays and jets."""
        k = self.kappa
        return k * k * (math.pi / math.sqrt(k - 1.0)) / (16.0 * (k - 1.0) ** 2) * h * S * inv2

    def unit_rows(self, h, J1, J2) -> np.ndarray:
        """The R template of each unit weight at the levels h (1-d), shape
        (4, n): ``center_rows`` below ``switch``, else ``direct_rows``, each
        formed on its own levels only.  A level's row depends neither on the
        layout of h nor on the other levels."""
        inv2 = 1.0 / (9.0 * self.kappa * h * h - 4.0)
        near = h < self.switch
        if not near.any():  # the saddle side, where most tangency fits run: no copies
            return self.direct_rows(h, J1, J2, 1.0 / (9.0 * h * h - 4.0), inv2)
        rows, far = np.empty((4, h.size)), ~near
        if far.any():
            hd = h[far]
            rows[:, far] = self.direct_rows(hd, J1[far], J2[far], 1.0 / (9.0 * hd * hd - 4.0),
                                            inv2[far])
        hn = h[near]
        S = series_sum(self.center_series[:, None], center_z(hn, self.kappa))
        rows[:, near] = self.center_rows(hn, S, inv2[near])
        return rows

    def template(self, h: float, J1: float, J2: float, mu) -> float:
        """R's template for the weights mu at the level h: ``weigh`` over the
        ``unit_rows`` there, the representation the scanner counts on."""
        rows = self.unit_rows(np.array([h]), np.array([J1]), np.array([J2]))
        return float(weigh(mu, rows[:, 0]))

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
    """The exact R-template coefficients at kappa: the integer cubics of
    ``_A_TABLE`` and ``_B_TABLE`` evaluated at Fraction(kappa)."""
    return _r_coeffs(params.kappa)


@functools.cache
def _r_coeffs(kappa: float) -> RCoefficients:
    kf = Fraction(kappa)

    def rows(table):
        return tuple(tuple(((c3 * kf + c2) * kf + c1) * kf + c0 for c0, c1, c2, c3 in row)
                     for row in table)

    return RCoefficients(kappa=kappa, a=rows(_A_TABLE), b=rows(_B_TABLE))
