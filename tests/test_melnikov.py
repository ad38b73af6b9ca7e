from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from q4lab import make_params
from q4lab.errors import ConsistencyError, DomainError
from q4lab.model import interior_levels, s_from_h
from q4lab.picard_fuchs import apply_L1, hypergeometric_J
from q4lab.reduction import assemble_I, mu_G_from_eq211
from q4lab.melnikov import (
    _A_TABLE,
    _B_TABLE,
    CENTER_TERMS,
    G_from_chain,
    RCoefficients,
    eval_G,
    eval_G_prime,
    eval_R,
    extract_R_coeffs,
    get_moment_basis,
    get_propagation,
)
from ratfunc import Poly, RatF


# ---------------------------------------------------------------------------
# the generic extraction of the R template over ratfunc: the oracle from
# which melnikov's closed-form table is derived
# ---------------------------------------------------------------------------

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


def generic_r_coeffs(kf: Fraction):
    """(a, b) of the R template at kappa = kf: the closed derivative formulas
    substituted into L2(G) exactly and cleared to the template's denominator.
    Raises ConsistencyError if the result fails to cancel to that
    denominator, exceeds its degrees or has an even power of h."""
    d1 = Poly([-4, 0, 9])           # 9h^2 - 4
    d2 = Poly([-4, 0, 9 * kf])      # 9 kappa h^2 - 4
    M = j_matrix(kf)
    zero, one = RatF(0), RatF(1)
    h2 = RatF(Poly([0, 0, 1]))
    # nu1, nu2, nu3 terms go through L2 directly, nu4 through the JJ image
    pairs = [_pair_L2(h2, zero, kf, M), _pair_L2(zero, one, kf, M),
             _pair_L2(one, zero, kf, M), jj_image(kf, M)]

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
    return tuple(tuple(row) for row in a_rows), tuple(tuple(row) for row in b_rows)


def poly_center_series(rc: RCoefficients) -> np.ndarray:
    """``RCoefficients.center_series`` by Fraction polynomial products over
    ``ratfunc.Poly``, term by term as the series is defined."""
    kf = Fraction(rc.kappa)
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
        A = sum((powers[i] * rc.a[i][m] for i in range(4)), Poly([0]))
        B = sum((powers[i] * rc.b[i][m] for i in range(3)), Poly([0]))
        num = (A * Poly(alpha) + B * Poly(gamma)).c + (Fraction(0),) * n
        if num[0] != 0 or num[1] != 0:
            raise ConsistencyError(f"unit weight {m + 1} has no double zero at the center")
        rows.append([float(x) for x in num[2:n]])
    return np.array(rows)


def _interpolate(xs, ys):
    """Exact coefficients c_0..c_{n-1} of the polynomial through (xs, ys)."""
    coef = [Fraction(0)] * len(xs)
    for i, xi in enumerate(xs):
        basis, scale = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [Fraction(0)] + basis
                for t in range(len(basis) - 1):
                    basis[t] -= xj * basis[t + 1]
                scale *= xi - xj
        for t, b in enumerate(basis):
            coef[t] += ys[i] * b / scale
    return coef


# kappas at which the closed forms meet the generic routes: dyadic, integer,
# next to 1, large, and seeded random floats
CHECK_KAPPAS = [1.5, 4.0, 9.0, 1.0 + 2.0**-40, 1000.0] + [
    float(k) for k in np.random.default_rng(20261018).uniform(1.01, 50.0, size=10)]


def G_from_chain_by_hand(h, chain, params):
    """(G, G', G'') with the Leibniz rule expanded by hand, as
    ``G_from_chain`` computed them before it weighed the G rows on jets."""
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


class TestEvalG:
    def test_zero_weights(self, p2):
        assert eval_G(-0.55, replace(p2, mu=(0.0, 0.0, 0.0, 0.0))) == 0.0

    def test_matches_L1_of_assembled_I(self, rng):
        mu = tuple(rng.normal(size=4))
        p = make_params(4.0, mu=mu)
        pG = replace(p, mu=tuple(mu_G_from_eq211(mu, 4.0)))
        for h in (-0.5, -0.42):
            dh = 1e-6
            Iprime = (assemble_I(h + dh, p) - assemble_I(h - dh, p)) / (2 * dh)
            lhs = apply_L1(assemble_I(h, p), Iprime, h)
            assert lhs == pytest.approx(eval_G(h, pG), rel=1e-6)

    def test_pure_nu2_is_J2(self, p4):
        pG = replace(p4, mu=(0.0, 1.0, 0.0, 0.0))
        basis, prop = get_moment_basis(p4), get_propagation(p4)
        for h in (-0.5, -0.6):
            assert eval_G(h, pG) == basis.J(h)[1]
            # the propagation route carries its own error: 1.1e-15 at -0.5 and
            # 1.6e-15 at -0.6 (DOP853 was 3.1e-12 off at -0.6)
            assert eval_G(h, pG) == pytest.approx(prop.derivs(h)[3], rel=1e-11)

    def test_J2_positive_on_annulus(self, p4):
        # I11' is (a multiple of) a complete elliptic integral of the second
        # kind; it stays positive across the annulus
        pG = replace(p4, mu=(0.0, 1.0, 0.0, 0.0))
        for h in interior_levels(p4, 16, 0.02, 0.98):
            assert eval_G(h, pG) > 0

    def test_G_prime_consistent_with_fd(self, rng):
        mu = tuple(rng.normal(size=4))
        pG = make_params(4.0, mu=mu)
        h, dh = -0.5, 1e-6
        G, Gp, Gpp = eval_G_prime(h, pG)
        fd = (eval_G(h + dh, pG) - eval_G(h - dh, pG)) / (2 * dh)
        assert Gp == pytest.approx(fd, rel=1e-7)
        dh2 = 1e-4  # second difference needs the larger step against roundoff
        fd2 = (eval_G(h + dh2, pG) - 2 * G + eval_G(h - dh2, pG)) / dh2**2
        assert Gpp == pytest.approx(fd2, rel=1e-5)

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_jets_match_the_hand_expanded_leibniz_rule(self, kappa, rng):
        # the unit weights and four random ones, at 7 levels: each of G, G'
        # and G'' within 1e-14 of its largest modulus over the levels
        prop = get_propagation(make_params(kappa))
        for mu in [*np.eye(4), *rng.normal(size=(4, 4))]:
            p = make_params(kappa, mu=tuple(mu))
            hs = interior_levels(p, 7, 0.02, 0.98)
            got = np.array([G_from_chain(h, prop.chain(h), p) for h in hs])
            want = np.array([G_from_chain_by_hand(h, prop.chain(h), p) for h in hs])
            assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want), axis=0))


class TestEvalR:
    def test_zero_weights(self, p4):
        pz = replace(p4, mu=(0.0, 0.0, 0.0, 0.0))
        assert eval_R(-0.5, pz, "direct") == 0.0
        assert eval_R(-0.5, pz, "pf_numeric") == 0.0

    def test_dual_route_agreement(self, rng):
        for kappa in (1.5, 4.0):
            p = make_params(kappa, mu=tuple(rng.normal(size=4)))
            for h in interior_levels(p, 20, 0.03, 0.97):
                r1 = eval_R(h, p, "direct")
                r2 = eval_R(h, p, "pf_numeric")
                assert r1 == pytest.approx(r2, rel=1e-6)

    def test_unknown_route(self, p4):
        with pytest.raises(DomainError):
            eval_R(-0.5, p4, "magic")


class TestExtraction:
    def test_zero_weights_zero_coeffs(self, p4):
        rc = extract_R_coeffs(p4)
        assert np.all(rc.a_values((0, 0, 0, 0)) == 0)
        assert np.all(rc.b_values((0, 0, 0, 0)) == 0)

    def test_linearity_exact(self, p4):
        rc = extract_R_coeffs(p4)
        mu = (1.0, -2.0, 0.5, 3.0)
        assert np.array_equal(rc.a_values(tuple(2 * m for m in mu)), 2 * rc.a_values(mu))
        assert np.array_equal(rc.b_values(tuple(2 * m for m in mu)), 2 * rc.b_values(mu))

    def test_degree_structure(self, p4):
        rc = extract_R_coeffs(p4)
        assert len(rc.a) == 4 and len(rc.b) == 3
        assert all(len(row) == 4 for row in rc.a + rc.b)
        assert all(isinstance(c, Fraction) for row in rc.a + rc.b for c in row)

    def test_reproduces_eval_R(self):
        # the headline cross-check: exact template against the numeric route,
        # with J in closed form as verify's R:exact-template row feeds it
        # (the J of PFPropagation is checked by pf:propagation-vs-oracle)
        rng = np.random.default_rng(20241107)
        p = make_params(4.0)
        rc = extract_R_coeffs(p)
        for _ in range(3):
            nu = tuple(rng.normal(size=4))
            pN = replace(p, mu=nu)
            for h in interior_levels(p, 10, 0.05, 0.95):
                J1, J2 = hypergeometric_J(s_from_h(h, p), p)[:, 0]
                rt = rc.template(h, J1, J2, nu)
                rd = eval_R(h, pN, "direct")
                assert rt == pytest.approx(rd, rel=1e-10)

    def test_center_series_needs_the_double_zero(self, p4):
        # the exact coefficients cancel the template's (9h^2 - 4)^2; a
        # perturbed coefficient leaves a z^0 term behind
        rc = extract_R_coeffs(p4)
        assert rc.center_series.shape == (4, CENTER_TERMS)
        a = [list(row) for row in rc.a]
        a[0][0] += Fraction(1, 10**6)
        with pytest.raises(ConsistencyError, match="unit weight 1"):
            replace(rc, a=tuple(tuple(row) for row in a)).center_series

    def test_integer_coefficients_at_kappa4(self, p4):
        # at kappa = 4 every entry is an exact integer; freeze two of them
        rc = extract_R_coeffs(p4)
        assert rc.a[0] == (Fraction(-512), Fraction(-192), Fraction(-1472), Fraction(-768))
        assert rc.b[0] == (Fraction(0), Fraction(-1088), Fraction(-576), Fraction(768))

    def test_overall_h_factor(self, p4):
        # the template numerator carries an overall factor h: R(0) = 0
        # identically, whatever the J values and weights
        rc = extract_R_coeffs(p4)
        assert rc.template(0.0, 1.234, -0.567, (0.3, -1.2, 0.8, 2.0)) == 0.0

    def test_text_dump_roundtrip(self, p4):
        text = extract_R_coeffs(p4).as_text()
        assert "a0" in text and "b2" in text and "nu4" in text

    def test_cached(self, p4):
        assert extract_R_coeffs(p4) is extract_R_coeffs(p4)


class TestTemplateTable:
    def test_table_is_the_generic_extraction_interpolated(self):
        # five kappas fix a quartic; its kappa^4 terms vanish, and its lower
        # terms are the table's integer cubics
        ks = [Fraction(k) for k in (2, 3, 4, 5, 6)]
        generic = [generic_r_coeffs(k) for k in ks]
        for side, table in enumerate((_A_TABLE, _B_TABLE)):
            for j, row in enumerate(table):
                for m, entry in enumerate(row):
                    coef = _interpolate(ks, [g[side][j][m] for g in generic])
                    assert coef[4] == 0
                    assert tuple(coef[:4]) == entry
                    assert all(type(c) is int for c in entry)

    @pytest.mark.parametrize("kappa", CHECK_KAPPAS)
    def test_table_equals_generic_extraction(self, kappa):
        rc = extract_R_coeffs(make_params(kappa))
        assert (rc.a, rc.b) == generic_r_coeffs(Fraction(kappa))
        assert all(isinstance(c, Fraction) for row in rc.a + rc.b for c in row)

    @pytest.mark.parametrize("kappa", CHECK_KAPPAS)
    def test_center_series_bits_equal_poly_route(self, kappa):
        rc = extract_R_coeffs(make_params(kappa))
        # entries with denominators of their own: the integer route must not
        # assume the table's powers of kappa's denominator
        w = Fraction(3, 7**5)
        scaled = replace(rc, a=tuple(tuple(c * w for c in row) for row in rc.a),
                         b=tuple(tuple(c * w for c in row) for row in rc.b))
        for r in (rc, scaled):
            got, want = r.center_series, poly_center_series(r)
            assert [x.hex() for x in got.ravel()] == [x.hex() for x in want.ravel()]


def _rank(rows) -> int:
    """Rank of a matrix of Fractions, by exact elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _closes(op, target, degree: int, clear) -> bool:
    """Whether op(p, q) = target, both sides (p, q) pairs standing for
    p J1 + q J2, has a solution with p, q polynomials of degree <= degree:
    the exact linear system for their coefficients, cleared of
    denominators by ``clear``, is consistent."""
    monos = [RatF(Poly([0] * i + [1])) for i in range(degree + 1)]
    cols = [[(r * clear).as_poly() for r in pair]
            for pair in [op(m, RatF(0)) for m in monos] + [op(RatF(0), m) for m in monos]]
    rhs = [(r * clear).as_poly() for r in target]
    n = 1 + max(p.degree for pair in cols + [rhs] for p in pair)

    def flat(pair):
        return [p.c[d] if d <= p.degree else Fraction(0) for p in pair for d in range(n)]

    A = [list(row) for row in zip(*[flat(col) for col in cols])]
    return _rank(A) == _rank([row + [b] for row, b in zip(A, flat(rhs))])


class TestNoClosedFormBeyondJ:
    # I10' and JJ are not polynomial combinations of J1, J2 (JJ not even
    # modulo the kernel of L2): the substitution into their defining
    # equations, with the J' = M J of extract_R_coeffs, is inconsistent
    kf = Fraction(4)
    M = j_matrix(kf)
    d1 = Poly([-4, 0, 9])
    d2 = Poly([-4, 0, 36])

    def derive(self, p, q):
        return _pair_derive(p, q, self.M)

    def test_method_finds_a_closed_form_that_exists(self):
        h2 = RatF(Poly([0, 0, 1]))
        target = self.derive(h2, RatF(Poly([1, 1])))
        assert _closes(self.derive, target, 6, RatF(self.d1 * self.d2))

    def test_I10_prime_is_not_closed(self):
        # row 1 of V = B V' differentiated: I10'' = 2 (J1 - J2) / (9h^2 - 4)
        two = RatF(2, self.d1)
        assert not _closes(self.derive, (two, -two), 10, RatF(self.d1 * self.d2))

    def test_JJ_is_not_closed_modulo_L2_kernel(self):
        op = lambda p, q: _pair_L2(p, q, self.kf, self.M)
        dd = self.d1 * self.d2
        clear = RatF(dd * dd * dd)
        assert _closes(op, op(RatF(Poly([0, 1])), RatF(1)), 8, clear)
        assert not _closes(op, jj_image(self.kf, self.M), 10, clear)
