"""Small exact univariate rational-function layer over Fraction.

Just enough ring arithmetic for the tests' generic extraction of the R
template, the oracle of :mod:`q4lab.melnikov`'s integer cubic table, and
for their closed-form checks: dense polynomials with Fraction coefficients,
rational functions normalized by gcd cancellation with monic denominator,
derivatives, and exact division checks.  Degrees stay tiny (< 25), so no
cleverness is needed or wanted.
"""

from __future__ import annotations

from fractions import Fraction


def _F(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Dense polynomial, ascending coefficients, exact Fraction arithmetic."""

    __slots__ = ("c",)

    def __init__(self, coeffs=(0,)):
        c = [_F(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, x) -> "Poly":
        return cls([x])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    # -- structure ----------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return self.c == (Fraction(0),)

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Poly) else Poly.const(other)
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self) -> str:
        return "Poly(" + ", ".join(str(x) for x in self.c) + ")"

    # -- ring ops ------------------------------------------------------------
    def __add__(self, other) -> "Poly":
        other = other if isinstance(other, Poly) else Poly.const(other)
        n = max(len(self.c), len(other.c))
        a = list(self.c) + [Fraction(0)] * (n - len(self.c))
        for i, x in enumerate(other.c):
            a[i] += x
        return Poly(a)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.c])

    def __sub__(self, other) -> "Poly":
        return self + (-(other if isinstance(other, Poly) else Poly.const(other)))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly([x * _F(other) for x in self.c])
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        dq = len(rem) - len(other.c)
        if dq < 0:
            return Poly([0]), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.c[-1]
        for k in range(dq, -1, -1):
            q = rem[k + other.degree] / lead
            quo[k] = q
            if q != 0:
                for j, b in enumerate(other.c):
                    rem[k + j] -= q * b
        return Poly(quo), Poly(rem)

    def deriv(self) -> "Poly":
        if self.degree == 0:
            return Poly([0])
        return Poly([i * x for i, x in enumerate(self.c)][1:])

    def __call__(self, x):
        acc = 0 if not isinstance(x, float) else 0.0
        for coef in reversed(self.c):
            acc = acc * x + (coef if not isinstance(x, float) else float(coef))
        return acc

    def monic(self) -> "Poly":
        lead = self.c[-1]
        return Poly([x / lead for x in self.c])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return Poly([1])
    return a.monic()


class RatF:
    """Rational function num/den, kept normalized: gcd cancelled, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = Poly([1]) if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
        else:
            den = Poly([1])
        lead = den.c[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num, self.den = num, den

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, RatF) else RatF(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatF({self.num!r} / {self.den!r})"

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"not a polynomial: denominator {self.den!r}")
        return self.num

    def __add__(self, other) -> "RatF":
        other = other if isinstance(other, RatF) else RatF(other)
        return RatF(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatF":
        return RatF(-self.num, self.den)

    def __sub__(self, other) -> "RatF":
        return self + (-(other if isinstance(other, RatF) else RatF(other)))

    def __rsub__(self, other) -> "RatF":
        return (-self) + other

    def __mul__(self, other) -> "RatF":
        other = other if isinstance(other, RatF) else RatF(other)
        return RatF(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatF":
        other = other if isinstance(other, RatF) else RatF(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatF(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatF":
        return RatF(other) / self

    def deriv(self) -> "RatF":
        return RatF(self.num.deriv() * self.den - self.num * self.den.deriv(),
                    self.den * self.den)

    def __call__(self, x):
        return self.num(x) / self.den(x)
