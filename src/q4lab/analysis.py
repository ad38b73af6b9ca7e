"""Zero counting, Chebyshev-property probes, and the bound pipeline.

Real zero counts come from sign scanning on Chebyshev-distributed grids,
plus a heuristic even-multiplicity detector (a closed-form quadratic fit at
interior near-tangencies); ``count_zeros`` takes a vectorised f and refuses
one that returns another shape.  Every count in the lab is one row of
``_count_from_scan``, which scans the rows of an (n, grid) array of values
at once: ``count_zeros`` passes one row, ``bound_pipeline`` the three rows
I, G and R of one trial, and ``sweep_kappa`` the rows of SWEEP_CHUNK trials.
The count and the tangency fits are made at once; where the sign changes
lie (brentq in each bracket) and the unresolved-cluster warnings that
depend on it are found when a report's zeros are first read, so a caller
that reads counts only never refines a root.  The bound scanner also skips
every fit that a per-cell variation bound proves empty: ``_variation``
bounds how far each row of I, G and R moves over the cells the fits can
reach (Taylor's form on exact derivative rows, with sound enclosures of the
second derivative), and a minimum whose |f| exceeds the fit's possible
reach cannot fit to zero (``_count_from_scan``), so the counts are those of
running every fit.
Complex zero counts come from the argument principle on the keyhole
domain

    D_eps = (C \\ (-inf, 1])  with  |s - 1| > eps,  |s| < 1/eps,

traversed positively: the winding of F = (P J1 + Q J2)/J1 along the four
boundary pieces equals the zero count of P J1 + Q J2 inside, and is the
empirical content of the 2n bound for the spaces V_n.  J is real on (1, inf),
so J(conj s) = conj J(s) by Schwarz reflection, and F(conj s) = conj F(s) for
real P and Q (G. S. Petrov, Complex zeros of an elliptic integral, Funct.
Anal. Appl. 21, 1987): the keyhole contour holds the upper half of the
boundary only, and ``winding_count`` takes the lower half from its mirror.

One closed form gives J everywhere: ``hypergeometric_J`` (J2 through
Euler's transformation) on the J table's real interval, on the keyhole, and
at the scanner's levels through ``MomentBasis``; continuation of W (J its first
column) once around the keyhole (``keyhole_by_continuation``) is kept as the check.

The Chebyshev probe studies the residue solution f(h) of L2 x = 0 given by
the residue of the underlying differential at (0, y0(h)): it checks
L2(f) = 0 with f' and f'' exact (implicit differentiation of the level
cubic), locates f's zero against the closed-form candidate
h* = -(2/3) sqrt(5/kappa) (obtained by eliminating y0 from the
vanishing condition through the defining cubic), and reports where h*
falls relative to the two intervals of interest.  No nonvanishing claim is
asserted; the probe measures it, alongside a direct projective-rotation
measurement of the solution frame (a two-dimensional solution space is
Chebyshev on a window iff the frame direction sweeps less than a half
turn); the frame is built from hypergeometric solutions of L2 in s.  The
same frame, with Abel's Wronskian, solves L2(G) = R by variation of
parameters, without an ODE solver, for the count(G) <= k + 2 sample.

``keyhole_contour``, ``j_table`` and ``bound_scanner`` build once per
(kappa, epsilon), kappa and (kappa, grid), in ``functools`` caches.  The contour
keeps the terms of the winding count's F (s^k, J2 / J1); the J table and the L2
frame keep their values on scan grids (``_GridMemo``), the same bits each time.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
# not called: perfbench/tracing.py counts calls through this name, and tests refuse it
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq
from scipy.special import hyp2f1

from .errors import ConsistencyError, ConvergenceError, DomainError, GeometryError
from .model import ModelParams, cubic_real_roots, make_params, real_roots_y
from .picard_fuchs import (
    WINDOW_MARGIN,
    Arc,
    Line,
    _either,
    _Jet,
    _l2_kummer_pair,
    _s_minus_one,
    _stack,
    _two_product,
    apply_L2,
    continue_state,
    hypergeometric_J,
    initial_jstate,
    series_jet,
)
from .melnikov import center_z, extract_R_coeffs, get_moment_basis
from .quadrature import _adaptive_gk
from .reduction import G_rows, I_rows, JJ_value, mu_G_from_eq211, weigh

J_MARGIN = 1e-3      # JTable spans (1, kappa) less this fraction of kappa - 1 at each end
SCAN_MARGIN = 1e-6   # the scanner's window: the annulus less this fraction at each end
GRID_MIN = 64        # fewest levels of a scan grid; _GridMemo keeps values on such arrays
RHS_DEGREE = 6       # degree of inhomogeneous_bound_sample's random right-hand sides
VOP_MAX_DEGREE = 1024  # cap on the Chebyshev degree of its variation integrals
# the scanner's skip of tangency fits (``_variation``, ``_count_from_scan``)
REACH = 1.25           # a fitted value moves at most 1 + 2/8 cell variations from f(x_i)
ROW_ROUNDING = 1e-12   # a row's float error, relative to the bound of its terms' moduli
VAR_SAFETY = 1e-6      # relative margin on each variation bound, for its own rounding
EPS = np.finfo(float).eps
FIT_SLACK = 256 * EPS  # fit and matvec rounding, relative to |f| bounds
SERIES_BOUND_TERMS = 256  # terms of R's whole center series summed in its bound
SWEEP_CHUNK = 64       # trials whose I, G and R rows sweep_kappa scans as one array
ZERO_TOL = 1e-9        # a tangency's fitted |f| over a row's scale; brentq's step over the interval

# ---------------------------------------------------------------------------
# real zero counting
# ---------------------------------------------------------------------------

@dataclass
class ZeroReport:
    """A zero count and, found on first read, where the zeros are.

    ``count`` is known when the report is made; ``zeros`` (location and
    multiplicity estimate, sorted by location), ``locations`` and the
    unresolved-cluster ``warnings`` are found by ``_locate`` the first time
    one of them is read, and kept.  ``_locate`` keeps f and calls it again
    on that first read, so f must not change before then (a closure over a
    loop variable that has since moved on would place the roots of another
    function).  A failure while locating is raised by that read and not
    kept.  Equality of reports compares the count fields only, not the
    zeros or warnings."""

    interval: tuple[float, float]
    count: int = 0
    grid_size: int = 0
    identically_zero: bool = False
    _locate: Callable[[], tuple[list[dict], list[str]]] | None = field(
        default=None, repr=False, compare=False)

    @functools.cached_property
    def _found(self) -> tuple[list[dict], list[str]]:
        return self._locate() if self._locate is not None else ([], [])

    @property
    def zeros(self) -> list[dict]:
        return self._found[0]

    @property
    def warnings(self) -> list[str]:
        return self._found[1]

    @property
    def locations(self) -> list[float]:
        return [z["location"] for z in self.zeros]


@functools.lru_cache(maxsize=16)
def _cheb_grid(a: float, b: float, n: int) -> np.ndarray:
    """The n Chebyshev nodes of [a, b], ascending, read-only and memoised."""
    if n < GRID_MIN:
        raise DomainError(f"a scan grid needs at least {GRID_MIN} nodes, got {n}")
    k = np.arange(n)
    nodes = (0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * k / (n - 1)))[::-1]
    nodes.flags.writeable = False
    return nodes


class _GridMemo:
    """f at arrays of at least GRID_MIN levels (scan grids, Chebyshev nodes),
    kept read-only for the last KEEP arrays by shape and bytes: the same
    grid again gets what f gave it the first time.  Shorter arrays (tangency
    stencils, single points) go to f every time."""

    KEEP = 4

    def __init__(self, f):
        self.f, self.kept = f, {}

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.size < GRID_MIN:
            return self.f(x)
        key = (x.shape, x.tobytes())
        if key not in self.kept:
            if len(self.kept) == self.KEEP:
                del self.kept[next(iter(self.kept))]
            self.kept[key] = self.f(x)
            self.kept[key].flags.writeable = False
        return self.kept[key]


def _eval_f(f, xs: np.ndarray) -> np.ndarray:
    """f on the array xs in one call; f must be vectorised."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise DomainError(f"f returned shape {vals.shape} on levels of shape {xs.shape}: "
                          f"count_zeros needs a vectorised f")
    return vals


def count_zeros(f, interval: tuple[float, float], grid: int = 256) -> ZeroReport:
    """Count zeros of f on the open interval, with multiplicity heuristics.

    Computed at once: each sign change between Chebyshev nodes and each node
    where f is exactly zero counts one zero; each interior minimum of |f|
    with no sign change in the brackets on either side and no zero at its
    neighbours is fitted by a quadratic through three values of f, and
    counted with multiplicity two when the fitted minimum is below
    ZERO_TOL * scale.  Found when ``zeros``, ``locations`` or ``warnings`` is
    first read: each sign change's location, refined by brentq to ZERO_TOL
    times the interval's length, and an unresolved-cluster warning for zeros
    closer than twice that.  The report keeps f and calls it again on that
    first read, so f must not change before then; equality of reports
    compares the count fields only.  The skip rule reads the grid, not the
    located zeros; the two differ only where a refined root lands exactly on
    a node.  Every fit runs here: a generic f has no variation bound, so the
    skip that ``BoundScanner.count`` proves for its rows does not apply.
    """
    a, b = interval
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise DomainError(f"bad interval {interval}")
    xs = _cheb_grid(a, b, grid)
    fs = _eval_f(f, xs)
    fvec = lambda x: _eval_f(f, np.asarray(x, dtype=float))
    return _count_from_scan(xs, fs[None], lambda r: fvec, (a, b))[0]


# ---------------------------------------------------------------------------
# the residue solution and the Chebyshev probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueSolution:
    h: float
    y0: float
    f: float


def residue_solution(h: float, params: ModelParams) -> ResidueSolution:
    """The candidate nonvanishing solution of L2 x = 0: the residue at
    (0, y0(h)) with y0 the unique real root below the saddle level."""
    if h >= params.saddle_h:
        raise DomainError(f"h={h} not below the saddle level {params.saddle_h}")
    roots = real_roots_y(h, params)
    if len(roots) != 1:
        raise DomainError(f"expected a unique real root at h={h}, got {roots}")
    y0 = roots[0][0]
    return ResidueSolution(h=h, y0=y0, f=_residue_at(h, y0, params.kappa))


def _residue_at(h, y0, k: float):
    """f = (-4 h + (3 kappa h^2 - 4) y0) / (kappa y0^2 - 1), the residue at (0, y0)."""
    return (-4.0 * h + (3.0 * k * h * h - 4.0) * y0) / (k * y0 * y0 - 1.0)


def residue_zero_level(params: ModelParams) -> float:
    """Closed-form level where the residue solution vanishes: eliminating
    y0 from -4h + (3 kappa h^2 - 4) y0 = 0 through the defining cubic gives
    y0^2 = 5/kappa, hence h* = -(2/3) sqrt(5/kappa)."""
    return -(2.0 / 3.0) * math.sqrt(5.0 / params.kappa)


class L2Frame:
    """Fundamental solution frame of L2 x = 0 on a window left of the
    saddle level: the Kummer pair at s = 1 (``_l2_kummer_pair``) recombined
    so that x1(mid) = 1, x1'(mid) = 0, x2(mid) = 0, x2'(mid) = 1 at the
    window midpoint.  The window check also puts every level at h < 0 and
    s > 1, where the pair is real and analytic in t = sqrt(s - 1)."""

    def __init__(self, params: ModelParams, window: tuple[float, float]):
        a, b = window
        if not (a < b <= params.saddle_h - 1e-12):
            raise DomainError("window must sit left of the saddle level")
        self.params = params
        self.window = window
        self.mid = 0.5 * (a + b)
        self._to_frame = np.linalg.inv(_l2_kummer_pair(self.mid, params.kappa)[:, :, 0])
        # Abel's formula for L2, W'/W = (9 kappa h^2 - 8) / (h (9 kappa h^2 - 4)), gives
        # the Wronskian x1 x2' - x1' x2 = C h^2 / sqrt(9 kappa h^2 - 4); W(mid) = 1 fixes C
        sm1 = _s_minus_one(self.mid, _two_product(2.25, params.kappa))
        self.abel = 2.0 * math.sqrt(sm1) / self.mid**2
        # frame(h): rows x1, x1', x2, x2' at the levels h, kept on grids for the trials
        self.frame = _GridMemo(lambda h: np.einsum(
            "ijn,jk->kin", _l2_kummer_pair(h, params.kappa), self._to_frame).reshape(4, -1))

    def rotation_span(self, n: int = 4096) -> float:
        """Total sweep (radians) of the direction of (x1, x2)(h); the
        solution space is Chebyshev on the window iff the sweep < pi."""
        hs = np.linspace(self.window[0], self.window[1], n)
        fr = self.frame(hs)
        theta = np.unwrap(np.arctan2(fr[2], fr[0]))
        return float(theta.max() - theta.min())


@dataclass
class ChebyshevProbeReport:
    kappa: float
    window: tuple[float, float]
    l2_residual: float
    zero_report: ZeroReport
    h_star: float
    h_star_located: float | None
    locate_error: float | None
    saddle_y0: float
    saddle_y0_claimed: float
    identity_gap: float
    in_half_line_interval: bool
    in_annulus_interval: bool
    nonvanishing_on_half_line: str
    nonvanishing_on_annulus: str
    rotation_span_window: float
    rotation_span_annulus: float
    rows: list[dict] = field(default_factory=list)


def chebyshev_probe(params: ModelParams, window: tuple[float, float] | None = None,
                    grid: int = 512) -> ChebyshevProbeReport:
    """Measure the nonvanishing claim for the residue solution.

    The verdicts are reported, never asserted: the closed-form candidate
    zero h* lies inside the interval (-inf, saddle) for every kappa > 1,
    and inside the annulus interval exactly when kappa > 5.
    """
    k = params.kappa
    hs_level = params.saddle_h
    h_star = residue_zero_level(params)
    if window is None:
        window = (h_star - 1.0, hs_level - 1e-6 * abs(hs_level))
    a, b = window
    if not (a < b < hs_level):
        raise DomainError("probe window must sit left of the saddle level")

    def y0_of(h):  # the level cubic's unique real root y0 on an array of levels
        y = cubic_real_roots(k / 3.0, 0.0, -1.0, -h)
        if not np.isnan(y[:, 1:]).all():
            raise DomainError("the residue solution needs a unique real root y0")
        return y[:, 0].reshape(h.shape)

    # L2(f) residual on 20 levels inset in the window, f' and f'' exact: y0' and
    # y0'' from the level cubic, then the quotient rule on f = N / D, 1/D = y0'
    inset = 3e-4 * max(abs(a), abs(b), 1.0)
    h = np.linspace(a + inset, b - inset, 20)
    y0 = y0_of(h)
    y1 = 1.0 / (k * y0 * y0 - 1.0)
    y2 = -2.0 * k * y0 * y1**3
    q = 3.0 * k * h * h - 4.0
    N1, N2 = -4.0 + 6.0 * k * h * y0 + q * y1, 6.0 * k * y0 + 12.0 * k * h * y1 + q * y2
    D1, D2 = 2.0 * k * y0 * y1, 2.0 * k * (y1 * y1 + y0 * y2)
    f0 = _residue_at(h, y0, k)
    g1 = (N1 - f0 * D1) * y1
    g2 = (N2 - 2.0 * g1 * D1 - f0 * D2) * y1
    val = apply_L2(f0, g1, g2, h, params)
    scale = np.maximum.reduce([np.abs(5 * k * h * f0), np.abs((9 * k * h * h - 8) * g1),
                               np.abs(h * (9 * k * h * h - 4) * g2)])
    rel = np.abs(val) / scale
    worst = float(rel.max())
    rows = [{"h": hh, "f": ff, "L2f_rel": rr}
            for hh, ff, rr in zip(h.tolist(), f0.tolist(), rel.tolist())]

    zr = count_zeros(lambda h: _residue_at(h, y0_of(h), k), window, grid=grid)
    located, err = None, None
    for z in zr.zeros:
        e = abs(z["location"] - h_star)
        if err is None or e < err:
            located, err = z["location"], e

    # y0 at the saddle level (sampled just outside the fold-classification
    # tolerance of the cubic solver).  A strict-monotonicity argument for
    # nonvanishing of f would need this endpoint value to be -sqrt(5/kappa),
    # the root of the vanishing condition; the cubic itself gives -2/sqrt(kappa).
    saddle_y0 = residue_solution(hs_level - 1e-9 * abs(hs_level), params).y0
    claimed = -math.sqrt(5.0 / k)
    # the algebraic identity: -4h + (3kh^2-4) y0 recomputes to
    # kappa * y0 * (3h^2 - (4/3) y0^2); measure the gap to the kappa*h variant
    hprobe = a + 0.37 * (b - a)
    rs = residue_solution(hprobe, params)
    lhs = -4.0 * hprobe + (3.0 * k * hprobe**2 - 4.0) * rs.y0
    good = k * rs.y0 * (3.0 * hprobe**2 - (4.0 / 3.0) * rs.y0**2)
    bad = k * hprobe * (3.0 * hprobe**2 - (4.0 / 3.0) * rs.y0**2)
    identity_gap = abs(lhs - bad) / max(abs(lhs), 1e-300)
    if not abs(lhs - good) <= 1e-10 * max(abs(lhs), 1.0):
        raise ConsistencyError(
            f"-4h + (3 kappa h^2 - 4) y0 = {lhs!r} differs from "
            f"kappa y0 (3h^2 - (4/3) y0^2) = {good!r} at h={hprobe!r}")

    in_half_line = h_star < hs_level
    in_annulus = params.center_h < h_star < hs_level
    verdict = lambda inside: "contradicted" if inside else "confirmed"

    rot_window = L2Frame(params, window).rotation_span()
    ann = (params.center_h + 1e-9, hs_level - 1e-9)
    rot_annulus = L2Frame(params, ann).rotation_span()

    return ChebyshevProbeReport(
        kappa=k, window=window, l2_residual=worst, zero_report=zr,
        h_star=h_star, h_star_located=located, locate_error=err,
        saddle_y0=saddle_y0, saddle_y0_claimed=claimed,
        identity_gap=identity_gap,
        in_half_line_interval=in_half_line, in_annulus_interval=in_annulus,
        nonvanishing_on_half_line=verdict(in_half_line),
        nonvanishing_on_annulus=verdict(in_annulus),
        rotation_span_window=rot_window, rotation_span_annulus=rot_annulus,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Petrov winding counts in the complex domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyPair:
    """P of degree <= n and Q of degree <= n - 1 (ascending coefficients),
    representing the element P(s) J1(s) + Q(s) J2(s) of V_n."""

    P: tuple
    Q: tuple

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(float(c) for c in self.P))
        object.__setattr__(self, "Q", tuple(float(c) for c in self.Q))
        if len(self.P) < 1:
            raise DomainError("P must have at least the constant coefficient")
        if len(self.Q) > len(self.P) - 1 and not (len(self.P) == 1 and len(self.Q) == 0):
            raise DomainError("deg Q must be < deg P bound n")

    @property
    def n(self) -> int:
        return len(self.P) - 1

    def eval_P(self, s):
        return _horner(self.P, s)

    def eval_Q(self, s):
        return _horner(self.Q or (0.0,), s)


def _horner(c: tuple, s):
    """polyval(s, c) bit for bit, c[-1] + s*0 then c[-i] + acc*s, without its set-up."""
    c, s = np.asarray(c), np.asarray(s)
    acc = c[-1] + s * 0
    for ck in c[-2::-1]:
        acc = ck + acc * s
    return acc


@dataclass
class WindingReport:
    n: int
    epsilon: float
    segments: list[dict]
    winding: int
    residual: float
    min_abs_J1: float
    bound_ok: bool
    max_arg_step: float
    edge_im_agreement: float


def _keyhole_pieces(epsilon: float) -> dict:
    """The boundary of D_eps in positive traversal order, as piece name ->
    (path pieces, samples per path piece).  The cut edges run at
    Im s = +-eps^2, their breakpoints clustered geometrically toward s = 1."""
    if not (0.0 < epsilon < 0.05):
        raise DomainError("epsilon out of range")
    eps, dlt = epsilon, epsilon**2
    R = 1.0 / eps
    a_small = math.asin(dlt / eps)

    def edge_nodes(sign):
        gaps = np.geomspace(R + 1.0, eps, 28)
        xs = 1.0 - gaps
        xs[-1] = 1.0 - math.sqrt(eps * eps - dlt * dlt)
        return [complex(x, sign * dlt) for x in xs]

    upper = edge_nodes(+1.0)
    lower = edge_nodes(-1.0)[::-1]
    return {
        "cut_upper": ([Line(a, b) for a, b in zip(upper[:-1], upper[1:])], 257),
        "small_circle": ([Arc(1.0 + 0j, eps, math.pi - a_small, -(math.pi - a_small))],
                         4 * 257),
        "cut_lower": ([Line(a, b) for a, b in zip(lower[:-1], lower[1:])], 257),
        # counterclockwise from just below the negative real axis back to
        # just above it
        "big_circle": ([Arc(0j, R, math.atan2(-dlt, -R), math.atan2(dlt, -R))],
                       16 * 257),
    }


class KeyholeContour:
    """J on the upper half of the keyhole boundary of D_eps (the lower half is
    its mirror), cached per (kappa, eps), with the terms ``winding_count``
    builds F from in one pass.  The half, all of cut_upper and the small
    circle's first and the big circle's last n // 2 of their n samples, is
    one array, ``s`` and ``J`` = (J1, J2); ``bounds[name]`` is a piece's
    (start, stop) there, and ``samples[name]`` its (s, J) views.  Beside them:
    ``min_abs_J1``, rho = J2 / J1, the upper edge's ``ratio`` Im(J2 conj(J1))
    / |J1|^2, and s^k as real (2N,) views (``powers``), each formed once as
    s^(k-1) s when a pair first needs it, so no bit depends on the pair order."""

    def __init__(self, params: ModelParams, epsilon: float = 1e-3):
        (lines, n), ((small,), m), _, ((big,), b) = _keyhole_pieces(epsilon).values()
        half = {"cut_upper": np.concatenate([ln.point(np.linspace(0.0, 1.0, n)) for ln in lines]),
                "small_circle": small.point(np.linspace(0.0, 1.0, m)[:m // 2]),
                "big_circle": big.point(np.linspace(0.0, 1.0, b)[b // 2:])}
        self.s = np.concatenate(list(half.values()))
        self.J = J1, J2 = hypergeometric_J(self.s, params)
        ends = np.cumsum([0] + [s.size for s in half.values()]).tolist()
        self.bounds = dict(zip(half, zip(ends, ends[1:])))
        self.samples = {name: (self.s[a:b], self.J[:, a:b]) for name, (a, b) in self.bounds.items()}
        edge = slice(*self.bounds["cut_upper"])
        self.ratio = (J2[edge] * np.conj(J1[edge])).imag / np.abs(J1[edge]) ** 2
        self.rho, self.min_abs_J1 = J2 / J1, float(np.min(np.abs(J1)))
        self._powers = [self.s.view(float)]

    def powers(self, n: int) -> list[np.ndarray]:
        """s^1 ... s^n, each a real (2N,) view (re, im interleaved)."""
        while len(self._powers) < n:
            self._powers.append((self._powers[-1].view(complex) * self.s).view(float))
        return self._powers[:n]


def keyhole_by_continuation(params: ModelParams, epsilon: float = 1e-3):
    """The keyhole samples by continuation of W (J = W[:, 0]) once around the
    boundary from the quadrature oracle at s = sqrt(kappa), the independent
    check of ``KeyholeContour``.  Returns (samples, closure_drift,
    det_drift): the samples at the points of ``_keyhole_pieces``, and the
    relative change of J and of det W once around the closed boundary."""
    pieces = _keyhole_pieces(epsilon)
    R, start = 1.0 / epsilon, complex(-1.0 / epsilon, epsilon**2)
    s_mid = math.sqrt(params.kappa)  # geometric midpoint of (1, kappa)
    state = initial_jstate(s_mid, params)
    det_W0 = state.det_W
    lift = max(0.25, 4.0 * epsilon)
    pre = [Line(complex(s_mid), complex(s_mid, lift)),
           Line(complex(s_mid, lift), complex(-R, lift)),
           Line(complex(-R, lift), start)]
    state = continue_state(pre, state, params, eps_min=min(0.5 * epsilon, 1e-4))
    j0 = state.J
    samples = {}
    for name, (path, n) in pieces.items():
        state, recs = continue_state(path, state, params, eps_min=min(0.45 * epsilon, 1e-4),
                                     samples_per_piece=n)
        samples[name] = (np.concatenate([r[0] for r in recs]),
                         np.concatenate([r[1] for r in recs], axis=1))
    closure_drift = float(np.max(np.abs(state.J - j0)) / np.max(np.abs(j0)))
    return samples, closure_drift, abs(state.det_W - det_W0) / abs(det_W0)


def keyhole_contour(params: ModelParams, epsilon: float = 1e-3) -> KeyholeContour:
    return _keyhole(params.kappa, epsilon)


@functools.cache
def _keyhole(kappa: float, epsilon: float) -> KeyholeContour:
    return KeyholeContour(make_params(kappa), epsilon)


def _wrap(steps: np.ndarray) -> np.ndarray:
    """(steps + pi) % (2 pi) - pi bit for bit for steps in [-2 pi, 2 pi], in place
    by ``where=``: x = steps + pi is in [-pi, 3 pi], where the remainder is
    x - 2 pi from 2 pi up (exact by Sterbenz) and x + 2 pi below 0."""
    x = np.add(steps, np.pi, out=steps)
    np.subtract(x, 2.0 * np.pi, out=x, where=x >= 2.0 * np.pi)
    np.add(x, 2.0 * np.pi, out=x, where=x < 0.0)
    return np.subtract(x, np.pi, out=x)


def _real_sum(c: tuple, cols: list, n: int) -> np.ndarray:
    """c[0] + c[1] s + ... + c[m] s^m at n samples, complex, from the real
    views cols[k - 1] of s^k: numpy terms in order of k, so no BLAS sets the bits."""
    if len(c) < 2:
        return np.full(n, c[0] if c else 0.0, dtype=complex)
    acc = c[1] * cols[0]
    acc[::2] += c[0]
    for ck, col in zip(c[2:], cols[1:]):
        acc += ck * col
    return acc.view(complex)


def winding_count(pair: PolyPair, params: ModelParams,
                  epsilon: float = 1e-3) -> WindingReport:
    """Argument-principle zero count of P J1 + Q J2 on the keyhole domain.

    F = P + Q J2 / J1 in one pass over the contour's upper half, P and Q real
    sums over its s^k.  On the upper edge Im F is assembled from the pointwise
    conjugate-pair fundamental matrix, Im F = Q Im(J2 conj(J1)) / |J1|^2,
    matching the boundary analysis; elsewhere F is used directly.  By the
    mirror, the lower edge has the upper edge's increment, and each circle
    twice its upper half's plus the step across the real axis, F(s_m) to
    conj F(s_m); each piece sums its own run of the one array of steps.
    """
    ct = keyhole_contour(params, epsilon)
    if ct.min_abs_J1 == 0.0:
        raise GeometryError("J1 vanishes on the contour; F undefined")
    powers, N = ct.powers(pair.n), ct.s.size
    P, Q = (_real_sum(c, powers, N) for c in (pair.P, pair.Q))
    (_, e), (_, m), _ = ct.bounds.values()
    im = Q.real[:e] * ct.ratio
    F = np.add(np.multiply(Q, ct.rho, out=Q), P, out=Q)  # P + Q rho, in Q's place
    edge_gap = float(np.max(np.abs(im - F.imag[:e])) / (np.max(np.abs(F[:e])) + 1e-300))
    F.imag[:e] = im
    # a circle's lower half retraces its upper half's steps, and one more step
    # crosses the real axis between F(s_m) and conj F(s_m) = F(conj s_m)
    th = np.empty(N + 2)
    np.arctan2(F.imag[:m], F.real[:m], out=th[:m])
    np.arctan2(F.imag[m:], F.real[m:], out=th[m + 2:])
    th[m], th[m + 1] = -th[m - 1], -th[m + 2]
    steps = _wrap(np.subtract(th[1:], th[:-1]))
    edge, small, big = float(steps[:e - 1].sum()), steps[e:m], steps[m + 1:]
    # cut_lower is cut_upper traversed backwards, F(conj s) = conj F(s); a
    # circle counts both halves, and the crossing step once
    inc = {"cut_upper": edge, "small_circle": 2.0 * float(small.sum()) - float(small[-1]),
           "cut_lower": edge, "big_circle": 2.0 * float(big.sum()) - float(big[0])}
    segments = [{"name": name, "arg_increment": v} for name, v in inc.items()]
    steps[e - 1] = steps[m] = 0.0  # the junction steps belong to no piece
    top = float(np.max(np.abs(steps, out=steps)))
    # a left fold, not sum(): from Python 3.12 sum() compensates float sums
    total = ((edge + inc["small_circle"]) + edge) + inc["big_circle"]
    w = int(round(total / (2.0 * math.pi)))
    return WindingReport(n=pair.n, epsilon=epsilon, segments=segments, winding=w,
                         residual=abs(total / (2.0 * math.pi) - w), edge_im_agreement=edge_gap,
                         min_abs_J1=ct.min_abs_J1, bound_ok=w <= 2 * pair.n, max_arg_step=top)


# ---------------------------------------------------------------------------
# real-line sampling of V_n elements
# ---------------------------------------------------------------------------

class JTable:
    """J = (J1, J2) on the real interval (1 + margin, kappa - margin), the
    margin ``J_MARGIN`` relative to kappa - 1, in closed form (``hypergeometric_J``);
    one table per kappa (``j_table``), its ``J(s)`` kept on scan grids (``_GridMemo``)."""

    def __init__(self, params: ModelParams):
        k = params.kappa
        self.lo = 1.0 + J_MARGIN * (k - 1.0)
        self.hi = k - J_MARGIN * (k - 1.0)
        self.J = _GridMemo(lambda s: hypergeometric_J(s, params))


def j_table(params: ModelParams) -> JTable:
    return _j_table(params.kappa)


@functools.cache
def _j_table(kappa: float) -> JTable:
    return JTable(make_params(kappa))


def random_poly_pair(n: int, rng) -> PolyPair:
    coeffs = rng.normal(size=2 * n + 1)
    coeffs /= np.sqrt(np.add.accumulate(coeffs * coeffs)[-1])  # no BLAS dot: squares in order
    return PolyPair(P=tuple(coeffs[: n + 1]), Q=tuple(coeffs[n + 1:]))


def vn_sample_test(n: int, trials: int, params: ModelParams, seed: int,
                   grid: int = 512, epsilon: float = 1e-3) -> dict:
    """Random sampling of V_n: real-zero counts on (1, kappa) and winding
    counts on the keyhole domain, against the dimension bound 2n."""
    if not (1 <= n <= 4):
        raise DomainError("n must be in 1..4")
    tab = j_table(params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations, rows = [], []
    for t in range(trials):
        pair = random_poly_pair(n, rng)

        def V(s):
            J = tab.J(s)
            return pair.eval_P(s).real * J[0] + pair.eval_Q(s).real * J[1]

        zr = count_zeros(V, (tab.lo, tab.hi), grid=grid)
        wr = winding_count(pair, params, epsilon)
        if not wr.bound_ok:
            violations.append({"trial": t, "kind": "winding", "value": wr.winding})
        if zr.count > 2 * n:
            violations.append({"trial": t, "kind": "real", "value": zr.count})
        rows.append({"trial": t, "real_zeros": zr.count, "winding": wr.winding,
                     "residual": wr.residual})
    return {
        "n": n, "trials": trials, "kappa": params.kappa,
        "max_real_zeros": max([0] + [r["real_zeros"] for r in rows]),
        "max_winding": max([0] + [r["winding"] for r in rows]),
        "worst_residual": max([0.0] + [r["residual"] for r in rows]), "bound": 2 * n,
        "violations": violations, "rows": rows,
    }


# ---------------------------------------------------------------------------
# the bound pipeline (empirical bound chain)
# ---------------------------------------------------------------------------

# derivatives of J1 / c = F(1/6, 5/6; 1; z) and of F(5/6, 1/6; 2; z), the second
# piece of J2, as (scale, a, b, c): d^k/dz^k = scale * F(a, b; c; z)
_F_DERIVS = (((1.0, 1 / 6, 5 / 6, 1.0), (5 / 36, 7 / 6, 11 / 6, 2.0),
              (5 / 36 * 77 / 72, 13 / 6, 17 / 6, 3.0)),
             ((1.0, 5 / 6, 1 / 6, 2.0), (5 / 72, 11 / 6, 7 / 6, 3.0),
              (5 / 72 * 77 / 108, 17 / 6, 13 / 6, 4.0)))


def _full_center_series(k: float, rc, z) -> _Jet:
    """A magnitude jet in z, at z in [0, 1), of S(z) = sum_{n >= 0} s_n z^n for
    the unit weights: the whole series of which ``center_series`` keeps
    CENTER_TERMS terms, so R's template is the center formula with S at every
    z < 1, and this jet bounds the template without the cancellation of its
    direct form.  s_n = num_{n+2}, num = A alpha + B gamma as in
    ``center_series``, is formed in float for n < N = SERIES_BOUND_TERMS with
    ROW_ROUNDING times its terms' moduli added; past that, alpha_j and beta_j
    decrease and |gamma_j| <= alpha_{j-1} + beta_{j-1}, so |s_n| <= sigma =
    sum |A_i| alpha_{N-1} + sum |B_i| (alpha_{N-1} + beta_{N-1}), and the tail
    is sigma times the derivatives of z^N / (1 - z).  No BLAS: folds of ``weigh``."""
    N = SERIES_BOUND_TERMS
    j = np.arange(N + 1.0)
    alpha = np.cumprod(np.append(1.0, (j + 1 / 6) * (j + 5 / 6) / (j + 1) ** 2))
    beta = np.cumprod(np.append(1.0, (j + 5 / 6) * (j + 1 / 6) / ((j + 2) * (j + 1))))
    gamma = np.append(1.0, alpha[1:] - alpha[:-1] + 5 / 6 * beta[:-1])
    # A and B of each unit weight as polynomials in z, h^2 = p + q z
    p, q = 4 / 9, -4 / 9 * (k - 1.0) / k
    h2 = np.array([[math.comb(i, t) * p ** (i - t) * q ** t for t in range(4)] for i in range(4)])
    A, B = weigh(h2, rc.a_float[:, :, None]), weigh(h2[:3], rc.b_float[:, :, None])
    # (P[m] * c)[2:N + 2] for each row m: column t of P meets c[n - t], c[-1] = 0
    conv = lambda P, c: weigh(P.T[:, :, None], [np.append(0.0, c)[3 - t:N + 3 - t]
                                                for t in range(4)])
    s_abs = (np.abs(conv(A, alpha) + conv(B, gamma))
             + ROW_ROUNDING * (conv(np.abs(A), alpha) + conv(np.abs(B), np.abs(gamma))))
    sigma = np.abs(A).sum(axis=1) * alpha[N - 1] + np.abs(B).sum(axis=1) * (alpha[N - 1]
                                                                             + beta[N - 1])
    head = series_jet(s_abs[:, None], z, True)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(z < 1.0, 1.0 / (1.0 - z), np.inf)
        zN = z ** (N - 2)
        tail = (z * z * zN * w, (N * z + z * z * w) * zN * w,
                (N * (N - 1.0) + (2 * N * z + 2 * z * z * w) * w) * zN * w)
    return _Jet([hd + sigma[:, None] * tl for hd, tl in zip(head.f, tail)], True)


def _row_ingredients(sc: BoundScanner, h, cells=None, side=None) -> dict:
    """Signed jets at the levels h, or, given ``cells`` = (lo, hi), magnitude
    jets over each [lo, hi] (h the levels x_i inside them), of what the rows
    are made of: h, J1, J2, V (six jets), 1/(9h^2 - 4), 1/(9 kappa h^2 - 4),
    and the center series S of the unit weights composed with z(h) (on cells
    also the whole series, S_full).  At levels V is summed by the moment
    series of each level's side of the switch, or of the given ``side``
    (``MomentBasis.taylor``).

    The bounds: J1 / c and F(5/6, 1/6; 2; z) have positive Taylor
    coefficients in z, so they and their derivatives grow with z on [0, 1) and
    are largest at the cell's largest z; J2 / c = (1 - z) J1 / c + (5/6) z
    F(5/6, 1/6; 2; z) is bounded piece by piece.  9h^2 - 4 and 9 kappa h^2 - 4
    are monotone and of one sign on h < 0 between the critical levels, so
    their smallest moduli are at a cell end.  S is a polynomial, whose
    absolute series at the largest |z| bounds every derivative; V's bound is
    ``MomentBasis.bound``, which does the same for the moment series and
    takes the log and root factors of the saddle form at the cell's ends."""
    mag, k, mb = cells is not None, sc.params.kappa, sc.prop
    kq = k / (k - 1.0)
    if mag:
        lo, hi = cells
        H = _Jet((np.maximum(np.abs(lo), np.abs(hi)), 1.0, 0.0), True)
        zl, zh = center_z(lo, k), center_z(hi, k)
        zlo, z = np.minimum(zl, zh), np.maximum(zl, zh)
        one_minus_z = _Jet((1.0 - zlo, 1.0, 0.0), True)
    else:
        H = _Jet((h, 1.0, 0.0))
        z = center_z(h, k)
        one_minus_z = _Jet((1.0 - z, -1.0, 0.0))
    Z = kq - 2.25 * kq * H * H
    F1, F2 = (_Jet([s * hyp2f1(a, b, c, z) for s, a, b, c in rows], mag) for rows in _F_DERIVS)
    cJ = math.pi / math.sqrt(k - 1.0)
    J = [cJ * F1.of(Z), cJ * (one_minus_z * F1 + 5.0 / 6.0 * _Jet((z, 1.0, 0.0), mag) * F2).of(Z)]
    if not mag:  # at levels, J's values are those of ``MomentBasis.J``, as the rows use
        J = [_Jet((v, *j.f[1:])) for v, j in zip(mb.J(h), J)]

    def inverse(alpha):  # 1 / (alpha h^2 - 4)
        u = alpha * H * H - 4.0
        if mag:
            r = 1.0 / np.minimum(*(np.abs(alpha * x * x - 4.0) for x in (lo, hi)))
            return _Jet((r, u.f[1] * r * r, (2.0 * u.f[1] ** 2 * r + u.f[2]) * r * r), True)
        r = 1.0 / u.f[0]
        return _Jet((r, -u.f[1] * r * r, (2.0 * u.f[1] ** 2 * r - u.f[2]) * r * r))

    T = mb.bound(lo, hi) if mag else mb.taylor(h, side)
    out = dict(h=H, J1=J[0], J2=J[1], V=[_Jet([t[j] for t in T.f], mag) for j in range(6)],
               inv1=inverse(9.0), inv2=inverse(9.0 * k),
               S=series_jet(sc.rc.center_series[:, None], z, mag).of(Z))
    if mag:
        out["S_full"] = _full_center_series(k, sc.rc, z).of(Z)
    return out


def _rows(which: str, L: dict, sc: BoundScanner, center: str = "") -> _Jet:
    """The four unit-weight rows of I, G or R as one jet of shape (4, n), by
    the functions ``BoundScanner._basis`` evaluates: I and G by
    ``reduction``'s ``I_rows``, ``JJ_value`` and ``G_rows``, R by
    ``RCoefficients.direct_rows`` or, with ``center`` naming a series of L
    ("S", or "S_full" on cells), by ``RCoefficients.center_rows``."""
    k, h, V = sc.params.kappa, L["h"], L["V"]
    if which == "I":
        return _stack(I_rows(h, V, k))
    J1, J2 = L["J1"], L["J2"]
    if which == "G":
        return _stack(G_rows(h, J1, J2, JJ_value(h, V, J2, k)))
    if center:
        return sc.rc.center_rows(h, L[center], L["inv2"])
    return sc.rc.direct_rows(h, J1, J2, L["inv1"], L["inv2"])


def _point_rows(sc: BoundScanner, h) -> dict:
    """Signed jets of the four rows of I, G and R at the levels h, each in
    the representation that ``BoundScanner._basis`` evaluates there: R's on
    its side of ``RCoefficients.switch``."""
    L = _row_ingredients(sc, h)
    out = {which: _rows(which, L, sc) for which in "IGR"}
    near = h < sc.rc.switch
    out["R"] = _Jet([np.where(near, c, r) for c, r in zip(_rows("R", L, sc, "S").f, out["R"].f)])
    return out


def _variation(sc: BoundScanner, slope: dict) -> tuple[dict, dict]:
    """(var, mag) for I, G and R, each of shape (4, grid): var[j, i] bounds
    sup |row_j(x) - row_j(x_i)| over the cell W_i that the tangency fit at an
    interior node x_i can reach, and mag[j, i] bounds |row_j| there (NaN at
    the two end nodes, which have no fit).  slope[which] holds row'(x_i) at
    the interior nodes, from the scanner's ``_point_rows``.

    W_i is [x_i - s, x_i + s] with [x_{i-1} - s/8, x_{i+1} + s/8], s =
    (x_{i+1} - x_{i-1}) / 2, clipped to the scan window and widened by four
    ulps; d is its largest distance from x_i.  Taylor's form gives

        |row(x) - row(x_i)| <= |row'(x_i)| d + sup_W |row''| d^2 / 2

    for one representation.  Each row has one switch of representation: I's
    and G's from the center's moment series to the saddle's
    (``MomentBasis.switch``), R's from its center series to its direct form
    (``RCoefficients.switch``).  Where W_i crosses it, following the
    derivative across adds the jump of the value and d times the jump of the
    derivative, with sup |row''| taken over both pieces.  row'(x_i) is the exact derivative of the
    representation evaluated at x_i (signed jets); sup |row''| and |row| come
    from magnitude jets, and for R's template sup |row''| is the smaller of
    its direct form's bound and the whole center series' bound.  Floating
    point: a row is taken to be evaluated to within ROW_ROUNDING times its
    magnitude bound, so var adds that twice (once per end) and, for the
    first-order term's own rounding, ROW_ROUNDING d times the bound of
    |row'|; the sum is scaled by 1 + VAR_SAFETY for the rounding of forming
    the bound itself."""
    xs, (a, b) = sc.hs, sc.window
    x = xs[1:-1]
    s = 0.5 * (xs[2:] - xs[:-2])
    pad = 4.0 * np.spacing(max(abs(a), abs(b)))
    lo = np.maximum(a, np.minimum(x - s, xs[:-2] - s / 8.0)) - pad
    hi = np.minimum(b, np.maximum(x + s, xs[2:] + s / 8.0)) + pad
    d = np.maximum(x - lo, hi - x)
    M = _row_ingredients(sc, x, (lo, hi))
    mb, rs = sc.prop, sc.rc.switch

    # the switch of each row's representation: the moment series' for I and
    # G, R's to its center series
    sw = mb.switch
    at_sw = [_row_ingredients(sc, np.array([sw]), side=side) for side in (False, True)]
    at_switch = _row_ingredients(sc, np.array([rs]))
    has_center, has_direct = lo < rs, hi >= rs

    var, mag = {}, {}
    for which in "IGR":
        m = _rows(which, M, sc)
        if which == "R":
            full = _rows("R", M, sc, "S_full")
            direct = _Jet((m.f[0], m.f[1], np.minimum(m.f[2], full.f[2])), True)
            m = _either(has_center, has_direct, _rows("R", M, sc, "S"), direct)
            u, v, at = _rows("R", at_switch, sc, "S"), _rows("R", at_switch, sc), rs
        else:
            u, v, at = _rows(which, at_sw[0], sc), _rows(which, at_sw[1], sc), sw
        crosses = (lo <= at) & (at <= hi)
        jump = np.where(crosses, np.abs(u.f[0] - v.f[0]) + d * np.abs(u.f[1] - v.f[1]), 0.0)
        v = ((1.0 + VAR_SAFETY) * (np.abs(slope[which]) * d + 0.5 * m.f[2] * d * d
                                   + ROW_ROUNDING * m.f[1] * d + jump)
             + 2.0 * ROW_ROUNDING * m.f[0])
        edge = np.full((4, 1), np.nan)
        var[which] = np.hstack([edge, v, edge])
        mag[which] = np.hstack([edge, np.broadcast_to(m.f[0], v.shape), edge])
    return var, mag


class BoundScanner:
    """Per-kappa precomputation for fast zero counts of I, G and R over
    many weight vectors: each function is linear in the weights, so a
    4 x grid basis matrix gives a function's values on the grid as one
    matvec, and ``scan`` counts the zeros of many such rows in one
    ``_count_from_scan``.  The grid's rows are the values of the jets of
    ``_point_rows``, whose derivatives go to ``_variation``; refinement
    points get the same rows, bit for bit, from ``_basis``.  The rows come
    from the per-kappa ``MomentBasis`` (``prop``): R needs only the
    closed-form J, G also JJ, and I the series values (``reduction``'s
    ``G_rows`` and ``I_rows``); no ODE is solved.  ``PFPropagation`` is the
    independent check of these rows.

    With the rows come ``var`` and ``mag`` (``_variation``): per row and
    interior node, bounds of how far the row moves over the cell that a
    tangency fit there can reach, and of its modulus.  ``reach`` = REACH var
    plus FIT_SLACK (var + mag) turns them into the skip test of
    ``_count_from_scan``: a fit at x_i is left out when |f(x_i)| exceeds
    |mu| @ reach[:, i] plus the fit's bound, which proves it would find no
    tangency, so the counts equal those of running every fit.  The reach is
    formed only at the nodes where a fit is a candidate."""

    def __init__(self, params: ModelParams, grid: int = 512):
        self.params = params
        self.prop = get_moment_basis(params)
        self.rc = extract_R_coeffs(params)
        hc, hs = params.center_h, params.saddle_h
        margin = max(SCAN_MARGIN * (hs - hc), 2.0 * WINDOW_MARGIN)  # inside MomentBasis
        self.window = (hc + margin, hs - margin)
        self.hs = _cheb_grid(*self.window, grid)
        P = _point_rows(self, self.hs)
        self.rows = np.stack([P[which].f[0] for which in "IGR"])
        self.basis = dict(zip("IGR", self.rows))
        self.var, self.mag = _variation(self, {which: P[which].f[1][:, 1:-1] for which in "IGR"})
        self.reach = {which: (REACH + FIT_SLACK) * self.var[which] + FIT_SLACK * self.mag[which]
                      for which in "IGR"}

    def _basis(self, which: str, h):
        """Rows of I, G or R for the four unit weights at the levels h."""
        if which == "I":
            return np.stack(I_rows(h, self.prop.values(h), self.params.kappa))
        J1, J2 = self.prop.J(h)
        if which == "G":
            return np.stack(G_rows(h, J1, J2, self.prop.JJ(h, J2)))
        return self.rc.unit_rows(h, J1, J2)

    def _f(self, which: str, mu, h):
        return mu @ self._basis(which, np.atleast_1d(np.asarray(h, dtype=float)))

    def count(self, which: str, mu) -> ZeroReport:
        """Zeros of mu @ rows of I, G or R on the window: ``scan`` of one row."""
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (4,):
            raise DomainError(f"weights must be four finite numbers, got {mu}")
        return self.scan(mu.reshape(1, 1, 4), which)[0]

    def scan(self, weights, which: str = "IGR") -> list[ZeroReport]:
        """Zeros on the window of weights[t, j] @ rows of which[j] for every
        trial t and function j of ``weights`` (shape (T, len(which), 4)), in
        that order, by one ``_count_from_scan`` of all of them.  The values of
        each are its own ``mu @ basis[which[j]]``: numpy evaluates the
        stacked (1, 4) @ (4, grid) products one at a time by the same
        matrix-vector product, bit for bit (a (T, 4) @ (4, grid) product is
        not), so a count does not depend on what is scanned with it.  Weights
        are checked only when a row scans non-finite: a non-finite weight
        always makes its row so."""
        weights = np.asarray(weights, dtype=float)
        T, k = weights.shape[:2]
        names, mus = which * T, weights.reshape(T * k, 4)
        basis = self.rows if which == "IGR" else np.stack([self.basis[c] for c in which])
        fs = np.matmul(weights.reshape(T, k, 1, 4), basis).reshape(T * k, -1)
        reach = self.reach  # |mu| @ reach[:, i] by weigh on floats: no BLAS dot
        try:
            return _count_from_scan(
                self.hs, fs, lambda r: functools.partial(self._f, names[r], mus[r]), self.window,
                lambda r, i: weigh(np.abs(mus[r]).tolist(), reach[names[r]][:, i].tolist()),
                names)
        except DomainError:
            if not np.isfinite(mus).all():
                bad = np.isfinite(mus).all(axis=1).argmin()
                raise DomainError(f"weights must be four finite numbers, got {mus[bad]}") from None
            raise


def _count_from_scan(xs, fs, fvec, interval, reach=None, names="f") -> list[ZeroReport]:
    """Count the zeros of each row r of fs, the values of the function
    ``fvec(r)`` on the increasing grid xs, by the rules of ``count_zeros``:
    one report per row.  A row with a non-finite value is refused, named
    ``names[r]``.  A fixed handful of numpy calls on fs as one flat array
    give the scales and two index lists: the sign changes of neighbour
    products (less the pairs across row ends) and the nodes whose |f| is at
    most both flat neighbours' (every zero node but the array's two ends).
    A trial has about one such minimum, so the counts and the fits (minima
    inside a row, with no sign change or zero node beside) are Python on
    those lists.  A minimum is also skipped when a tangency already fitted
    in its row lies between its neighbours, and, given ``reach`` (a function
    of a candidate's row and node), when |f(x_i)| > reach(r, i) + bound:
    ``_tangency`` would return None there.

    The proof of the skip: on a stencil (x - delta, x, x + delta), t in
    [-delta, delta], the fitted quadratic's value is sum_k L_k f_k with
    Lagrange weights L = (u (u - 1) / 2, 1 - u^2, u (u + 1) / 2), u = t /
    delta; they sum to 1 and at most one is negative, by at most 1/8.  So if
    every stencil value has f(x_i)'s sign and modulus in [m, M], each fitted
    value has that sign and modulus at least m - (M - m) / 8.  Every stencil
    of the fit at x_i lies in the cell W_i of ``_variation``, where
    |f - f(x_i)| <= V_i = sum_j |mu_j| var[j, i]; m = |f(x_i)| - V_i and
    M = |f(x_i)| + V_i give fitted values of modulus above |f(x_i)| - REACH
    V_i, and ``BoundScanner.reach`` adds FIT_SLACK for the rounding of the
    matvec and the fit.  The scanner forms |mu| @ reach[:, i] at each
    candidate alone, a sum of four nonnegative products folded in a fixed
    order (``weigh``), whose rounding differs from that of any other order by
    a few ulps, far inside FIT_SLACK (256 eps), so the skip stays sound.  A
    fit returns a tangency only for a fitted value within bound of zero.
    NaN or inf in reach never skips.  Each report keeps its own row, f and
    fitted tangencies for ``_locate_zeros``."""
    n, N = fs.shape
    f = fs.ravel()
    absf = np.abs(f)
    scale = np.maximum.reduce(absf.reshape(n, N), axis=1).tolist()
    for r, s in enumerate(scale):
        if not math.isfinite(s):
            raise DomainError(f"{names[r]} evaluated non-finite on the scan grid")
    # flat indices: node k is node k % N of row k // N; pair k joins nodes k and k + 1
    change = {k for k in (f[:-1] * f[1:] < 0.0).nonzero()[0].tolist() if k % N != N - 1}
    mins = [k + 1 for k in (absf[1:-1] <= np.minimum(absf[:-2], absf[2:])).nonzero()[0].tolist()]
    at_node = {k for k in [0, *mins, n * N - 1] if f[k] == 0.0}
    count = [0] * n
    for k in (*change, *at_node):
        count[k // N] += 1
    tangencies = {}
    for k in mins:
        r, idx = divmod(k, N)
        if (idx == 0 or idx == N - 1 or k - 1 in change or k in change
                or at_node and (k - 1 in at_node or k in at_node or k + 1 in at_node)):
            continue
        bound = max(ZERO_TOL * scale[r], 64 * EPS * scale[r])
        if reach is not None and abs(f[k]) > reach(r, idx) + bound:
            continue
        found = tangencies.setdefault(r, [])
        lo, hi = xs[idx - 1], xs[idx + 1]
        if any(lo <= z["location"] <= hi for z in found):
            continue
        x0 = _tangency(fvec(r), xs[idx], f[k], (lo, hi), interval, bound)
        if x0 is not None:
            found.append({"location": x0, "multiplicity_estimate": 2})
    xtol = max(ZERO_TOL * (interval[1] - interval[0]), 1e-15)
    reports = []
    for r, (c, s) in enumerate(zip(count, scale)):
        if s == 0.0:
            reports.append(ZeroReport(interval=interval, grid_size=N, identically_zero=True))
            continue
        found = tangencies.get(r, [])
        reports.append(ZeroReport(
            interval=interval, grid_size=N, count=c + 2 * len(found),
            _locate=functools.partial(_locate_zeros, xs, fs[r], found, fvec, r, xtol)))
    return reports


def _tangency(fvec, x0, f0, span, interval, bound) -> float | None:
    """Where f touches zero near the scanned minimum x0 of |f| (value f0),
    or None.  Three times: the quadratic through f at x0 - delta, x0,
    x0 + delta (Newton's divided differences on the offsets from x0) moves
    x0 to its vertex, clamped to ``span``, and delta shrinks eightfold.  A
    tangency needs a curvature of f0's sign and a vertex value within
    ``bound`` of zero (nodes themselves never land on it)."""
    delta = 0.5 * (span[1] - span[0])
    fmin, curv = f0, 0.0
    for _ in range(3):
        delta = min(delta, x0 - interval[0], interval[1] - x0)
        if not x0 - delta < x0 < x0 + delta:  # the stencil collapsed
            break
        st = np.array([x0 - delta, x0, x0 + delta])
        fl, fc, fr = fv = fvec(st)
        if not np.all(np.isfinite(fv)):
            raise DomainError(f"f evaluated non-finite at the tangency stencil {st}")
        tl, tr = st[0] - x0, st[2] - x0
        slope = (fc - fl) / -tl
        c2 = ((fr - fc) / tr - slope) / (tr - tl)
        if c2 == 0.0 or c2 * f0 < 0:
            break
        c1 = slope - c2 * tl
        t = -c1 / (2 * c2)
        x0 = float(min(max(x0 + t, span[0]), span[1]))
        t = min(max(t, -delta), delta)
        fmin, curv = fc + t * (c1 + c2 * t), c2
        delta /= 8.0
    return x0 if curv * f0 > 0 and abs(fmin) <= bound else None


def _locate_zeros(xs, fs, tangencies, fvec, r, xtol) -> tuple[list[dict], list[str]]:
    """The zeros of the function fvec(r) with values fs on xs, sorted by
    location, and its cluster warnings: the sign change in each bracket
    (xs[i], xs[i + 1]) is refined by brentq on f at single points, memoised
    so that brentq starts from the bracket ends just evaluated; each zero node
    counts as found, and so does each tangency the count fitted."""
    f = fvec(r)
    f1 = functools.cache(lambda x: float(np.atleast_1d(f(np.array([x])))[0]))
    zeros = []
    for i in (fs[:-1] * fs[1:] < 0).nonzero()[0]:
        xa, xb, ga, gb = xs[i], xs[i + 1], fs[i], fs[i + 1]
        fa, fb = f1(xa), f1(xb)
        if fa == 0.0:
            root = xa
        elif fb == 0.0:
            root = xb
        elif fa * fb < 0.0:
            root = brentq(f1, xa, xb, xtol=xtol, rtol=1e-14)
        else:
            # the scanned sign change is not reproduced pointwise: a grazing
            # zero at rounding level; place it by linear interpolation
            root = xa + ga / (ga - gb) * (xb - xa)
        zeros.append({"location": float(root), "multiplicity_estimate": 1})
    found = [{"location": float(xs[i]), "multiplicity_estimate": 1}
             for i in (fs == 0.0).nonzero()[0]]
    zeros = sorted(zeros + found + tangencies, key=lambda z: z["location"])
    warnings = [f"unresolved cluster near {za['location']:.12g}"
                for za, zb in zip(zeros[:-1], zeros[1:])
                if zb["location"] - za["location"] < 2 * xtol]
    return zeros, warnings


def bound_scanner(params: ModelParams, grid: int = 512) -> BoundScanner:
    return _scanner(params.kappa, grid)


@functools.cache
def _scanner(kappa: float, grid: int) -> BoundScanner:
    return BoundScanner(make_params(kappa), grid)


@dataclass
class BoundReport:
    kappa: float
    mu: tuple
    count_I: int
    count_G: int
    count_R: int
    chain_ok: bool
    violations: list[str]
    reconstruction_rel_err: float | None
    reports: dict


def bound_pipeline(params: ModelParams, grid: int = 512,
                   check_reconstruction: bool = True) -> BoundReport:
    """Empirical bound chain for the stored canonical weights: count zeros
    of I (eq211 route), G = L1(I) and R = L2(G) on the annulus interval and
    test count(R) <= 6, count(G) <= count(R) + 2, count(I) <= count(G) <= 8.
    Violations are reported, never clipped."""
    sc = bound_scanner(params, grid)
    mu = [float(m) for m in params.mu]
    muG = mu_G_from_eq211(mu, params.kappa).tolist()
    br = _bound_reports(sc, np.array([[mu, muG, muG]]))[0]
    if check_reconstruction and any(mu):
        br.reconstruction_rel_err = _reconstruction_error(sc, mu, muG)
    return br


def _bound_reports(sc: BoundScanner, weights) -> list[BoundReport]:
    """The bound chain, without the reconstruction check, for each trial t
    of ``weights``, shape (T, 3, 4): the eq211-stage mu and twice its
    ``mu_G_from_eq211``, the weights of I, G and R; every trial's rows in one
    ``BoundScanner.scan``."""
    reps = sc.scan(weights)
    out = []
    for t, mu in enumerate(weights[:, 0].tolist()):
        rep_I, rep_G, rep_R = reps[3 * t:3 * t + 3]
        violations = []
        if rep_R.count > 6:
            violations.append(f"count(R) = {rep_R.count} > 6")
        if rep_G.count > rep_R.count + 2:
            violations.append(f"count(G) = {rep_G.count} > count(R) + 2 = {rep_R.count + 2}")
        if rep_I.count > rep_G.count:
            violations.append(f"count(I) = {rep_I.count} > count(G) = {rep_G.count}")
        if rep_G.count > 8:
            violations.append(f"count(G) = {rep_G.count} > 8")
        out.append(BoundReport(
            kappa=sc.params.kappa, mu=tuple(mu), count_I=rep_I.count,
            count_G=rep_G.count, count_R=rep_R.count,
            chain_ok=not violations, violations=violations,
            reconstruction_rel_err=None,
            reports={"I": rep_I, "G": rep_G, "R": rep_R},
        ))
    return out


def _reconstruction_error(sc: BoundScanner, mu, muG) -> float:
    """Check I(h) = h * int_{-2/3}^h xi^-2 G(xi) d xi against the moment
    route, at three interior levels, the rows weighed by ``weigh``."""
    hc, lo = sc.params.center_h, sc.prop.lo

    def G_of(h):  # flat, as MomentBasis takes 1-d levels
        return weigh(muG, sc._basis("G", np.ravel(h)))

    def I_of(h):
        return float(weigh(mu, sc._basis("I", np.array([h]))[:, 0]))

    worst = 0.0
    scale = max(abs(I_of(0.5 * (sc.window[0] + sc.window[1]))), 1e-12)
    for q in (0.3, 0.55, 0.8):
        h = sc.window[0] + q * (sc.window[1] - sc.window[0])
        integral, _ = _adaptive_gk(lambda x: G_of(x).reshape(x.shape) / x**2, lo, h, 1e-10)
        # the sliver between the true endpoint -2/3 and the basis window edge
        integral += float(G_of(lo)[0]) * (1.0 / hc - 1.0 / lo)
        rec = h * integral
        worst = max(worst, abs(rec - I_of(h)) / scale)
    return worst


def unit_sphere_weights(seed_seq, trials: int) -> np.ndarray:
    """``trials`` weight vectors uniform on the unit sphere in R^4, shape
    (trials, 4): each row is a standard normal draw of four over its own
    norm, the draws taken in row order from ``default_rng(seed_seq)``; the
    squares are summed in a fixed order, so no BLAS kernel moves a bit."""
    d = np.random.default_rng(seed_seq).normal(size=(trials, 4))
    sq = d * d
    return d / np.sqrt(((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3])[:, None]


def sweep_kappa(kappa: float, seed_seq, trials: int, grid: int = 512) -> list[BoundReport]:
    """bound_pipeline, without the reconstruction check, at one kappa for
    each of ``unit_sphere_weights(seed_seq, trials)`` in order, SWEEP_CHUNK
    trials to a scan."""
    sc = bound_scanner(make_params(kappa), grid)
    weights = unit_sphere_weights(seed_seq, trials)
    weights_G = mu_G_from_eq211(weights.T, kappa).T
    weights = np.stack((weights, weights_G, weights_G), axis=1)
    return [br for i in range(0, trials, SWEEP_CHUNK)
            for br in _bound_reports(sc, weights[i:i + SWEEP_CHUNK])]


def sweep_bounds(kappas, trials: int, seed: int, grid: int = 512) -> list[BoundReport]:
    """Monte-Carlo bound_pipeline over weight vectors uniform on the unit
    sphere, deterministic per (seed, kappa order, trial index)."""
    children = np.random.SeedSequence(seed).spawn(len(kappas))
    return [br for kap, child in zip(kappas, children)
            for br in sweep_kappa(kap, child, trials, grid)]


# ---------------------------------------------------------------------------
# the executable form of the count(G) <= k + 2 criterion
# ---------------------------------------------------------------------------

def _variation_solution(frame: L2Frame, R, c):
    """The solution G of L2(G) = R with (G, G')(mid) = c, R a polynomial in
    h, by variation of parameters on the frame: G = x1 (c1 - Q1) + x2 (c2 +
    Q2), where Q1 and Q2 integrate x2 R / (a2 W) and x1 R / (a2 W) from the
    midpoint, a2 = h (9 kappa h^2 - 4) and W = C h^2 / sqrt(9 kappa h^2 - 4)
    (``L2Frame.abel``).  In t = sqrt(s - 1), h = -(2/3) sqrt((1 + t^2) / kappa)
    and dh / (a2 W) = 9 kappa / (8 C (1 + t^2)^2) dt, so each integrand is
    analytic on the closed window, and each Q_i is the antiderivative of a
    Chebyshev interpolant in t whose degree doubles from 64 until its last
    four coefficients are below 1e-13 of its largest."""
    k = frame.params.kappa
    t_of = lambda h: np.sqrt(_s_minus_one(np.asarray(h, dtype=float), _two_product(2.25, k)))
    domain = [t_of(frame.window[1]), t_of(frame.window[0])]  # t falls as h rises

    def antiderivative(row):
        def f(t):
            h = -(2.0 / 3.0) * np.sqrt((1.0 + t * t) / k)
            return frame.frame(h)[row] * R(h) * 9.0 * k / (8.0 * frame.abel * (1.0 + t * t) ** 2)

        deg = 64
        while deg <= VOP_MAX_DEGREE:
            p = np.polynomial.Chebyshev.interpolate(f, deg, domain=domain)
            if np.abs(p.coef[-4:]).max() <= 1e-13 * np.abs(p.coef).max():
                return p.integ(lbnd=t_of(frame.mid))
            deg *= 2
        raise ConvergenceError(f"variation integral's Chebyshev tail above 1e-13 at degree "
                               f"{deg // 2} on t in {domain}")

    Q1, Q2 = antiderivative(2), antiderivative(0)

    def G(h):
        x1, _, x2, _ = frame.frame(h)
        t = t_of(h)
        return x1 * (c[0] - Q1(t)) + x2 * (c[1] + Q2(t))
    return G


def inhomogeneous_bound_sample(params: ModelParams, window: tuple[float, float],
                 trials: int = 100, seed: int = 0, grid: int = 512) -> dict:
    """Sample solutions of the non-homogeneous equation L2(G) = R by
    variation of parameters on the closed-form frame (``_variation_solution``),
    for random polynomial right-hand sides with k <= RHS_DEGREE zeros, and
    test count(G) <= k + 2."""
    frame = L2Frame(params, window)
    span = frame.rotation_span()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    for t in range(trials):
        Rpoly = np.polynomial.Polynomial(rng.normal(size=RHS_DEGREE + 1))
        kzeros = count_zeros(lambda x: Rpoly(np.asarray(x)), window, grid=grid).count
        G = _variation_solution(frame, Rpoly, rng.normal(size=2))
        rows.append({"trial": t, "k": kzeros, "count_G": count_zeros(G, window, grid=grid).count})
    return {
        "kappa": params.kappa, "window": window, "trials": trials,
        "rotation_span": span, "chebyshev_premise": span < math.pi,
        "max_excess": max((r["count_G"] - r["k"] for r in rows), default=-10),
        "violations": [r for r in rows if r["count_G"] > r["k"] + 2], "rows": rows,
    }
