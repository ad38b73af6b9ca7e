"""Zero counting, Chebyshev-property probes, and the bound pipeline.

Real zero counts come from sign scanning on Chebyshev-distributed grids,
plus a heuristic even-multiplicity detector (a closed-form quadratic fit at
interior near-tangencies); ``count_zeros`` takes a vectorised f and refuses
one that returns another shape.  The count and the tangency fits are made
at once; where the sign changes lie (brentq in each bracket) and the
unresolved-cluster warnings that depend on it are found when a report's
zeros are first read, so a caller that reads counts only never refines a
root.  Complex zero counts come from the argument principle on the keyhole
domain

    D_eps = (C \\ (-inf, 1])  with  |s - 1| > eps,  |s| < 1/eps,

traversed positively: the winding of F = (P J1 + Q J2)/J1 along the four
boundary pieces equals the zero count of P J1 + Q J2 inside, and is the
empirical content of the 2n bound for the spaces V_n.

One closed form gives J everywhere: ``hypergeometric_J`` (J2 through
Euler's transformation) on the J table's real interval, on the keyhole, and
at the scanner's levels through ``MomentBasis``; continuation of (J, W) along
the same keyhole pieces (``keyhole_by_continuation``) is kept as the
independent check.

The Chebyshev probe studies the residue solution f(h) of L2 x = 0 given by
the residue of the underlying differential at (0, y0(h)): it checks
L2(f) = 0 by finite differences, locates f's zero against the closed-form
candidate h* = -(2/3) sqrt(5/kappa) (obtained by eliminating y0 from the
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
keeps the winding count's terms in J alone, the J table and the L2 frame their
values on scan grids (``_GridMemo``): the same operations, so the same bits.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
# not called: perfbench/tracing.py counts calls through this name, and tests refuse it
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq

from .errors import ConsistencyError, ConvergenceError, DomainError, GeometryError
from .model import ModelParams, make_params, real_roots_y
from .picard_fuchs import (
    Arc,
    Line,
    _l2_kummer_pair,
    _s_minus_one,
    apply_L2,
    continue_state,
    hypergeometric_J,
    initial_jstate,
)
from .melnikov import extract_R_coeffs, get_moment_basis
from .reduction import mu_G_from_eq211

J_MARGIN = 1e-3      # JTable spans (1, kappa) less this fraction of kappa - 1 at each end
SCAN_MARGIN = 1e-6   # the scanner's window: the annulus less this fraction at each end
GRID_MIN = 64        # fewest levels of a scan grid; _GridMemo keeps values on such arrays
RHS_DEGREE = 6       # degree of inhomogeneous_bound_sample's random right-hand sides
VOP_MAX_DEGREE = 1024  # cap on the Chebyshev degree of its variation integrals

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


def _cheb_grid(a: float, b: float, n: int) -> np.ndarray:
    if n < GRID_MIN:
        raise DomainError(f"a scan grid needs at least {GRID_MIN} nodes, got {n}")
    k = np.arange(n)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * k / (n - 1))
    return nodes[::-1]


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


def count_zeros(f, interval: tuple[float, float], grid: int = 256,
                tol: float = 1e-9) -> ZeroReport:
    """Count zeros of f on the open interval, with multiplicity heuristics.

    Computed at once: each sign change between Chebyshev nodes and each node
    where f is exactly zero counts one zero; each interior minimum of |f|
    with no sign change in the brackets on either side and no zero at its
    neighbours is fitted by a quadratic through three values of f, and
    counted with multiplicity two when the fitted minimum is below
    tol * scale.  Found when ``zeros``, ``locations`` or ``warnings`` is
    first read: each sign change's location, refined by brentq to tol times
    the interval's length, and an unresolved-cluster warning for zeros
    closer than twice that.  The report keeps f and calls it again on that
    first read, so f must not change before then; equality of reports
    compares the count fields only.  The skip rule reads the grid, not the
    located zeros; the two differ only where a refined root lands exactly on
    a node.
    """
    a, b = interval
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise DomainError(f"bad interval {interval}")
    xs = _cheb_grid(a, b, grid)
    fs = _eval_f(f, xs)
    if np.any(~np.isfinite(fs)):
        raise DomainError("f evaluated non-finite on the scan grid")
    fvec = lambda x: _eval_f(f, np.asarray(x, dtype=float))
    return _count_from_scan(xs, fs, fvec, (a, b), tol)


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
    k = params.kappa
    f = (-4.0 * h + (3.0 * k * h * h - 4.0) * y0) / (k * y0 * y0 - 1.0)
    return ResidueSolution(h=h, y0=y0, f=f)


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
        self.abel = 2.0 * math.sqrt(_s_minus_one(self.mid, params.kappa)) / self.mid**2
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

    def solution(self, c1: float, c2: float):
        def sol(h):
            fr = self.frame(h)
            return c1 * fr[0] + c2 * fr[2]
        return sol


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
                    grid: int = 512, tol: float = 1e-9) -> ChebyshevProbeReport:
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

    # L2(f) residual by centered finite differences on the exact f; the
    # stencil must stay strictly below the saddle level
    f_of = lambda h: residue_solution(h, params).f
    inset = 3e-4 * max(abs(a), abs(b), 1.0)
    hgrid = np.linspace(a + inset, b - inset, 20)
    worst = 0.0
    rows = []
    for h in hgrid:
        dh = 1e-4 * max(abs(h), 1.0)
        fm2, fm1, f0, fp1, fp2 = (f_of(h + m * dh) for m in (-2, -1, 0, 1, 2))
        g1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * dh)
        g2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * dh * dh)
        val = apply_L2(f0, g1, g2, h, params)
        scale = max(abs(5 * k * h * f0), abs((9 * k * h * h - 8) * g1),
                    abs(h * (9 * k * h * h - 4) * g2))
        rel = abs(val) / scale
        worst = max(worst, rel)
        rows.append({"h": h, "f": f0, "L2f_rel": rel})

    zr = count_zeros(lambda hh: np.array([f_of(x) for x in np.atleast_1d(hh)]),
                     window, grid=grid, tol=tol)
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
        return np.polynomial.polynomial.polyval(s, np.asarray(self.P))

    def eval_Q(self, s):
        if not self.Q:
            return np.zeros_like(np.asarray(s, dtype=complex))
        return np.polynomial.polynomial.polyval(s, np.asarray(self.Q))


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
    """J sampled around the keyhole boundary of D_eps, cached per
    (kappa, eps); per-element winding counts then reduce to array
    arithmetic on the stored samples.  ``samples[name]`` is (s, J) for
    each boundary piece, J in closed form (``hypergeometric_J``).
    ``pieces[name]`` is (s, J1, J2, min |J1|, edge), edge being the cut
    edges' (Im(J2 conj(J1)), |J1|^2) and None elsewhere: ``winding_count``'s
    terms in J alone, formed once here by the same operations."""

    def __init__(self, params: ModelParams, epsilon: float = 1e-3):
        self.samples, self.pieces = {}, {}
        for name, (pieces, n) in _keyhole_pieces(epsilon).items():
            t = np.linspace(0.0, 1.0, n)
            s = np.concatenate([piece.point(t) for piece in pieces])
            J1, J2 = J = hypergeometric_J(s, params)
            self.samples[name] = (s, J)
            edge = ((J2 * np.conj(J1)).imag, np.abs(J1) ** 2) if name.startswith("cut") else None
            self.pieces[name] = (s, J1, J2, float(np.min(np.abs(J1))), edge)


def keyhole_by_continuation(params: ModelParams, epsilon: float = 1e-3):
    """The keyhole samples by continuation of (J, W) once around the
    boundary from the quadrature oracle at s = sqrt(kappa), the independent
    check of ``KeyholeContour``.  Returns (samples, closure_drift,
    det_drift): the samples at the same s points, and the relative change
    of J and of the constant det W once around the closed boundary."""
    pieces = _keyhole_pieces(epsilon)
    R, start = 1.0 / epsilon, complex(-1.0 / epsilon, epsilon**2)
    s_mid = math.sqrt(params.kappa)  # geometric midpoint of (1, kappa)
    state = initial_jstate(s_mid, params)
    det_W0 = state.det_W
    lift = max(0.25, 4.0 * epsilon)
    pre = [Line(complex(s_mid), complex(s_mid, lift)),
           Line(complex(s_mid, lift), complex(-R, lift)),
           Line(complex(-R, lift), start)]
    state = continue_state(pre, state, params, tol=1e-11,
                           eps_min=min(0.5 * epsilon, 1e-4))
    j0 = state.J
    samples = {}
    for name, (path, n) in pieces.items():
        state, recs = continue_state(path, state, params, tol=1e-11,
                                     eps_min=min(0.45 * epsilon, 1e-4),
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
    """(steps + pi) % (2 pi) - pi bit for bit for steps in [-2 pi, 2 pi], at a
    tenth of the float %'s cost: x = steps + pi is in [-pi, 3 pi], where the
    remainder is x - 2 pi from 2 pi up (exact by Sterbenz) and x + 2 pi below 0."""
    x = steps + np.pi
    x[x >= 2.0 * np.pi] -= 2.0 * np.pi
    x[x < 0.0] += 2.0 * np.pi
    return x - np.pi


def winding_count(pair: PolyPair, params: ModelParams,
                  epsilon: float = 1e-3) -> WindingReport:
    """Argument-principle zero count of P J1 + Q J2 on the keyhole domain.

    On the cut edges the imaginary part of F is assembled from the
    pointwise conjugate-pair fundamental matrix, Im F =
    Q Im(J2 conj(J1)) / |J1|^2, matching the boundary analysis; elsewhere F
    is used directly.
    """
    ct = keyhole_contour(params, epsilon)
    segments = []
    total = 0.0
    min_j1 = math.inf
    max_step = 0.0
    edge_gap = 0.0
    for name, (s, J1, J2, amin, edge) in ct.pieces.items():
        min_j1 = min(min_j1, amin)
        if amin == 0.0:
            raise GeometryError("J1 vanishes on the contour; F undefined")
        P = pair.eval_P(s)
        Q = pair.eval_Q(s)
        F = (P * J1 + Q * J2) / J1
        if edge is not None:
            imf = Q.real * edge[0] / edge[1]
            edge_gap = max(edge_gap, float(np.max(np.abs(imf - F.imag))
                                           / (np.max(np.abs(F)) + 1e-300)))
            F = F.real + 1j * imf
        steps = _wrap(np.diff(np.angle(F)))
        inc = float(np.sum(steps))
        max_step = max(max_step, float(np.max(np.abs(steps))))
        total += inc
        segments.append({"name": name, "arg_increment": inc})
    w = int(round(total / (2.0 * math.pi)))
    residual = abs(total / (2.0 * math.pi) - w)
    return WindingReport(
        n=pair.n, epsilon=epsilon, segments=segments, winding=w,
        residual=residual, min_abs_J1=min_j1,
        bound_ok=w <= 2 * pair.n, max_arg_step=max_step,
        edge_im_agreement=edge_gap,
    )


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
    coeffs /= np.linalg.norm(coeffs)
    return PolyPair(P=tuple(coeffs[: n + 1]), Q=tuple(coeffs[n + 1:]))


def vn_sample_test(n: int, trials: int, params: ModelParams, seed: int,
                   grid: int = 512, epsilon: float = 1e-3) -> dict:
    """Random sampling of V_n: real-zero counts on (1, kappa) and winding
    counts on the keyhole domain, against the dimension bound 2n."""
    if not (1 <= n <= 4):
        raise DomainError("n must be in 1..4")
    tab = j_table(params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_real = 0
    max_winding = 0
    worst_residual = 0.0
    violations = []
    rows = []
    for t in range(trials):
        pair = random_poly_pair(n, rng)

        def V(s):
            J = tab.J(s)
            return pair.eval_P(s).real * J[0] + pair.eval_Q(s).real * J[1]

        zr = count_zeros(V, (tab.lo, tab.hi), grid=grid)
        wr = winding_count(pair, params, epsilon)
        max_real = max(max_real, zr.count)
        max_winding = max(max_winding, wr.winding)
        worst_residual = max(worst_residual, wr.residual)
        if not wr.bound_ok:
            violations.append({"trial": t, "kind": "winding", "value": wr.winding})
        if zr.count > 2 * n:
            violations.append({"trial": t, "kind": "real", "value": zr.count})
        rows.append({"trial": t, "real_zeros": zr.count, "winding": wr.winding,
                     "residual": wr.residual})
    return {
        "n": n, "trials": trials, "kappa": params.kappa,
        "max_real_zeros": max_real, "max_winding": max_winding,
        "worst_residual": worst_residual, "bound": 2 * n,
        "violations": violations, "rows": rows,
    }


# ---------------------------------------------------------------------------
# the bound pipeline (empirical bound chain)
# ---------------------------------------------------------------------------

class BoundScanner:
    """Per-kappa precomputation for fast zero counts of I, G and R over
    many weight vectors: each function is linear in the weights, so a
    4 x grid basis matrix reduces one trial to a matvec plus sign scan.
    Refinement points get the same rows from ``_basis``.  The rows come
    from the per-kappa ``MomentBasis`` (``prop``): R needs only the
    closed-form J, G also JJ, and I the series values; no ODE is solved.
    ``PFPropagation`` is the independent check of these rows."""

    def __init__(self, params: ModelParams, grid: int = 512):
        self.params = params
        self.prop = get_moment_basis(params)
        self.rc = extract_R_coeffs(params)
        hc, hs = params.center_h, params.saddle_h
        w = hs - hc
        self.window = (hc + SCAN_MARGIN * w, hs - SCAN_MARGIN * w)
        self.hs = _cheb_grid(*self.window, grid)
        self.basis = {which: self._basis(which, self.hs) for which in "IGR"}

    def _basis(self, which: str, h):
        """Rows of I, G or R for the four unit weights at the levels h."""
        k = self.params.kappa
        if which == "I":
            V = self.prop.values(h)
            return np.stack([h * V[0], V[1], V[2], 2.0 * V[4] + 3.0 * k * h * V[5]])
        J1, J2 = self.prop.J(h)
        if which == "G":
            return np.stack([h * h * J1, J2, J1, self.prop.JJ(h, J2)])
        return self.rc.unit_rows(h, J1, J2)

    def count(self, which: str, mu, tol: float = 1e-9) -> ZeroReport:
        mu = np.asarray(mu, dtype=float)
        fvec = lambda h: mu @ self._basis(which, np.atleast_1d(np.asarray(h, dtype=float)))
        return _count_from_scan(self.hs, mu @ self.basis[which], fvec, self.window, tol)


def _count_from_scan(xs, fs, fvec, interval, tol) -> ZeroReport:
    """Count the zeros of f from its values fs on the increasing grid xs,
    by the rules of ``count_zeros``; only the tangency fits evaluate f.  A
    minimum is also skipped when a tangency already fitted lies between its
    neighbours.  The report keeps each bracket's ends and the zeros found
    here for ``_locate_zeros``."""
    scale = float(np.max(np.abs(fs)))
    if scale == 0.0:
        return ZeroReport(interval=interval, grid_size=xs.size, identically_zero=True)
    change = fs[:-1] * fs[1:] < 0
    at_node = fs == 0.0
    brackets = [(xs[i], xs[i + 1], fs[i], fs[i + 1]) for i in np.nonzero(change)[0]]
    nodes = [{"location": float(xs[i]), "multiplicity_estimate": 1}
             for i in np.nonzero(at_node)[0]]
    tangencies = []
    absf = np.abs(fs)
    is_min = (absf[1:-1] <= absf[:-2]) & (absf[1:-1] <= absf[2:]) & ~at_node[1:-1]
    beside_zero = change[:-1] | change[1:] | at_node[:-2] | at_node[2:]
    bound = max(tol * scale, 64 * np.finfo(float).eps * scale)
    for idx in np.nonzero(is_min & ~beside_zero)[0] + 1:
        lo, hi = xs[idx - 1], xs[idx + 1]
        if any(lo <= z["location"] <= hi for z in tangencies):
            continue
        x0 = _tangency(fvec, xs[idx], fs[idx], (lo, hi), interval, bound)
        if x0 is not None:
            tangencies.append({"location": x0, "multiplicity_estimate": 2})
    xtol = max(tol * (interval[1] - interval[0]), 1e-15)
    return ZeroReport(interval=interval, grid_size=xs.size,
                      count=len(brackets) + len(nodes) + 2 * len(tangencies),
                      _locate=functools.partial(_locate_zeros, brackets, nodes + tangencies,
                                                fvec, xtol))


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


def _locate_zeros(brackets, found, fvec, xtol) -> tuple[list[dict], list[str]]:
    """The zeros of a report, sorted by location, and its cluster warnings:
    each bracket's sign change is refined by brentq on f at single points,
    memoised so that brentq starts from the bracket ends just evaluated;
    ``found`` holds the zeros the count located already."""
    f1 = functools.cache(lambda x: float(np.atleast_1d(fvec(np.array([x])))[0]))
    zeros = []
    for xa, xb, ga, gb in brackets:
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
    zeros = sorted(zeros + found, key=lambda z: z["location"])
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
    mu = np.asarray(params.mu, dtype=float)
    muG = mu_G_from_eq211(mu, params.kappa)
    rep_I = sc.count("I", mu)
    rep_G = sc.count("G", muG)
    rep_R = sc.count("R", muG)
    violations = []
    if rep_R.count > 6:
        violations.append(f"count(R) = {rep_R.count} > 6")
    if rep_G.count > rep_R.count + 2:
        violations.append(f"count(G) = {rep_G.count} > count(R) + 2 = {rep_R.count + 2}")
    if rep_I.count > rep_G.count:
        violations.append(f"count(I) = {rep_I.count} > count(G) = {rep_G.count}")
    if rep_G.count > 8:
        violations.append(f"count(G) = {rep_G.count} > 8")

    rec_err = None
    if check_reconstruction and np.any(mu != 0.0):
        rec_err = _reconstruction_error(sc, mu, muG)

    return BoundReport(
        kappa=params.kappa, mu=tuple(mu), count_I=rep_I.count,
        count_G=rep_G.count, count_R=rep_R.count,
        chain_ok=not violations, violations=violations,
        reconstruction_rel_err=rec_err,
        reports={"I": rep_I, "G": rep_G, "R": rep_R},
    )


def _reconstruction_error(sc: BoundScanner, mu, muG) -> float:
    """Check I(h) = h * int_{-2/3}^h xi^-2 G(xi) d xi against the moment
    route, at three interior levels."""
    from .quadrature import _adaptive_gk
    hc = sc.params.center_h
    lo = sc.prop.lo

    def G_of(h):
        return muG @ sc._basis("G", np.atleast_1d(np.asarray(h, dtype=float)))

    def I_of(h):
        return float(mu @ sc._basis("I", np.array([h]))[:, 0])

    worst = 0.0
    scale = max(abs(I_of(0.5 * (sc.window[0] + sc.window[1]))), 1e-12)
    for q in (0.3, 0.55, 0.8):
        h = sc.window[0] + q * (sc.window[1] - sc.window[0])
        integral, _ = _adaptive_gk(lambda x: G_of(x) / x**2, lo, h, 1e-10)
        # the sliver between the true endpoint -2/3 and the basis window edge
        integral += float(G_of(lo)[0]) * (1.0 / hc - 1.0 / lo)
        rec = h * integral
        worst = max(worst, abs(rec - I_of(h)) / scale)
    return worst


def unit_sphere_weights(seed_seq, trials: int) -> np.ndarray:
    """``trials`` weight vectors uniform on the unit sphere in R^4, shape
    (trials, 4): each row is a standard normal draw of four over its own
    norm, the draws taken in row order from ``default_rng(seed_seq)``."""
    draws = np.random.default_rng(seed_seq).normal(size=(trials, 4))
    return np.array([mu / np.linalg.norm(mu) for mu in draws]).reshape(trials, 4)


def sweep_kappa(kappa: float, seed_seq, trials: int, grid: int = 512) -> list[BoundReport]:
    """bound_pipeline, without the reconstruction check, at one kappa for
    each of ``unit_sphere_weights(seed_seq, trials)`` in order."""
    base = make_params(kappa)
    return [bound_pipeline(replace(base, mu=tuple(mu)), grid=grid, check_reconstruction=False)
            for mu in unit_sphere_weights(seed_seq, trials)]


def sweep_bounds(kappas, trials: int, seed: int, grid: int = 512) -> list[BoundReport]:
    """Monte-Carlo bound_pipeline over weight vectors uniform on the unit
    sphere, deterministic per (seed, kappa order, trial index)."""
    children = np.random.SeedSequence(seed).spawn(len(kappas))
    return [br for kap, child in zip(kappas, children)
            for br in sweep_kappa(kap, child, trials, grid)]


# ---------------------------------------------------------------------------
# executable forms of the two zero-bound criteria
# ---------------------------------------------------------------------------

def frame_rotation_probe(params: ModelParams, window: tuple[float, float],
                trials: int = 40, seed: int = 0, grid: int = 512) -> dict:
    """Executable Chebyshev criterion for L2 on a window: measure the frame
    rotation (nonvanishing solution exists iff the sweep stays under pi)
    and cross-check by zero counts of random solutions."""
    frame = L2Frame(params, window)
    span = frame.rotation_span()
    exists_nonvanishing = span < math.pi - 1e-9
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = [count_zeros(frame.solution(*c / np.linalg.norm(c)), window, grid=grid).count
              for c in rng.normal(size=(trials, 2))]
    max_count = max(counts, default=0)
    return {
        "kappa": params.kappa, "window": window, "rotation_span": span,
        "exists_nonvanishing": exists_nonvanishing,
        "max_solution_zeros": max_count, "all_sampled_vanish": 0 not in counts,
        "consistent": (not exists_nonvanishing) or max_count <= 1,
    }


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
    t_of = lambda h: np.sqrt(_s_minus_one(np.asarray(h, dtype=float), k))
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
