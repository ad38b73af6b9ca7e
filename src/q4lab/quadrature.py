"""Brute-force oracle for the moment integrals I_{i,j}(h).

    I_{i,j}(h) = iint_{region(h)} x^i y^j dx dy

where region(h) is the disk bounded by the level oval around the center
(1, 1), in either the cubic picture (region {H(x, y, h) < 0}) or the
symmetric picture (region {H(x, y) < h}).  Two independent methods:

* ``green``   reduce to a contour integral over the oval by Green's theorem
              and integrate with adaptive Gauss-Kronrod panels in the ray
              angle; the primary method.  The ray geometry (point and
              tangent at the 15 nodes of a panel) is memoised on the oval
              per panel, so each panel's rays are solved once for all indices.
* ``area2d``  cell subdivision over a tight bounding box with sign tests on
              H, one depth at a time; boundary cells are finished with exact
              per-column slices and Gauss-Kronrod in x, cut where the curve
              folds (roots of a sextic) or crosses a cell row.  The slices
              and the row crossings are cubics in y and in x, solved like
              green's rays by ``model.cubic_real_roots``.  The geometry
              (cells, breakpoints, runs, and each run's slice components,
              taken once at the middle of a run without a fold) does not
              depend on the index (i, j), so it is built once per oval.
              Inner cells are summed exactly per index, and the boundary
              panels of a batch of indices refined together.

Both refine batches of integrals in one GK loop, ``_gk_refine`` (as does the
I-reconstruction check); the six symmetric-form basis moments are one batch.

Both methods localize to the connected component of the region containing
the center, using the exact star-shaped membership test of the oval.  The
module also evaluates the residues of the underlying third-kind differential
and a discriminant detecting singular level curves.

Ovals are cached per (h, kappa, form) and moment batches per (indices, h,
kappa, form, method, tol) in ``functools`` caches, and area2d keeps the
geometry of the last oval it integrated; ``q4lab.clear_caches`` empties all three.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .model import (
    HamiltonianForm,
    ModelParams,
    Oval,
    _level_fn,
    cubic_real_roots,
    make_params,
    oval,
)

logger = logging.getLogger(__name__)

# Gauss-Kronrod 15 nodes on [-1, 1] and weights, with the embedded Gauss-7
# weights on the odd-indexed nodes.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


# (i, j) of the six basic moments I00, I10, I01, I11, I-10, I-11
BASIS_INDICES = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1))


@dataclass(frozen=True)
class MomentIndex:
    """Index pair (i, j) of a moment, tagged with the cubic picture it lives
    in.  Negative i is admissible (the cubic-form integrands go down to
    x^-6); the integration region must then stay away from x = 0."""

    i: int
    j: int
    form: HamiltonianForm = HamiltonianForm.SYMMETRIC_FORM


@dataclass(frozen=True)
class MomentValue:
    index: MomentIndex
    h: float
    value: float
    method: str
    err_estimate: float
    panels: int  # GK panels at the end
    saturated: bool  # stopped at the panel cap with the error above its budget


@functools.cache
def cached_oval(h: float, kappa: float, form: HamiltonianForm) -> Oval:
    return oval(h, make_params(kappa), form=form)


def _gk_sums(fx: np.ndarray):
    """GK15(7) value and error estimate of each panel from its weighted
    integrand values fx (P, 15), the weights holding the half-width, summed
    per row by numpy's add.reduce: a BLAS gemv's bits vary with the kernel."""
    k = np.add.reduce(fx * _WGK, axis=1)
    return k, np.abs(k - np.add.reduce(fx[:, 1::2] * _WG, axis=1))


def _gk_refine(nodes, sums, panels: tuple, offsets: list, rel: float, max_panels: int,
               whats: list) -> list:
    """Integral k is offsets[k] plus the GK sum over its panels, from shared
    first panels (arrays of any tags, then the ends lo and hi), to its own
    budget rel |integral| (QUADPACK's QAG criterion).  Each round halves, per
    integral, every panel above an even share of the budget, and the worst,
    as many as ``max_panels`` has room for (stopped there, it logs one
    WARNING naming whats[k]).  ``nodes(*panels)`` gives the node data of all
    new panels, each distinct one once, with the panel on axis -2, and
    ``sums(k, *data)`` integral k's value and error on its own panels.
    Returns (value, error, panels, saturated) per integral."""
    data, out = nodes(*panels), [None] * len(offsets)
    live = {k: (panels, *sums(k, *data)) for k in range(len(offsets))}
    while True:
        new = {}
        for k, (panels, value, err) in list(live.items()):
            total = offsets[k] + float(np.sum(value))
            target = rel * max(abs(total), 1e-300)
            est = float(np.sum(err))
            if not est > target or value.size >= max_panels:
                if est > target:
                    logger.warning("%s stopped at %d panels (max_panels=%d): error estimate "
                                   "%.3e above the target %.3e (relative budget %.3e)",
                                   whats[k], value.size, max_panels, est, target, rel)
                out[k] = (total, est, value.size, est > target)
                del live[k]
                continue
            split = err > target / value.size
            split[np.argmax(err)] = True  # the worst panel, should rounding leave none above
            room = max_panels - value.size
            if np.count_nonzero(split) > room:  # the worst first, to end at max_panels
                split = np.isin(np.arange(err.size), np.argsort(-err, kind="stable")[:room])
            *tags, lo, hi = (a[split] for a in panels)
            mid = 0.5 * (lo + hi)
            new[k] = (*(np.tile(t, 2) for t in tags), np.concatenate([lo, mid]),
                      np.concatenate([mid, hi]))
            live[k] = (tuple(np.concatenate([a[~split], b]) for a, b in zip(panels, new[k])),
                       value[~split], err[~split])
        if not new:
            return out
        # each new panel's first occurrence (lexsort is stable), and the distinct ones
        cat = [np.concatenate(a) for a in zip(*new.values())]
        srt = np.lexsort(cat)
        lead = np.r_[True, np.any([a[srt[1:]] != a[srt[:-1]] for a in cat], axis=0)]
        first = np.empty_like(srt)
        first[srt] = srt[lead][np.cumsum(lead) - 1]
        distinct, rows = np.unique(first, return_inverse=True)
        data = nodes(*(a[distinct] for a in cat))
        for k, r in zip(new, np.split(rows, np.cumsum([h[-1].size for h in new.values()])[:-1])):
            panels, value, err = live[k]
            v, e = sums(k, *(d.take(r, axis=-2) for d in data))
            live[k] = (panels, np.concatenate([value, v]), np.concatenate([err, e]))


def _adaptive_gk(f, a: float, b: float, tol: float, max_panels: int = 4000):
    """f over [a, b] to tol |integral| from 8 equal panels; f takes the
    (P, 15) nodes of each round's P new panels."""
    def nodes(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return half, f(0.5 * (lo + hi)[:, None] + half * _XGK)

    edges = np.linspace(a, b, 9)
    return _gk_refine(nodes, lambda _, half, fx: _gk_sums(half * fx), (edges[:-1], edges[1:]),
                      [0.0], tol, max_panels, [f"adaptive GK on [{a!r}, {b!r}]"])[0][:2]


def _moments_green(ijs: tuple, ov: Oval, tol: float) -> list:
    """The green moments I_ij, (i, j) in ijs, refined as one batch from 8
    equal angle panels; one ``point_tangent`` call per round."""
    def nodes(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return (half, *ov.point_tangent(0.5 * (lo + hi)[:, None] + half * _XGK))

    def sums(k, half, x, y, dx, dy):
        i, j = ijs[k]
        f = x ** (i + 1) * y**j / (i + 1) * dy if i != -1 else -(x**i) * y ** (j + 1) / (j + 1) * dx
        return _gk_sums(half * f)

    edges = np.linspace(0.0, 2.0 * math.pi, 9)
    return _gk_refine(nodes, sums, (edges[:-1], edges[1:]), [0.0] * len(ijs), tol, 4000,
                      [f"green I_{i}_{j} at h={ov.h!r}" for i, j in ijs])


# ---------------------------------------------------------------------------
# area2d: quadtree with exact vertical slices on boundary cells
# ---------------------------------------------------------------------------

def _slice_cubic(ov: Oval):
    """Depressed cubic a y^3 + p(x) y + q(x) for the vertical restriction of
    the level function (value < 0 inside the region): a and the coefficients
    of p and q in ascending powers of x."""
    km = ov.params.kappa - 1.0
    if ov.form is HamiltonianForm.SYMMETRIC_FORM:
        return ov.params.kappa / 3.0, [-1.0, 0.0, -km], [-ov.h, 0.0, 0.0, (2.0 / 3.0) * km]
    return ov.params.kappa / 3.0, [-km, 0.0, -1.0], [(2.0 / 3.0) * km, 0.0, 0.0, -ov.h]


def _slice_segments(xs: np.ndarray, ylo, yhi, ov: Oval, comp=-1):
    """For each column x, the parts of {y in [ylo, yhi] : level function < 0}
    that belong to the oval component: (lo, hi), each of shape (2,) +
    xs.shape, the clipped ends of a column's at most two segments, with
    lo = hi = 0 where a column has no such segment.  The row bounds ylo and
    yhi broadcast against xs, so every node can carry its own cell rows.
    comp, broadcast like the ends, is each segment's component where it is
    known: 1 in the oval's, 0 in another, -1 tested by ``Oval.contains``."""
    a, p, q = _slice_cubic(ov)
    p, q = (np.polynomial.polynomial.polyval(xs.ravel(), c) for c in (p, q))
    r = cubic_real_roots(a, 0.0, p, q).T.reshape((3,) + xs.shape)
    # negative set of the cubic (positive leading coefficient):
    # one real root r0:    (-inf, r0)      (r1 = r2 = NaN)
    # three roots r0<r1<r2: (-inf, r0) u (r1, r2)
    lo = np.maximum(np.stack([np.full(xs.shape, -np.inf), r[1]]), ylo)
    hi = np.minimum(np.stack([r[0], r[2]]), yhi)
    keep = np.isfinite(lo) & np.isfinite(hi) & (hi > lo)
    test = keep & (comp < 0)
    keep &= comp != 0
    if np.any(test):
        keep[test] = ov.contains(np.broadcast_to(xs, lo.shape)[test], 0.5 * (lo + hi)[test])
    return np.where(keep, lo, 0.0), np.where(keep, hi, 0.0)


def _fold_xs(ov: Oval) -> np.ndarray:
    """Real x of the fold points of the level curve (vertical tangents,
    double y-roots): the real roots of the x-discriminant
    D(x) = -4 a p^3 - 27 a^2 q^2 of the vertical slice cubic (degree 6)."""
    a, p, q = _slice_cubic(ov)
    P = np.polynomial.polynomial
    D = -4.0 * a * P.polypow(p, 3) - 27.0 * a * a * P.polymul(q, q)
    pts = np.roots(D[::-1])
    return pts[np.abs(pts.imag) < 1e-9 * (1.0 + np.abs(pts.real))].real


def _row_crossings(ov: Oval, rows: np.ndarray) -> list:
    """Real x where the level curve crosses each row y in ``rows``, one
    array per row, in one solve: the restriction of the level function to
    a row is again a cubic in x."""
    k, h = ov.params.kappa, ov.h
    km = k - 1.0
    cube = (k / 3.0) * (rows * rows * rows)  # not rows**3, whose bits vary with the batch
    if ov.form is HamiltonianForm.SYMMETRIC_FORM:
        c3 = ((2.0 / 3.0) * km, -km * rows, 0.0, cube - rows - h)
    else:
        c3 = (-h, -rows, 0.0, cube - km * rows + (2.0 / 3.0) * km)
    return [x[np.isfinite(x)] for x in cubic_real_roots(*c3)]


class _Area2dGeometry:
    """Everything area2d needs from one oval that does not depend on the
    moment index (i, j): the quadtree leaves in depth-first order, the fold
    roots and row crossings behind the boundary leaves' x-pieces, the pieces
    as runs, and each run's two initial GK panels.  Built once per oval and
    shared by all indices; every panel gets its nodes, weights and slice ends
    from :meth:`panel_nodes`, so every value is the one a fresh build would
    give.  A run is a piece in the panel variable t:
    x = t on [t0, t1], or x = base + sign t^2 on [0, t1] at a fold, where the
    slice measure behaves like sqrt(|x - base|); a piece with folds at both
    ends is split at its midpoint into two runs."""

    MAX_DEPTH = 4

    def __init__(self, ov: Oval):
        self.oval = ov
        self.fold_xs = _fold_xs(ov)
        self.cells, self.boundary = self._walk(np.array([ov.bounding_box()]))
        self.rects = self.cells[~self.boundary].T
        edge = self.cells[self.boundary]
        # row y -> crossing x, for the two rows of every boundary leaf, in one solve
        rows = np.unique(edge[:, 2:])
        self.crossings = dict(zip(rows.tolist(), _row_crossings(ov, rows)))
        self.pieces = self._pieces(edge)
        # the runs (t0, t1, base, sign, y0, y1) of the class docstring; sign 0 for x = t
        leaf, a, b, fold_lo, fold_hi = self.pieces
        at = np.repeat(np.arange(a.size), np.where(fold_lo & fold_hi, 2, 1))
        upper = np.r_[False, at[1:] == at[:-1]]  # a two-fold piece's second run
        leaf, a, b, fold_lo, fold_hi = (v[at] for v in self.pieces)
        mid = 0.5 * (a + b)
        at_a, at_b = fold_lo & ~upper, upper | (fold_hi & ~fold_lo)  # x = a + t^2, b - t^2
        span = np.where(fold_lo & fold_hi, np.where(upper, b - mid, mid - a), b - a)
        t0 = np.where(at_a | at_b, 0.0, a)
        t1 = np.where(at_a | at_b, np.sqrt(span), b)
        self.base = np.where(at_a, a, np.where(at_b, b, 0.0))
        self.sign = at_a - at_b.astype(float)
        self.y0, self.y1 = edge[leaf, 2], edge[leaf, 3]
        mid = 0.5 * (t0 + t1)
        # each segment's component, decided once at the run's middle where
        # the run ends at no fold (see panel_nodes); -1 leaves it to the nodes
        xm = np.where(self.sign != 0.0, self.base + self.sign * mid * mid, mid)
        lo, hi = _slice_segments(xm, self.y0, self.y1, ov, 1)  # every segment, untested
        test = (hi > lo) & (self.sign == 0.0)
        self.comp = np.full(lo.shape, -1, np.int8)
        self.comp[test] = ov.contains(np.broadcast_to(xm, lo.shape)[test], 0.5 * (lo + hi)[test])
        # (run, t_lo, t_hi) of each initial panel
        self.panels = (np.tile(np.arange(t0.size), 2), np.concatenate([t0, mid]),
                       np.concatenate([mid, t1]))

    def _walk(self, cells: np.ndarray) -> tuple:
        """Quadtree leaves of the box, (n, 4), and which are boundary leaves,
        classified one depth at a time: a cell whose 5x5 samples of the level
        function are all positive is dropped, one whose samples are all
        negative and whose center lies in the oval's component is an inner
        leaf, and any other is split in four, or becomes a boundary leaf at
        MAX_DEPTH.  Sorting by quadrant path gives the depth-first order of a
        recursive walk."""
        ov = self.oval
        keys = np.zeros(1, dtype=np.int64)
        found = []  # (base-4 quadrant paths padded to MAX_DEPTH digits, cells, boundary)
        for depth in range(self.MAX_DEPTH + 1):
            X = np.linspace(cells[:, 0], cells[:, 1], 5, axis=1)[:, None, :]
            Y = np.linspace(cells[:, 2], cells[:, 3], 5, axis=1)[:, :, None]
            S = _level_fn(X, Y, ov.h, ov.params, ov.form)
            inner = np.all(S < 0.0, axis=(1, 2))
            inner[inner] = ov.contains(0.5 * (cells[inner, 0] + cells[inner, 1]),
                                       0.5 * (cells[inner, 2] + cells[inner, 3]))
            split = ~inner & ~np.all(S > 0.0, axis=(1, 2))
            leaf = inner | split if depth == self.MAX_DEPTH else inner
            found.append((keys[leaf] * 4 ** (self.MAX_DEPTH - depth), cells[leaf], split[leaf]))
            x0, x1, y0, y1 = cells[split & ~leaf].T
            mx, my = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            cells = np.stack([np.stack([x0, mx, y0, my], 1), np.stack([mx, x1, y0, my], 1),
                              np.stack([x0, mx, my, y1], 1), np.stack([mx, x1, my, y1], 1)],
                             axis=1).reshape(-1, 4)
            keys = (4 * keys[split & ~leaf, None] + np.arange(4)).ravel()
        keys, cells, boundary = (np.concatenate(a) for a in zip(*found))
        return cells[np.argsort(keys)], boundary[np.argsort(keys)]

    def _pieces(self, cells: np.ndarray) -> tuple:
        """The x-pieces (cell, a, b, fold_lo, fold_hi) of the boundary cells
        (n, 4), in one array pass: each cell cut at the breakpoints of its row
        strip, and each end flagged where it lies at a fold."""
        strips, strip = np.unique(cells[:, 2:], axis=0, return_inverse=True)
        brk = [self.breakpoints(*s) for s in strips.tolist()]  # NaN pads compare False
        pad = np.array([np.r_[r, np.full(max(map(len, brk)) - r.size, np.nan)] for r in brk])
        cuts = np.concatenate([cells[:, :1], pad[strip.reshape(-1)], cells[:, 1:2]], axis=1)
        keep = (cuts > cuts[:, :1] + 1e-13) & (cuts < cuts[:, -1:] - 1e-13)
        keep[:, [0, -1]] = True
        cell, cuts = np.nonzero(keep)[0], cuts[keep]
        near = np.any(np.abs(cuts[:, None] - self.fold_xs) < 1e-9 * (1.0 + np.abs(cuts[:, None])),
                      axis=1)
        ok = (cell[1:] == cell[:-1]) & (cuts[1:] - cuts[:-1] >= 1e-13)
        return cell[1:][ok], cuts[:-1][ok], cuts[1:][ok], near[:-1][ok], near[1:][ok]

    def breakpoints(self, cy0: float, cy1: float) -> np.ndarray:
        """Sorted x-values where the slice integrand of a boundary cell
        between the rows cy0 and cy1 loses smoothness: fold points of the
        level curve and crossings of the curve through the two rows, from
        the fold roots and the row crossings solved once per oval."""
        return np.unique(np.concatenate([self.fold_xs, self.crossings[cy0],
                                         self.crossings[cy1]]))

    def panel_nodes(self, run: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray):
        """GK15 nodes x (P, 15) of the panels [t_lo, t_hi] of the given
        runs, their weights w (half-width times dx/dt) and the dense slice
        ends (lo, hi) of shape (2, P, 15) at the nodes, in one call.  A run
        that ends at no fold takes each segment's component from its middle:
        inside the run no two roots of the slice cubic meet (folds are cuts)
        and none crosses a row (crossings are cuts), so a segment present at
        the middle is present along the run and sweeps a connected part of
        {G < 0}, which lies in one component.  Fold runs and a segment absent
        at the middle are tested per node: a fold run's base is the fold root
        to rounding, so its first nodes can lie past the true fold, where the
        float roots of the slice cubic give a spurious segment (up to 2.2e-7
        long) that the middle would keep and ``Oval.contains`` drops."""
        half = 0.5 * (t_hi - t_lo)[:, None]
        t = 0.5 * (t_lo + t_hi)[:, None] + half * _XGK
        fold = (self.sign[run] != 0.0)[:, None]
        x = np.where(fold, self.base[run, None] + self.sign[run, None] * t * t, t)
        w = half * np.where(fold, 2.0 * t, 1.0)
        lo, hi = _slice_segments(x, self.y0[run, None], self.y1[run, None], self.oval,
                                 self.comp[:, run, None])
        return x, w, lo, hi


# the geometry of the most recently integrated oval only, so memory stays
# bounded; callers integrate all indices at one level before moving on
_area2d_geometry = functools.lru_cache(maxsize=1)(_Area2dGeometry)

# boundary panels after which an area2d moment stops refining; c01's grid
# ends below 400 at tol 1e-8, and below 1e-13 rounding limits the estimate
AREA2D_MAX_PANELS = 2000


def _panels_gk(i: int, j: int, nodes):
    """GK15(7) value and error estimate of x^i y^j on each panel."""
    x, w, lo, hi = nodes
    return _gk_sums(x**i * w * (hi ** (j + 1) - lo ** (j + 1)).sum(axis=0) / (j + 1))


def _moments_area2d(ijs: tuple, ov: Oval, tol: float) -> list:
    """The area2d moments I_ij, (i, j) in ijs: inner rectangles exactly, plus one
    batched GK pass over the boundary panels, to 0.02 tol |moment| each."""
    geo = _area2d_geometry(ov)
    x0, x1, y0, y1 = geo.rects  # exact over the inner cells (x0 > 0 when i <= -1)
    ix = lambda i: np.log(x1 / x0) if i == -1 else (x1 ** (i + 1) - x0 ** (i + 1)) / (i + 1)
    rects = [float(np.sum(ix(i) * (y1 ** (j + 1) - y0 ** (j + 1)))) / (j + 1) for i, j in ijs]
    return _gk_refine(geo.panel_nodes, lambda k, *nodes: _panels_gk(*ijs[k], nodes),
                      geo.panels, rects, 0.02 * tol, AREA2D_MAX_PANELS,
                      [f"area2d I_{i}_{j} at h={ov.h!r}" for i, j in ijs])


def moment(index: MomentIndex, h: float, params: ModelParams,
           method: str = "green", tol: float = 1e-8) -> MomentValue:
    """Evaluate one moment integral at level h to a relative tolerance.

    The tolerance is relative to the whole moment, and each method spends
    it as one error budget shared by all of its panels: green's angle panels
    get tol |I| and at most 4000 panels, area2d's boundary panels 0.02 tol |I|
    and at most AREA2D_MAX_PANELS.

    A symmetric-form basis index (BASIS_INDICES) brings its five siblings,
    refined as one batch, each to the value it gets alone.  Results are
    cached per batch, (indices, h, kappa, form, method, tol): ovals and
    moments depend on kappa only, never on the perturbation weights.
    """
    return _moment(index, h, params.kappa, method, tol)


def _moment(index: MomentIndex, h: float, kappa: float, method: str,
            tol: float) -> MomentValue:
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    ov = cached_oval(h, kappa, index.form)
    ij, bad = (index.i, index.j), {"green": index.i == index.j == -1, "area2d": index.j < 0}
    if index.i < 0 and ov.min_x <= 1e-6:
        raise DomainError(f"negative power x^{index.i}: oval reaches x = {ov.min_x} near 0")
    if bad.get(method, True):  # green has no polynomial antiderivative for (-1, -1)
        raise DomainError(f"no {method!r} moment I_{index.i}_{index.j} (methods: green, "
                          "except (-1, -1); area2d, for j >= 0)")
    batch = tuple(b for b in BASIS_INDICES if b[0] >= 0 or ov.min_x > 1e-6) if (
        index.form is HamiltonianForm.SYMMETRIC_FORM and ij in BASIS_INDICES) else (ij,)
    value, err, panels, saturated = _moments(batch, h, kappa, index.form, method, tol)[
        batch.index(ij)]
    if err > 100.0 * tol * max(abs(value), 1e-12):
        raise ConvergenceError(
            f"moment {index} at h={h}: error estimate {err:.2e} above target")
    return MomentValue(index, h, value, method, err, panels, saturated)


@functools.cache
def _moments(ijs: tuple, h: float, kappa: float, form: HamiltonianForm, method: str,
             tol: float) -> tuple:
    ov = cached_oval(h, kappa, form)
    return tuple((_moments_green if method == "green" else _moments_area2d)(ijs, ov, tol))


def moment_value(i: int, j: int, h: float, params: ModelParams,
                 form: HamiltonianForm = HamiltonianForm.SYMMETRIC_FORM,
                 method: str = "green", tol: float = 1e-10) -> float:
    """Bare-value convenience wrapper around :func:`moment`."""
    return moment(MomentIndex(i, j, form), h, params, method=method, tol=tol).value


def basis_values(h: float, params: ModelParams, tol: float = 1e-10) -> np.ndarray:
    """The six basic symmetric-form moments I_{i,j}, (i, j) in BASIS_INDICES,
    at level h, by the green oracle, refined as one batch (not through
    :func:`moment`)."""
    return np.array([_moment(MomentIndex(i, j), h, params.kappa, "green", tol).value
                     for i, j in BASIS_INDICES])


# ---------------------------------------------------------------------------
# residues and discriminant
# ---------------------------------------------------------------------------

def residue_value(h: float, y: float, params: ModelParams) -> float:
    """Residue of the third-kind differential at the point (0, y) on the level
    curve: (-4 h + (3 kappa h^2 - 4) y) / (kappa y^2 - 1).

    Requires y to actually solve (kappa/3) y^3 - y = h; poles sit at
    kappa y^2 = 1."""
    k = params.kappa
    resid = (k / 3.0) * y**3 - y - h
    if abs(resid) > 1e-9 * max(1.0, abs(h)):
        raise DomainError(f"y={y} is not on the level cubic (residual {resid:.2e})")
    den = k * y * y - 1.0
    if abs(den) < 1e-12:
        raise SingularityError(f"residue pole: kappa y^2 = 1 at y = {y}")
    return (-4.0 * h + (3.0 * k * h * h - 4.0) * y) / den


def curve_discriminant(h: float, params: ModelParams) -> float:
    """Discriminant-style invariant of the projective closure of the
    symmetric level cubic {H(x, y) = h}: zero exactly at singular levels.

    Affine singularities are detected through the x-discriminant of
    D(x) = disc_y(H(x, .) - h); the point at infinity contributes the
    discriminant of the leading binary cubic, which is -(4 kappa/3)
    (kappa - 1)^2 and never vanishes for kappa > 1.
    """
    k = params.kappa
    km = k - 1.0
    a = k / 3.0
    # D(x) = -4 a p(x)^3 - 27 a^2 q(x)^2, degree 6 (p, q from the y-slices)
    p3 = np.zeros(7)
    p3[0], p3[2], p3[4], p3[6] = -1.0, -3.0 * km, -3.0 * km**2, -(km**3)
    q2 = np.zeros(7)
    q2[6], q2[3], q2[0] = (4.0 / 9.0) * km**2, -(4.0 / 3.0) * km * h, h * h
    D = -4.0 * a * p3 - 27.0 * a * a * q2
    D = D / np.max(np.abs(D))
    # disc_x(D) ~ resultant(D, D') via the Sylvester matrix
    Dp = D[1:] * np.arange(1, 7)
    n, m = 6, 5
    S = np.zeros((n + m, n + m))
    for r in range(m):
        S[r, r:r + n + 1] = D[::-1]
    for r in range(n):
        S[m + r, r:r + m + 1] = Dp[::-1]
    res = float(np.linalg.det(S))
    inf_part = -(4.0 * k / 3.0) * km**2
    return res * inf_part
