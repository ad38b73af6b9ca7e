import functools
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import q4lab.quadrature as quad
from q4lab import make_params
from q4lab.analysis import _keyhole_pieces
from q4lab.picard_fuchs import hypergeometric_J


def openblas_kernels() -> list:
    """The OpenBLAS kernels this CPU runs, of SkylakeX, Haswell and
    Prescott, or [] when numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS,
    whose kernel OPENBLAS_CORETYPE sets at import."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if ("DYNAMIC_ARCH" not in blas.get("openblas configuration", "")
            or platform.machine().lower() not in ("x86_64", "amd64")):
        return []
    from numpy._core._multiarray_umath import __cpu_features__ as cpu
    need = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Prescott": "SSE3"}
    return [core for core, feature in need.items() if cpu.get(feature)]


def kernel_env(core: str | None) -> dict:
    """The environment of a subprocess that imports this tree's q4lab with
    OpenBLAS's kernel set to ``core``, or as this process has it (None)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return env if core is None else dict(env, OPENBLAS_CORETYPE=core)


def keyhole_reference(params, epsilon: float = 1e-3) -> dict:
    """The whole keyhole boundary of D_eps in closed form, both halves, as
    piece name -> (s, J) in traversal order: each piece's points at
    linspace(0, 1, n), then ``hypergeometric_J``.  The reference that the
    contour's stored upper half, the continuation and the full-boundary
    winding counts are checked against; cached per (kappa, epsilon)."""
    return _keyhole_reference(params.kappa, epsilon)


@functools.cache
def _keyhole_reference(kappa: float, epsilon: float) -> dict:
    params, out = make_params(kappa), {}
    for name, (path, n) in _keyhole_pieces(epsilon).items():
        s = np.concatenate([piece.point(np.linspace(0.0, 1.0, n)) for piece in path])
        out[name] = (s, hypergeometric_J(s, params))
    return out


def gk_refine_reference(evaluate, panels: tuple, value, err, offset: float, rel: float,
                        max_panels: int):
    """One integral's globally adaptive GK loop, as each moment index ran
    it alone before the indices were refined in batches: (value, error
    estimate, panels, rounds).  ``evaluate(*panels)`` gives each new
    panel's value and error; the stopping rule and the split are the
    batched loop's."""
    rounds = 0
    while True:
        total = offset + float(np.sum(value))
        target = rel * max(abs(total), 1e-300)
        est = float(np.sum(err))
        if not est > target or value.size >= max_panels:
            return total, est, value.size, rounds
        split = err > target / value.size
        split[np.argmax(err)] = True
        room = max_panels - value.size
        if np.count_nonzero(split) > room:
            split = np.isin(np.arange(err.size), np.argsort(-err, kind="stable")[:room])
        *tags, lo, hi = (a[split] for a in panels)
        mid = 0.5 * (lo + hi)
        halves = (*(np.tile(t, 2) for t in tags), np.concatenate([lo, mid]),
                  np.concatenate([mid, hi]))
        v, e = evaluate(*halves)
        panels = tuple(np.concatenate([a[~split], b]) for a, b in zip(panels, halves))
        value, err = np.concatenate([value[~split], v]), np.concatenate([err[~split], e])
        rounds += 1


GREEN_REFERENCE_PANELS = 32  # equal angle panels the GK green reference starts from


def green_reference(i: int, j: int, ov, tol: float):
    """I_ij by green with adaptive GK15 panels in the ray angle, refined
    alone from GREEN_REFERENCE_PANELS equal ones (see ``gk_refine_reference``):
    an independent check on the trapezoidal rule that the library uses."""
    def evaluate(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        x, y, dx, dy = ov.point_tangent(0.5 * (lo + hi)[:, None] + half * quad._XGK)
        if i != -1:
            return quad._gk_sums(half * (x ** (i + 1) * y**j / (i + 1) * dy))
        return quad._gk_sums(half * (-(x**i) * y ** (j + 1) / (j + 1) * dx))

    edges = np.linspace(0.0, 2.0 * np.pi, GREEN_REFERENCE_PANELS + 1)
    panels = (edges[:-1], edges[1:])
    return gk_refine_reference(evaluate, panels, *evaluate(*panels), 0.0, tol, 4000)


def trapezoid_reference(i: int, j: int, ov, tol: float):
    """I_ij by green's trapezoidal rule, alone, as ``quadrature._moments_green``
    documents it: (value, error, N, saturated).  Each N's whole equal grid is
    solved afresh by ``point_tangent`` (not read from the oval's store); its
    new nodes, every other one, are summed by add.reduce and the sums folded
    in order."""
    def terms(n):
        x, y, dx, dy = ov.point_tangent(np.arange(n) * (2.0 * np.pi / n))
        return quad._green_terms(((i, j),), np.stack([x, y, dx, dy]))[0]

    n = ov.grid_radii.size
    f = terms(n)
    half = np.add.reduce(f[0::2])
    total, size = half + np.add.reduce(f[1::2]), np.add.reduce(np.abs(f))
    while True:
        step = 2.0 * np.pi / n
        value = step * total
        err = abs(value - 2.0 * step * half)
        if not err > tol * abs(value) or n >= quad.GREEN_MAX_NODES:
            break
        n *= 2
        f = terms(n)[1::2]
        half, total = total, total + np.add.reduce(f)
        size += np.add.reduce(np.abs(f))
    saturated = bool(err > tol * abs(value))
    return value, max(err, np.log2(n) * np.finfo(float).eps * step * size), n, saturated


def area2d_reference(i: int, j: int, ov, tol: float):
    """I_ij by area2d, refined alone (see ``gk_refine_reference``)."""
    panels = quad._area2d_panels(ov)
    evaluate = lambda *panels: tuple(a[0] for a in quad._panels_gk(
        ((i, j),), quad._slice_nodes(ov, *panels)))
    return gk_refine_reference(evaluate, panels, *evaluate(*panels), 0.0, 0.02 * tol,
                               quad.AREA2D_MAX_PANELS)


@pytest.fixture(scope="session")
def p4():
    return make_params(4.0, mu=(1.0, 0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def p2():
    return make_params(2.0)


@pytest.fixture(scope="session")
def p15():
    return make_params(1.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
