import functools

import numpy as np
import pytest

from q4lab import make_params
from q4lab.analysis import _keyhole_pieces
from q4lab.picard_fuchs import hypergeometric_J


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
