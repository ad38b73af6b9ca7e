"""q4lab: numerical verification lab for the codimension-four quadratic center.

Everything here is desk-scale numerics: moment integrals over level ovals by
two independent quadratures, the six-equation Picard-Fuchs system and its
derived 2x2 systems, the operator chain I -> G = L1(I) -> R = L2(G), the
exact rational-template coefficients of R in closed form, Chebyshev-property
probes for L2, and argument-principle zero counting in the complex domain.

Everything that depends on kappa alone (ovals, moments, the moment
propagation and basis, the R coefficients, keyhole contours, J
tables and bound scanners) is built once per process in a ``functools``
cache keyed by kappa, plus the level, index, grid or epsilon where they
matter, and never by the weights; :func:`clear_caches` empties them all.
"""

import logging as _logging

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DegenerateLevelError,
    DomainError,
    GeometryError,
    PathProximityError,
    Q4Error,
    SingularityError,
    UnsupportedIndexError,
)
from .model import (
    ENDPOINT_EXCLUSION,
    HamiltonianForm,
    LevelPoint,
    ModelParams,
    Oval,
    Window,
    coordinate_map,
    critical_levels,
    h_from_s,
    hamiltonian,
    in_omega,
    interior_levels,
    level_classify,
    make_params,
    oval,
    real_roots_y,
    s_from_h,
)
from .quadrature import (
    MomentIndex,
    MomentValue,
    basis_values,
    curve_discriminant,
    moment,
    moment_value,
    residue_value,
)
from .reduction import (
    MomentCombination,
    assemble_I,
    inversion_check,
    moment_reduce,
    mu_G_from_eq211,
    recurrence_residual,
)
from .picard_fuchs import (
    JState,
    MomentBasis,
    PFPropagation,
    PFVector,
    apply_L1,
    apply_L2,
    derivative_formulas,
    hypergeometric_J,
    infinity_exponents,
    initial_jstate,
    pf_derivatives,
    pf_residuals,
    propagate_J,
)
from .melnikov import RCoefficients, eval_G, eval_R, extract_R_coeffs
from .analysis import (
    BoundReport,
    ChebyshevProbeReport,
    PolyPair,
    WindingReport,
    ZeroReport,
    bound_pipeline,
    chebyshev_probe,
    count_zeros,
    vn_sample_test,
    winding_count,
)
from .dynamics import (
    Orbit,
    conservation_report,
    integrate_orbit,
    vector_field_rhs,
)
from . import analysis, melnikov, quadrature


def clear_caches() -> None:
    """Empty every per-kappa cache; each one's ``cache_info()`` reports its
    hits, misses and size."""
    for cache in (quadrature.cached_oval, quadrature._moments, melnikov._propagation,
                  melnikov._moment_basis, melnikov._r_coeffs, analysis._keyhole,
                  analysis._j_table, analysis._scanner, analysis._cheb_grid):
        cache.cache_clear()


# diagnostics (e.g. quadrature saturation at the node cap) go to the "q4lab" logger
# and print nothing unless the application configures logging
_logging.getLogger(__name__).addHandler(_logging.NullHandler())


def __getattr__(name: str):
    # the cli loads on first use, so that ``python -m q4lab.cli`` runs it fresh
    if name in ("RunConfig", "run"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + ["RunConfig", "run"]
__version__ = "0.1.0"
