"""The per-kappa caches: one functools cache per builder, all emptied by
``q4lab.clear_caches``, keyed by kappa (plus level, index, grid or epsilon)
and never by the perturbation weights, and invisible in the output."""

import sys

import q4lab
from q4lab import analysis, clear_caches, make_params, melnikov, quadrature
from q4lab.cli import RunConfig, run
from q4lab.quadrature import MomentIndex


def _module_caches() -> dict:
    """Every functools cache held at module level anywhere in the package."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "q4lab" or name.startswith("q4lab."):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_info", None)):
                    out.setdefault(id(value), (f"{name}.{attr}", value))
    return dict(out.values())


def test_clear_caches_empties_every_cache():
    p = make_params(4.0, mu=(0.3, -0.1, 0.8, 0.2))
    h = -0.51
    quadrature.moment(MomentIndex(1, 0), h, p, "area2d", 1e-8)
    melnikov.get_propagation(p)
    analysis.bound_pipeline(p, grid=64, check_reconstruction=False)
    analysis.winding_count(analysis.PolyPair(P=(1.0, 0.5), Q=(0.2,)), p)
    analysis.j_table(p)
    caches = _module_caches()
    assert len(caches) == 9, sorted(caches)
    assert all(c.cache_info().currsize > 0 for c in caches.values()), {
        name: c.cache_info() for name, c in caches.items()}
    clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(
        caches, 0)


def test_cached_objects_depend_on_kappa_alone():
    a = make_params(2.5, mu=(1.0, 0.0, 0.0, 0.0))
    b = make_params(2.5, mu=(0.0, -2.0, 0.5, 1.0))
    for front_door in (melnikov.get_moment_basis, melnikov.extract_R_coeffs,
                       analysis.keyhole_contour, analysis.j_table):
        assert front_door(a) is front_door(b)
    sc = analysis.bound_scanner(a, 128)
    assert sc is analysis.bound_scanner(b, 128)
    assert sc is not analysis.bound_scanner(a, 129)
    # a cached scanner does not keep the weights of the first caller
    assert sc.params == make_params(2.5) and sc.prop.params == make_params(2.5)


def test_zeros_bytes_cold_and_warm(tmp_path):
    def zeros(name):
        cfg = RunConfig(kappa_list=[1.5, 4.0], mu_mode="random_sphere", trials=3, seed=5,
                        output_dir=str(tmp_path / name))
        assert run("zeros", cfg) == 0
        return (tmp_path / name / "zeros.csv").read_bytes()

    clear_caches()
    cold = zeros("cold")
    for command in ("sweep", "winding"):
        run(command, RunConfig(kappa_list=[1.5, 4.0], mu_mode="random_sphere", trials=2,
                               seed=9, output_dir=str(tmp_path / command)))
    # filled by the other commands: the scanners, the keyhole contours and
    # the J tables
    assert analysis._scanner.cache_info().currsize == 2
    assert analysis._keyhole.cache_info().currsize == 2
    assert analysis._j_table.cache_info().currsize == 2
    warm = zeros("warm")
    assert warm == cold
    assert cold.count(b"count:R") == 6


def test_one_clear_caches():
    assert not hasattr(quadrature, "clear_caches")
    assert not hasattr(melnikov, "clear_caches")
    assert q4lab.clear_caches is clear_caches
