"""Congestion cores, Helly-type covering/packing, and hyperbolicity analysis
for unweighted connected graphs, over exact arithmetic.

The names below load on first use: ``hypercore.min_core`` imports
``hypercore.congestion`` at that moment, so importing the package, or one of
its modules, loads only the modules that are used.
"""

import importlib

# Exported names, by the submodule that defines them.
_EXPORTS = {
    "beamcore": ("beam_pairs", "total_beam_core"),
    "check": ("check_hit_pack", "four_point_defect"),
    "congestion": ("CoreResult", "median_vertex", "min_core", "traffic_load"),
    "generators": ("generate",),
    "graphs": (
        "DistanceMatrix", "Graph", "distance_matrix", "intercepted_pairs", "interval",
        "multi_source_distances",
    ),
    "hyperbolicity": (
        "biconnected_blocks", "eccentricity_profile", "four_point_delta", "hyperbolicity_report",
        "mutually_distant_pair", "thin_delta_bound",
    ),
    "lpkappa": ("KappaHitPackResult", "kappa_hit_pack", "round_packing"),
    "multicore": ("interval_family", "multicore_construct"),
    "quasiconvex": (
        "covering_radius", "greedy_hit_pack", "helly_center", "is_interval_like", "set_epsilons",
    ),
    "simplex": ("LPInstance", "LPSolution", "solve_lp"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    # Read from the submodule on every access, not copied here: a copy taken
    # at first use would outlive a later rebinding in the submodule (a test's
    # patch, a tracer's wrapper) and disagree with it.
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
