"""Congestion cores, Helly-type covering/packing, and hyperbolicity analysis
for unweighted connected graphs, over exact arithmetic."""

from .beamcore import (
    BeamCoreResult,
    BeamSeparationReport,
    StructuralReport,
    beam_pairs,
    beams_pairwise_close,
    structural_checks,
    total_beam_core,
)
from .congestion import (
    CoreResult,
    TrafficDemand,
    centroid_vertex,
    geodesic_count,
    median_vertex,
    min_core,
    traffic_load,
)
from .generators import GeneratorSpec, generate
from .graphs import (
    Ball,
    DistanceMatrix,
    Graph,
    ball_members,
    descend_geodesic,
    distance_matrix,
    gromov_product,
    intercepted_pairs,
    interval,
    multi_source_distances,
    set_distance,
)
from .halfint import HalfInt
from .hyperbolicity import (
    EccentricityProfile,
    FourPointResult,
    HyperbolicityReport,
    biconnected_blocks,
    eccentricity_profile,
    far_apart_pairs,
    four_point_defect,
    four_point_delta,
    furthest_set,
    hyperbolicity_report,
    interval_thinness,
    mutually_distant_pair,
    thin_delta_bound,
)
from .lpkappa import (
    GammaIndex,
    KappaHitPackResult,
    KappaQSet,
    build_hitting_lp,
    build_packing_lp,
    gamma_sets,
    kappa_hit_pack,
    round_hitting,
    round_packing,
)
from .multicore import (
    CommodityGraph,
    MultiCoreResult,
    brute_pi,
    brute_sigma,
    brute_tau,
    inflate_family,
    interval_family,
    multicore_construct,
)
from .quasiconvex import (
    HitPackResult,
    QSet,
    QSetFamily,
    check_hit_pack,
    covering_radius,
    greedy_hit_pack,
    helly_balls_check,
    helly_center,
    is_interval_like,
    measure_epsilon,
    neighborhood,
    project_toward,
)
from .simplex import LPInstance, LPSolution, solve_lp

__version__ = "0.1.0"
