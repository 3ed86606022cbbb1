"""Command-line driver: ingest graphs and set families, run the analyses,
emit versioned JSON reports.

Exit codes: 0 on success, 1 on input errors, 2 when a verified certificate
or structural check fails, with one stderr line naming each failed claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .fileio import (
    LabelTable,
    read_edge_list,
    read_family_json,
    read_kappa_family_json,
    read_pairs,
    read_tokens,
    write_edge_list,
)
from .generators import PRNG_ID
from .graphs import DEFAULT_MATRIX_CAP, distance_matrix

# Each handler imports the analysis modules it runs, so a command loads
# only its own (see README Notes).  It returns its report and the claims it
# checked, each named by its report field, with whether it holds.


def __getattr__(name):
    # The package's names, which this module once imported at the top, stay
    # readable as its attributes: ``hypercore.cli.four_point_delta``.
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

SCHEMA = "hypercore-report/1"


class _CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CLIError(message)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _parse_half_integer(text: str) -> Fraction:
    frac = _parse_fraction(text)
    if frac.denominator not in (1, 2):
        raise ValueError(f"{text!r} is not an integer or half-integer")
    return frac


def _read_graph(args):
    g, table = read_edge_list(args.edges)
    if g.n > args.max_n:
        raise ValueError(f"graph has {g.n} vertices, above the all-pairs cap --max-n {args.max_n}")
    return g, table


def _load_graph(args):
    g, table = _read_graph(args)
    return g, distance_matrix(g, cap=args.max_n), table


def _thin_delta(args, g, dm) -> Fraction:
    """Thin-triangle constant to certify with.

    Without --delta it is certified from the upper end of the four-point
    bracket, which is recorded in ``args.four_point`` for the report.
    """
    if args.delta is not None:
        delta = _parse_half_integer(args.delta)
        if delta < 0:
            raise ValueError(f"--delta {args.delta} is negative: a thin-triangle constant is >= 0")
        try:
            float(delta)  # the report gives it as a float too
        except OverflowError:
            raise ValueError(f"--delta {args.delta} is too large for a float") from None
        return delta
    from .hyperbolicity import four_point_delta, thin_delta_bound

    fp = four_point_delta(g, dm)
    args.four_point = fp
    return thin_delta_bound(fp.upper)


def _base_vertex(args, table) -> int:
    return table.id_of(args.base) if args.base is not None else 0


def _half_integer_json(h: Fraction) -> dict:
    # h is a four-point bracket end, four times one, or a checked --delta: a half-integer
    return {"value": float(h), "doubled": h.numerator * (2 // h.denominator)}


def _fraction_json(f: Fraction) -> dict:
    return {"rational": f"{f.numerator}/{f.denominator}", "decimal": float(f)}


def _cmd_generate(args):
    from .generators import generate

    g = generate(args.kind, n=args.n, p=args.p, rows=args.rows, cols=args.cols, seed=args.seed)
    table = LabelTable([str(i) for i in range(g.n)])
    write_edge_list(g, table, args.edges_out)
    return {
        "kind": args.kind,
        "n": g.n,
        "m": g.m,
        "edges_out": str(args.edges_out),
    }, {}


def _cmd_hyperbolicity(args):
    from .check import four_point_defect
    from .hyperbolicity import eccentricity_profile, hyperbolicity_report

    g, dm, table = _load_graph(args)
    fp, thinness = hyperbolicity_report(g, dm)
    prof = eccentricity_profile(dm)
    delta = f"delta = {fp.delta} (exact)" if fp.exact else f"delta in [{fp.delta}, {fp.upper}]"
    print(
        f"{delta}, interval thinness = {thinness}, "
        f"diameter = {prof.diameter}, radius = {prof.radius}, "
        f"|center| = {len(prof.center)}",
        file=sys.stderr,
    )
    upper = {} if fp.exact else {"delta_upper": _half_integer_json(fp.upper)}
    return {
        "n": g.n,
        "m": g.m,
        "delta": _half_integer_json(fp.delta),
        "exact": fp.exact,
        **upper,
        "witness": table.labels_of(fp.witness),
        "interval_thinness": thinness,
        "diameter": prof.diameter,
        "radius": prof.radius,
        "center": table.labels_of(prof.center),
    }, {"witness": four_point_defect(dm, fp.witness) == fp.delta}


def _cmd_core(args):
    from .congestion import min_core

    g, table = _read_graph(args)
    if args.profile == "all":
        profile = list(range(g.n))
    else:
        profile = table.ids_of(read_tokens(args.profile))
    alpha = _parse_fraction(args.alpha)
    res = min_core(g, profile, alpha)
    frac_of_pairs = Fraction(res.intercepted_pairs, res.total_pairs)
    return {
        "profile_size": len(set(profile)),
        "alpha": str(alpha),
        "center": table.label_of(res.center),
        "radius": res.radius,
        "intercepted_pairs": res.intercepted_pairs,
        "total_pairs": res.total_pairs,
        "pair_fraction": _fraction_json(frac_of_pairs),
        "median_vertex": table.label_of(res.median),
    }, {}


def _cmd_traffic(args):
    from .congestion import traffic_load

    g, table = _read_graph(args)
    demand = None  # the uniform demand
    if args.demand != "uniform":
        demand = [(table.id_of(a), table.id_of(b)) for a, b in read_pairs(args.demand)]
    subset = table.ids_of(args.set.split(","))
    mu = traffic_load(g, demand, subset)
    return {
        "demand_pairs": g.n * (g.n - 1) if demand is None else len(demand),
        "set": table.labels_of(sorted(set(subset))),
        "mu": _fraction_json(mu),
    }, {}


def _cmd_multicore(args):
    from .check import balls_intercept
    from .multicore import multicore_construct

    g, dm, table = _load_graph(args)
    pairs = [(table.id_of(a), table.id_of(b)) for a, b in read_pairs(args.commodity)]
    delta = _thin_delta(args, g, dm)
    centers = multicore_construct(g, dm, pairs, args.radius, delta).hitting_set
    covered = balls_intercept(g, dm, centers, args.radius, pairs)
    report = {
        "pairs": len(pairs),
        "radius": args.radius,
        "delta": _half_integer_json(delta),
        "centers": table.labels_of(centers),
        "size": len(centers),
        "covered": covered,
    }
    return report, {"covered": covered}


def _cmd_beamcore(args):
    from .beamcore import beam_pairs, total_beam_core
    from .check import balls_intercept
    from .hyperbolicity import eccentricity_profile

    g, dm, table = _load_graph(args)
    delta = _thin_delta(args, g, dm)
    bc = total_beam_core(g, dm, delta)
    all_beams = balls_intercept(g, dm, [bc.midpoint], bc.radius, beam_pairs(dm))
    # diam >= 2*rad - 2*delta - 1, and C(G) inside B(m, 4*delta + 1) for the
    # midpoint m; delta is an exact Fraction, so no float is compared
    prof = eccentricity_profile(dm)
    diam_rad_holds = prof.diameter >= 2 * prof.radius - delta * 2 - 1
    max_center_distance = max(int(dm.d[bc.midpoint, c]) for c in prof.center)
    close_to_center_holds = max_center_distance <= delta * 4 + 1
    report = {
        "delta": _half_integer_json(delta),
        "mutually_distant_pair": table.labels_of(bc.pair),
        "midpoint": table.label_of(bc.midpoint),
        "radius": bc.radius,
        "all_beams_intercepted": all_beams,
        "structural": {
            "diameter": prof.diameter,
            "radius": prof.radius,
            "center": table.labels_of(prof.center),
            "diam_rad_holds": diam_rad_holds,
            "max_center_distance": max_center_distance,
            "close_to_center_holds": close_to_center_holds,
        },
    }
    return report, {
        "all_beams_intercepted": all_beams,
        "structural.diam_rad_holds": diam_rad_holds,
        "structural.close_to_center_holds": close_to_center_holds,
    }


def _cmd_helly(args):
    from .check import set_gaps
    from .quasiconvex import (
        covering_radius, geodesic_covering_radius, helly_center, is_interval_like, set_epsilons,
    )

    g, dm, table = _load_graph(args)
    entries = read_family_json(args.family)
    sets = [table.ids_of(e["vertices"]) for e in entries]
    epsilon = max(set_epsilons(dm, sets))
    delta = _thin_delta(args, g, dm)
    z = _base_vertex(args, table)
    center = helly_center(g, dm, sets, args.r, z=z, names=[e["name"] for e in entries])
    # never negative: r >= 0 (helly_center refused it), eps >= 0 and delta >= 0 (_thin_delta)
    radius = math.floor(covering_radius(args.r, epsilon, delta))
    gaps = set_gaps(dm, [center], radius, sets)
    all_hit = not any(gaps)
    report = {
        "sets": len(sets),
        "epsilon": epsilon,
        "delta": _half_integer_json(delta),
        "r": args.r,
        "ball": {"center": table.label_of(center), "radius": radius},
        "set_gaps": gaps,
        "all_hit": all_hit,
    }
    if all(is_interval_like(dm, s) for s in sets):
        report["geodesic_case_radius"] = math.floor(geodesic_covering_radius(args.r, delta))
    return report, {"all_hit": all_hit}


def _cmd_hitpack(args):
    from .check import check_hit_pack
    from .quasiconvex import covering_radius, greedy_hit_pack, set_epsilons

    g, dm, table = _load_graph(args)
    entries = read_family_json(args.family)
    sets = [table.ids_of(e["vertices"]) for e in entries]
    epsilon = max(set_epsilons(dm, sets))
    delta = _thin_delta(args, g, dm)
    z = _base_vertex(args, table)
    hp = greedy_hit_pack(g, dm, sets, args.r, z=z)
    # never negative: r >= 0 (greedy_hit_pack refused it), eps >= 0 and delta >= 0 (_thin_delta)
    hit_radius = math.floor(covering_radius(args.r, epsilon, delta))
    hit_ok, pack_ok = check_hit_pack(dm, sets, hp.hitting_set, hit_radius, hp.packing, args.r)
    report = {
        "sets": len(sets),
        "epsilon": epsilon,
        "delta": _half_integer_json(delta),
        "r": args.r,
        "hitting_set": table.labels_of(hp.hitting_set),
        "packing": [entries[i]["name"] for i in hp.packing],
        "hit_radius": hit_radius,
        "pack_gap": args.r,
        "certificates": {"hitting": hit_ok, "packing": pack_ok},
    }
    return report, {
        "certificates.hitting": hit_ok,
        "certificates.packing": pack_ok,
        "len(hitting_set) == len(packing)": len(hp.hitting_set) == len(hp.packing),
    }


def _cmd_kappa(args):
    from .check import check_hit_pack
    from .lpkappa import kappa_hit_pack

    g, dm, table = _load_graph(args)
    entries = read_kappa_family_json(args.family)
    members = [[table.ids_of(part) for part in e["parts"]] for e in entries]
    delta = _thin_delta(args, g, dm)
    z = _base_vertex(args, table)
    res = kappa_hit_pack(g, dm, members, args.r, delta, z=z)
    unions = [[v for part in parts for v in part] for parts in members]
    hit_ok, pack_ok = check_hit_pack(dm, unions, res.hitting_set, res.r_prime, res.packing, args.r)
    bound_ok = len(res.hitting_set) <= 2 * res.kappa**2 * len(res.packing)
    report = {
        "members": len(members),
        "kappa": res.kappa,
        "epsilon": res.epsilon,
        "delta": _half_integer_json(delta),
        "r": args.r,
        "r_star": res.r_star,
        "r_prime": res.r_prime,
        "hitting_set": table.labels_of(res.hitting_set),
        "packing": [entries[i]["name"] for i in res.packing],
        "lp_optima": {
            "packing": str(res.packing_optimum),
            "hitting": str(res.hitting_optimum),
            "gap_zero": res.packing_optimum == res.hitting_optimum,
        },
        "certificates": {"hitting": hit_ok, "packing": pack_ok, "size_bound": bound_ok},
    }
    return report, {
        "certificates.hitting": hit_ok,
        "certificates.packing": pack_ok,
        "certificates.size_bound": bound_ok,
    }


def _add_graph_flags(sub):
    sub.add_argument("--edges", required=True, help="edge-list file")


def _add_family_flags(sub, family_help, *, r_required=False):
    sub.add_argument("--family", required=True, help=family_help)
    sub.add_argument("--r", type=int, default=0, required=r_required)
    sub.add_argument("--base", default=None, help="base vertex label (default: first label)")


def _add_delta_flag(sub):
    sub.add_argument(
        "--delta",
        default=None,
        help="thin-triangle constant override (integer or half-integer); "
        "default is 4x the upper end of the measured four-point bracket",
    )


@functools.cache
def _build_parser() -> _Parser:
    # built on first use and kept: building costs far more than one parse,
    # and parsing leaves the parser unchanged
    parser = _Parser(prog="hypercore", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed recorded in reports")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--max-n", type=int, default=DEFAULT_MATRIX_CAP, help="all-pairs distance matrix cap"
    )
    parser.set_defaults(four_point=None)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("generate", help="emit a synthetic graph as an edge list")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--edges-out", required=True, help="output edge-list path")

    p = subs.add_parser("hyperbolicity", help="four-point constant and eccentricity report")
    _add_graph_flags(p)

    p = subs.add_parser("core", help="minimum-radius interception core of a profile")
    _add_graph_flags(p)
    p.add_argument("--profile", default="all", help="'all' or a file of vertex labels")
    p.add_argument("--alpha", default="1/2", help="pair fraction the core must intercept")

    p = subs.add_parser("traffic", help="exact traffic load of a vertex set")
    _add_graph_flags(p)
    p.add_argument("--demand", default="uniform", help="'uniform' or a file of labeled pairs")
    p.add_argument("--set", required=True, help="comma-separated vertex labels")

    p = subs.add_parser("multicore", help="total multi-core for a commodity graph")
    _add_graph_flags(p)
    p.add_argument("--commodity", required=True, help="file of labeled demand pairs")
    p.add_argument("--radius", type=int, required=True)
    _add_delta_flag(p)

    p = subs.add_parser("beamcore", help="total beam core and structural checks")
    _add_graph_flags(p)
    _add_delta_flag(p)

    p = subs.add_parser("helly", help="single ball meeting a 2r-close family")
    _add_graph_flags(p)
    _add_family_flags(p, "JSON family file")
    _add_delta_flag(p)

    p = subs.add_parser("hitpack", help="greedy equal-size hitting set and packing")
    _add_graph_flags(p)
    _add_family_flags(p, "JSON family file")
    _add_delta_flag(p)

    p = subs.add_parser("kappa", help="covering/packing for unions of quasiconvex sets")
    _add_graph_flags(p)
    _add_family_flags(p, "JSON kappa-family file", r_required=True)
    _add_delta_flag(p)

    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "hyperbolicity": _cmd_hyperbolicity,
    "core": _cmd_core,
    "traffic": _cmd_traffic,
    "multicore": _cmd_multicore,
    "beamcore": _cmd_beamcore,
    "helly": _cmd_helly,
    "hitpack": _cmd_hitpack,
    "kappa": _cmd_kappa,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -1/2 after a space for an option: glue it to its flag
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in ("--delta", "--alpha") and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
        if args.max_n < 1:  # no graph has fewer vertices, so it would refuse every one
            parser.error(f"argument --max-n: must be at least 1, got {args.max_n}")
    except _CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        payload, claims = _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "prng": PRNG_ID,
        "seed": args.seed,
        **payload,
    }
    if args.four_point is not None:
        report["delta_four_point"] = _half_integer_json(args.four_point.delta)
        if not args.four_point.exact:
            report["delta_exact"] = False
    text = json.dumps(report, indent=2, sort_keys=False)
    try:
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    except OSError as exc:  # such as an --out in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [claim for claim, holds in claims.items() if not holds]
    for claim in failed:
        print(f"error: check failed: {claim}", file=sys.stderr)
    return 2 if failed else 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
