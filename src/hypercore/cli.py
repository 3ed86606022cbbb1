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
    _parse_edge_list,
    _read_text,
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


# The last edge-list file read, one tuple replaced whole: (path, text, graph,
# label table, distance matrix or None until a command asks for it).  A read
# of any other file empties it first, so at most one graph and one matrix
# are held; both are immutable, so threads may share them (README Notes).
_last_read = None


def _read_edges(args):
    """The entry of --edges, which every command reads anew: the last one
    when its path and text are the same, else a new one, parsed."""
    global _last_read
    text = _read_text(args.edges)
    entry = _last_read
    if entry is None or entry[:2] != (args.edges, text):
        entry = _last_read = None  # release the old graph and matrix before the parse
        entry = _last_read = (args.edges, text, *_parse_edge_list(args.edges, text), None)
    g = entry[2]
    if g.n > args.max_n:
        raise ValueError(f"graph has {g.n} vertices, above the all-pairs cap --max-n {args.max_n}")
    return entry


def _read_graph(args):
    return _read_edges(args)[2:4]


def _load_graph(args):
    global _last_read
    path, text, g, table, dm = _read_edges(args)
    if dm is None:
        dm = distance_matrix(g, cap=args.max_n)
        _last_read = (path, text, g, table, dm)
    return g, dm, table


def _thin_delta(args, g, dm) -> tuple[Fraction, dict]:
    """Thin-triangle constant to certify with, and the report fields of the
    four-point bracket it was taken from, which a report puts last.

    Without --delta it is certified from the upper end of the measured
    bracket; the fields give its lower end as ``delta_four_point``, and
    ``delta_exact: false`` when the ends differ.  With --delta there are none.
    """
    if args.delta is not None:
        delta = _parse_half_integer(args.delta)
        if delta < 0:
            raise ValueError(f"--delta {args.delta} is negative: a thin-triangle constant is >= 0")
        try:
            float(delta)  # the report gives it as a float too
        except OverflowError:
            raise ValueError(f"--delta {args.delta} is too large for a float") from None
        return delta, {}
    from .hyperbolicity import four_point_delta, thin_delta_bound

    lower, _, upper = four_point_delta(g, dm)
    fields = {"delta_four_point": _half_integer_json(lower)}
    if lower != upper:
        fields["delta_exact"] = False
    return thin_delta_bound(upper), fields


def _load_family(args, *, kappa=False):
    """(g, dm, table, entries, sets, epsilon, delta, four_point, z) of a family
    command, checked in this order; for ``kappa`` each of ``sets`` is a
    member's list of parts."""
    from .quasiconvex import set_epsilons

    g, dm, table = _load_graph(args)
    if kappa:
        entries = read_kappa_family_json(args.family)
        sets = [[table.ids_of(part) for part in e["parts"]] for e in entries]
        parts = [part for member in sets for part in member]
    else:
        entries = read_family_json(args.family)
        sets = parts = [table.ids_of(e["vertices"]) for e in entries]
    epsilon = max(set_epsilons(dm, parts))
    delta, four_point = _thin_delta(args, g, dm)
    z = table.id_of(args.base) if args.base is not None else 0
    return g, dm, table, entries, sets, epsilon, delta, four_point, z


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
    (delta, witness, upper), thinness = hyperbolicity_report(g, dm)
    diameter, radius, center = eccentricity_profile(dm)
    exact = delta == upper
    bracket = f"delta = {delta} (exact)" if exact else f"delta in [{delta}, {upper}]"
    print(
        f"{bracket}, interval thinness = {thinness}, "
        f"diameter = {diameter}, radius = {radius}, |center| = {len(center)}",
        file=sys.stderr,
    )
    return {
        "n": g.n,
        "m": g.m,
        "delta": _half_integer_json(delta),
        "exact": exact,
        **({} if exact else {"delta_upper": _half_integer_json(upper)}),
        "witness": table.labels_of(witness),
        "interval_thinness": thinness,
        "diameter": diameter,
        "radius": radius,
        "center": table.labels_of(center),
    }, {"witness": four_point_defect(dm, witness) == delta}


def _cmd_core(args):
    from .congestion import min_core

    g, table = _read_graph(args)
    if args.profile == "all":
        profile = list(range(g.n))
    else:
        profile = table.ids_of(read_tokens(args.profile))
    alpha = _parse_fraction(args.alpha)
    center, radius, count, median = min_core(g, profile, alpha)
    profile_size = len(set(profile))
    total_pairs = profile_size * (profile_size - 1) // 2
    return {
        "profile_size": profile_size,
        "alpha": str(alpha),
        "center": table.label_of(center),
        "radius": radius,
        "intercepted_pairs": count,
        "total_pairs": total_pairs,
        "pair_fraction": _fraction_json(Fraction(count, total_pairs)),
        "median_vertex": table.label_of(median),
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
    delta, four_point = _thin_delta(args, g, dm)
    centers, _ = multicore_construct(g, dm, pairs, args.radius, delta)
    covered = balls_intercept(g, dm, centers, args.radius, pairs)
    report = {
        "pairs": len(pairs),
        "radius": args.radius,
        "delta": _half_integer_json(delta),
        "centers": table.labels_of(centers),
        "size": len(centers),
        "covered": covered,
        **four_point,
    }
    return report, {"covered": covered}


def _cmd_beamcore(args):
    from .beamcore import beam_pairs, total_beam_core
    from .check import balls_intercept
    from .hyperbolicity import eccentricity_profile

    g, dm, table = _load_graph(args)
    delta, four_point = _thin_delta(args, g, dm)
    pair, midpoint, ball_radius = total_beam_core(g, dm, delta)
    all_beams = balls_intercept(g, dm, [midpoint], ball_radius, beam_pairs(dm))
    # diam >= 2*rad - 2*delta - 1, and C(G) inside B(m, 4*delta + 1) for the
    # midpoint m; delta is an exact Fraction, so no float is compared
    diameter, radius, center = eccentricity_profile(dm)
    diam_rad_holds = diameter >= 2 * radius - delta * 2 - 1
    max_center_distance = max(int(dm.d[midpoint, c]) for c in center)
    close_to_center_holds = max_center_distance <= delta * 4 + 1
    report = {
        "delta": _half_integer_json(delta),
        "mutually_distant_pair": table.labels_of(pair),
        "midpoint": table.label_of(midpoint),
        "radius": ball_radius,
        "all_beams_intercepted": all_beams,
        "structural": {
            "diameter": diameter,
            "radius": radius,
            "center": table.labels_of(center),
            "diam_rad_holds": diam_rad_holds,
            "max_center_distance": max_center_distance,
            "close_to_center_holds": close_to_center_holds,
        },
        **four_point,
    }
    return report, {
        "all_beams_intercepted": all_beams,
        "structural.diam_rad_holds": diam_rad_holds,
        "structural.close_to_center_holds": close_to_center_holds,
    }


def _cmd_helly(args):
    from .check import set_gaps
    from .quasiconvex import (
        covering_radius, geodesic_covering_radius, helly_center, is_interval_like,
    )

    g, dm, table, entries, sets, epsilon, delta, four_point, z = _load_family(args)
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
    return {**report, **four_point}, {"all_hit": all_hit}


def _cmd_hitpack(args):
    from .check import check_hit_pack
    from .quasiconvex import covering_radius, greedy_hit_pack

    g, dm, table, entries, sets, epsilon, delta, four_point, z = _load_family(args)
    hitting, packing = greedy_hit_pack(g, dm, sets, args.r, z=z)
    # never negative: r >= 0 (greedy_hit_pack refused it), eps >= 0 and delta >= 0 (_thin_delta)
    hit_radius = math.floor(covering_radius(args.r, epsilon, delta))
    hit_ok, pack_ok = check_hit_pack(dm, sets, hitting, hit_radius, packing, args.r)
    report = {
        "sets": len(sets),
        "epsilon": epsilon,
        "delta": _half_integer_json(delta),
        "r": args.r,
        "hitting_set": table.labels_of(hitting),
        "packing": [entries[i]["name"] for i in packing],
        "hit_radius": hit_radius,
        "pack_gap": args.r,
        "certificates": {"hitting": hit_ok, "packing": pack_ok},
        **four_point,
    }
    return report, {
        "certificates.hitting": hit_ok,
        "certificates.packing": pack_ok,
        "len(hitting_set) == len(packing)": len(hitting) == len(packing),
    }


def _cmd_kappa(args):
    from .check import check_hit_pack
    from .lpkappa import kappa_hit_pack
    from .quasiconvex import covering_radius

    g, dm, table, entries, members, epsilon, delta, four_point, z = _load_family(args, kappa=True)
    if args.r < epsilon + delta * 2:
        raise ValueError(
            f"r={args.r} violates the hypothesis r >= epsilon + 2*delta = {epsilon + delta * 2}"
        )
    # never negative: r >= eps + 2*delta >= 0
    r_star = math.floor(covering_radius(args.r, epsilon, delta))
    r_prime = math.floor(r_star + epsilon + delta * 3)
    kappa = max(map(len, members))
    hitting, packing, packing_optimum, hitting_optimum = kappa_hit_pack(
        g, dm, members, args.r, r_star, z=z
    )
    unions = [[v for part in parts for v in part] for parts in members]
    hit_ok, pack_ok = check_hit_pack(dm, unions, hitting, r_prime, packing, args.r)
    bound_ok = len(hitting) <= 2 * kappa**2 * len(packing)
    report = {
        "members": len(members),
        "kappa": kappa,
        "epsilon": epsilon,
        "delta": _half_integer_json(delta),
        "r": args.r,
        "r_star": r_star,
        "r_prime": r_prime,
        "hitting_set": table.labels_of(hitting),
        "packing": [entries[i]["name"] for i in packing],
        "lp_optima": {
            "packing": str(packing_optimum),
            "hitting": str(hitting_optimum),
            "gap_zero": packing_optimum == hitting_optimum,
        },
        "certificates": {"hitting": hit_ok, "packing": pack_ok, "size_bound": bound_ok},
        **four_point,
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
