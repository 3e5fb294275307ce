"""Command-line surface: every operation with JSON in and JSON out.

Exit codes: 0 on success, 1 on a domain error (bad input, malformed JSON,
a configured cap exceeded), 2 on an internal inconsistency (a state the
underlying theory rules out, e.g. a negative multiplicity or a non-unique
adapted filtration).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bipartitions as bp
from . import characters, kostant, orbits, sections
from .config import Config, load_config
from .errors import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    CapExceeded,
    DomainError,
    InternalInconsistency,
)
from .rootdata import bwb as bwb_op, in_conv


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON for {what} at line {exc.lineno} column "
            f"{exc.colno} (char {exc.pos}): {exc.msg}"
        ) from exc


def _weight_arg(text: str, what: str) -> tuple:
    data = _parse_json_arg(text, what)
    if not isinstance(data, list) or not all(type(c) is int for c in data):
        raise DomainError(f"{what} must be a JSON array of integers")
    return tuple(data)


def _check_rank(n: int, cfg: Config):
    if n > cfg.rank_cap:
        raise CapExceeded("rank_cap", f"n={n} exceeds rank_cap={cfg.rank_cap}")
    if n < 0:
        raise DomainError("n must be nonnegative")


def _ranked_weight(args, attr: str, cfg: Config, what: str) -> tuple:
    lam = _weight_arg(getattr(args, attr), what)
    if args.n is not None and args.n != len(lam):
        raise DomainError(f"--n {args.n} does not match len({what})={len(lam)}")
    _check_rank(len(lam), cfg)
    return lam


def _check_degree(weight: tuple, cfg: Config, what: str):
    size = sum(abs(c) for c in weight)
    if size > cfg.degree_cap:
        raise CapExceeded(
            "degree_cap",
            f"|{what}|={size} exceeds degree_cap={cfg.degree_cap}",
        )


def _load_pair(path: str) -> orbits.ExoticPair:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    return orbits.pair_from_json(_parse_json_arg(text, path))


def _bipartition_args(args) -> bp.Bipartition:
    mu = _weight_arg(args.mu, "mu")
    nu = _weight_arg(args.nu, "nu")
    return bp.bipartition(mu, nu)


# -- subcommand handlers -----------------------------------------------------

def _cmd_mult(args, cfg):
    mu = _ranked_weight(args, "mu", cfg, "mu")
    lam = _ranked_weight(args, "lam", cfg, "lambda")
    _check_degree(mu, cfg, "mu")
    _check_degree(lam, cfg, "lambda")
    out = {}
    if args.route in ("a", "both"):
        out["a"] = sections.h0_mult(mu, lam)
    if args.route in ("b", "both"):
        out["b"] = sections.h0_mult_subsets(mu, lam)
    if args.route == "both":
        out["agree"] = out["a"] == out["b"]
    return out


def _cmd_kostant(args, cfg):
    mu = _ranked_weight(args, "mu", cfg, "mu")
    _check_degree(mu, cfg, "mu")
    fn = kostant.kostant_p if args.kind == "p" else kostant.kostant_p_exotic
    return {"value": fn(mu)}


def _cmd_bwb(args, cfg):
    lam = _ranked_weight(args, "lam", cfg, "lambda")
    result = bwb_op(lam)
    if result is None:
        return {"zero": True}
    sign, mu = result
    return {"zero": False, "sign": sign, "mu": list(mu)}


def _cmd_weights(args, cfg):
    mu = _ranked_weight(args, "mu", cfg, "mu")
    _check_degree(mu, cfg, "mu")
    table = characters.all_weights(mu)
    entries = sorted(table.entries.items(), reverse=True)
    return {
        "highest": list(mu),
        "dim": table.dimension(),
        "entries": [[list(w), m] for w, m in entries],
    }


def _cmd_poset(args, cfg):
    _check_rank(args.n, cfg)
    if args.dot:
        return bp.emit_dot(args.n)
    nodes = bp.enumerate_Q(args.n)
    index = {b: i for i, b in enumerate(nodes)}
    return {
        "nodes": [
            {
                "mu": list(b.mu),
                "nu": list(b.nu),
                "c_distinguished": bp.is_C_distinguished(b),
            }
            for b in nodes
        ],
        "edges": [[index[lo], index[hi]] for lo, hi in bp.hasse(args.n)],
    }


def _cmd_phic(args, cfg):
    b = _bipartition_args(args)
    _check_rank(b.size, cfg)
    return {"lambda": list(bp.phiC(b))}


def _cmd_collapse(args, cfg):
    b = _bipartition_args(args)
    _check_rank(b.size, cfg)
    out = bp.collapse(b)
    return {"mu": list(out.mu), "nu": list(out.nu)}


def _cmd_filtration_dims(args, cfg):
    b = _bipartition_args(args)
    _check_rank(b.size, cfg)
    profile = bp.filtration_dims(b)
    return {"dims": {str(a): d for a, d in sorted(profile.items(), reverse=True)}}


def _cmd_orbit_identify(args, cfg):
    pair = _load_pair(args.file)
    _check_rank(pair.n, cfg)
    b = orbits.orbit_of(pair)
    return {"mu": list(b.mu), "nu": list(b.nu)}


def _cmd_representative(args, cfg):
    b = _bipartition_args(args)
    _check_rank(b.size, cfg)
    return orbits.pair_to_json(orbits.representative(b))


def _cmd_adapted(args, cfg):
    pair = _load_pair(args.file)
    _check_rank(pair.n, cfg)
    solved = False
    if pair.space is None:
        omega = orbits.solve_symplectic_form(pair.x_rows())
        pair = orbits.ExoticPair(
            v=pair.v, x=pair.x,
            space=orbits.SymplecticSpace(n=pair.n, omega=omega),
        )
        solved = True
    filt = orbits.adapted_filtration(pair, closure_depth=cfg.closure_depth)
    b = filt.orbit
    verified = orbits.verify_adapted(filt, pair, b)
    if not verified:
        raise InternalInconsistency("returned filtration failed verification")
    out = {
        "mu": list(b.mu),
        "nu": list(b.nu),
        "omega_solved": solved,
        "subspaces": {
            str(a): [[orbits.rational_to_json(x) for x in row] for row in sub]
            for a, sub in filt.as_dict().items()
        },
        "verified": verified,
    }
    if solved:
        out["omega"] = [
            [orbits.rational_to_json(x) for x in row]
            for row in pair.space.omega
        ]
    return out


def _sweep_cell(mu, lam):
    a = sections.h0_mult(mu, lam)
    b = sections.h0_mult_subsets(mu, lam)
    problems = []
    if a != b:
        problems.append("route_disagreement")
    if a < 0 or b < 0:
        problems.append("negative")
    if not in_conv(lam, mu) and a != 0:
        problems.append("support")
    return {"mu": list(mu), "lambda": list(lam), "a": a, "b": b,
            "problems": problems}


def _cmd_sweep(args, cfg):
    _check_rank(args.n, cfg)
    if args.bound < 0:
        raise DomainError("bound must be nonnegative")
    if args.bound > cfg.degree_cap:
        raise CapExceeded(
            "degree_cap",
            f"bound={args.bound} exceeds degree_cap={cfg.degree_cap}",
        )
    grid = []
    for k in range(args.bound + 1):
        grid.extend(sections.dominant_weights_of_degree(args.n, k))
    results = [_sweep_cell(mu, lam) for mu in grid for lam in grid]
    violations = [r for r in results if r["problems"]]
    return {
        "n": args.n,
        "bound": args.bound,
        "cells": len(results),
        "violations": violations,
        "ok": not violations,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exoticcone",
        description="Exact computations around the exotic nilpotent cone "
                    "of Sp(2n).",
    )
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--rank-cap", type=int, dest="rank_cap")
    parser.add_argument("--degree-cap", type=int, dest="degree_cap")
    parser.add_argument("--closure-depth", type=int, dest="closure_depth")
    parser.add_argument("--cache-bytes", type=int, dest="cache_bytes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", help="section multiplicity of V_mu")
    p.add_argument("--n", type=int)
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", required=True, dest="lam")
    p.add_argument("--route", choices=["a", "b", "both"], default="a")
    p.set_defaults(handler=_cmd_mult)

    p = sub.add_parser("kostant", help="partition count of a weight")
    p.add_argument("--kind", choices=["p", "p'"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--mu", required=True)
    p.set_defaults(handler=_cmd_kostant)

    p = sub.add_parser("bwb", help="dominant-chamber regularization")
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", required=True, dest="lam")
    p.set_defaults(handler=_cmd_bwb)

    p = sub.add_parser("weights", help="weight diagram of V_mu")
    p.add_argument("--n", type=int)
    p.add_argument("--mu", required=True)
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("poset", help="bipartition poset / Hasse diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("phic", help="collapse a bipartition to a partition")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_phic)

    p = sub.add_parser("collapse", help="round trip to the distinguished "
                                        "bipartition")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_collapse)

    p = sub.add_parser("filtration-dims", help="dimension profile of the "
                                               "adapted filtration")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_filtration_dims)

    p = sub.add_parser("orbit-identify", help="classify a pair from a JSON "
                                              "file")
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_orbit_identify)

    p = sub.add_parser("representative", help="build a point of an orbit")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_representative)

    p = sub.add_parser("adapted", help="adapted filtration of a pair")
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_adapted)

    p = sub.add_parser("sweep", help="route-agreement and nonnegativity grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_sweep)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_DOMAIN if exc.code else EXIT_OK
    try:
        overrides = {
            key: getattr(args, key)
            for key in ("rank_cap", "degree_cap", "closure_depth",
                        "cache_bytes")
        }
        cfg = load_config(args.config, overrides)
        kostant.configure_cache(cfg.cache_entries)
        characters.configure_cache(cfg.cache_entries)
        result = args.handler(args, cfg)
    except CapExceeded as exc:
        print(f"error: {exc} (config knob: {exc.knob})", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if isinstance(result, str):
        print(result)
    else:
        print(json.dumps(result))
    # a printed diff that exposes an impossible state still signals failure
    if args.command == "sweep" and not result["ok"]:
        return EXIT_INTERNAL
    if args.command == "mult" and result.get("agree") is False:
        return EXIT_INTERNAL
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))
