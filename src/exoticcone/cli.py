"""Command-line surface: every operation with JSON in and JSON out.

``exoticcone [--knob value]... COMMAND [--flag value]...`` is parsed from
the one table ``COMMANDS``; ``--flag=value`` also works, flag names
must match exactly, and a flag given twice is refused.

Exit codes: 0 on success or after -h/--help, 1 on a usage error, a domain
error (bad input, malformed JSON, a configured cap exceeded) or when the
reader closes stdout early, 2 on an internal inconsistency (a state the
underlying theory rules out, e.g. a negative multiplicity or a non-unique
adapted filtration).
"""

from __future__ import annotations

import json
import os
import sys

from . import bipartitions as bp
from . import characters, config, kostant, orbits, rootdata, sections
from .config import Config, load_config
from .errors import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    CapExceeded,
    DomainError,
    InternalInconsistency,
)


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON for {what} at line {exc.lineno} column "
            f"{exc.colno} (char {exc.pos}): {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer longer than the interpreter's int-string digit limit,
        # or arrays and objects nested deeper than the recursion limit
        raise DomainError(f"malformed JSON for {what}: {exc}") from exc


def _weight_arg(text: str, what: str) -> tuple:
    data = _parse_json_arg(text, what)
    if not isinstance(data, list) or not all(type(c) is int for c in data):
        raise DomainError(f"{what} must be a JSON array of integers")
    return tuple(data)


def _decimal(k: int) -> str:
    # a sum of JSON ints can pass the int-string digit limit they each obey
    try:
        return str(k)
    except ValueError:
        return f"a {k.bit_length()}-bit integer"


def _check_rank(n: int, cfg: Config):
    if n > cfg.rank_cap:
        raise CapExceeded(
            "rank_cap", f"n={_decimal(n)} exceeds rank_cap={cfg.rank_cap}")
    if n < 0:
        raise DomainError("n must be nonnegative")


def _ranked_weight(args, what: str, cfg: Config) -> tuple:
    lam = _weight_arg(args[what], what)
    if args["n"] is not None and args["n"] != len(lam):
        raise DomainError(
            f"--n {args['n']} does not match len({what})={len(lam)}")
    _check_rank(len(lam), cfg)
    return lam


def _check_degree(size: int, what: str, cfg: Config):
    """Refuse a degree above degree_cap: |weight| or a sweep bound."""
    if size > cfg.degree_cap:
        raise CapExceeded(
            "degree_cap",
            f"{what}={_decimal(size)} exceeds degree_cap={cfg.degree_cap}",
        )


def _load_pair(path: str, cfg: Config) -> orbits.ExoticPair:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    doc = _parse_json_arg(text, path)
    # checked before pair_from_json, whose Gram determinant runs for
    # minutes at an n far above the cap
    if isinstance(doc, dict) and type(doc.get("n")) is int:
        _check_rank(doc["n"], cfg)
    return orbits.pair_from_json(doc)


def _bipartition_args(args, cfg: Config) -> bp.Bipartition:
    mu = _weight_arg(args["mu"], "mu")
    nu = _weight_arg(args["nu"], "nu")
    b = bp.bipartition(mu, nu)
    _check_rank(b.size, cfg)
    return b


# -- subcommand handlers -----------------------------------------------------

def _cmd_mult(args, cfg):
    mu = _ranked_weight(args, "mu", cfg)
    lam = _ranked_weight(args, "lambda", cfg)
    _check_degree(sum(map(abs, mu)), "|mu|", cfg)
    _check_degree(sum(map(abs, lam)), "|lambda|", cfg)
    out = {}
    if args["route"] in ("a", "both"):
        out["a"] = sections.h0_mult(mu, lam)
    if args["route"] in ("b", "both"):
        out["b"] = sections.h0_mult_subsets(mu, lam)
    if args["route"] == "both":
        out["agree"] = out["a"] == out["b"]
    return out


def _cmd_kostant(args, cfg):
    mu = _ranked_weight(args, "mu", cfg)
    _check_degree(sum(map(abs, mu)), "|mu|", cfg)
    fn = kostant.kostant_p if args["kind"] == "p" else kostant.kostant_p_exotic
    return {"value": fn(mu)}


def _cmd_bwb(args, cfg):
    lam = _ranked_weight(args, "lambda", cfg)
    result = rootdata.bwb(lam)
    if result is None:
        return {"zero": True}
    sign, mu = result
    return {"zero": False, "sign": sign, "mu": list(mu)}


def _cmd_weights(args, cfg):
    mu = _ranked_weight(args, "mu", cfg)
    _check_degree(sum(map(abs, mu)), "|mu|", cfg)
    table = characters.all_weights(mu)
    entries = sorted(table.entries.items(), reverse=True)
    return {
        "highest": list(mu),
        "dim": table.dimension(),
        "entries": [[list(w), m] for w, m in entries],
    }


def _cmd_poset(args, cfg):
    _check_rank(args["n"], cfg)
    if args["dot"]:
        return bp.emit_dot(args["n"])
    nodes = bp.enumerate_Q(args["n"])
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
        "edges": [[index[lo], index[hi]] for lo, hi in bp.hasse(args["n"])],
    }


def _cmd_phic(args, cfg):
    b = _bipartition_args(args, cfg)
    return {"lambda": list(bp.phiC(b))}


def _cmd_collapse(args, cfg):
    b = _bipartition_args(args, cfg)
    out = bp.collapse(b)
    return {"mu": list(out.mu), "nu": list(out.nu)}


def _cmd_filtration_dims(args, cfg):
    b = _bipartition_args(args, cfg)
    profile = bp.filtration_dims(b)
    return {"dims": {str(a): d for a, d in sorted(profile.items(), reverse=True)}}


def _cmd_orbit_identify(args, cfg):
    pair = _load_pair(args["file"], cfg)
    b = orbits.orbit_of(pair)
    return {"mu": list(b.mu), "nu": list(b.nu)}


def _cmd_representative(args, cfg):
    b = _bipartition_args(args, cfg)
    return orbits.pair_to_json(orbits.representative(b))


def _cmd_adapted(args, cfg):
    pair = _load_pair(args["file"], cfg)
    # adapted_filtration solves a missing form and verifies its result,
    # or raises InternalInconsistency
    filt = orbits.adapted_filtration(pair)
    solved = pair.space is None
    b = filt.orbit
    out = {
        "mu": list(b.mu),
        "nu": list(b.nu),
        "omega_solved": solved,
        "subspaces": {
            str(a): orbits.mat_to_json(sub)
            for a, sub in filt.as_dict().items()
        },
        "verified": True,
    }
    if solved:
        out["omega"] = orbits.mat_to_json(filt.space.omega)
    return out


def _sweep_cell(mu, lam):
    a = sections.h0_mult(mu, lam)
    b = sections.h0_mult_subsets(mu, lam)
    problems = []
    if a != b:
        problems.append("route_disagreement")
    if not rootdata.in_conv(lam, mu) and a != 0:
        problems.append("support")
    return {"mu": list(mu), "lambda": list(lam), "a": a, "b": b,
            "problems": problems}


def _cmd_sweep(args, cfg):
    n, bound = args["n"], args["bound"]
    _check_rank(n, cfg)
    if bound < 0:
        raise DomainError("bound must be nonnegative")
    _check_degree(bound, "bound", cfg)
    grid = []
    for k in range(bound + 1):
        grid.extend(sections.dominant_weights_of_degree(n, k))
    results = [_sweep_cell(mu, lam) for mu in grid for lam in grid]
    violations = [r for r in results if r["problems"]]
    return {
        "n": n,
        "bound": bound,
        "cells": len(results),
        "violations": violations,
        "ok": not violations,
    }


# -- the command table and its parser ----------------------------------------

# command: (handler, help, flags). A flag is (type, default): the type is
# int, str, bool (a switch that takes no value) or a tuple of the accepted
# values, and the default REQUIRED makes the flag required.
REQUIRED = object()
_N, _FILE = {"n": (int, None)}, {"file": (str, REQUIRED)}
_MU, _LAM = {"mu": (str, REQUIRED)}, {"lambda": (str, REQUIRED)}
_PAIR = _MU | {"nu": (str, REQUIRED)}
COMMANDS = {
    "mult": (_cmd_mult, "section multiplicity of V_mu",
             _N | _MU | _LAM | {"route": (("a", "b", "both"), "a")}),
    "kostant": (_cmd_kostant, "partition count of a weight",
                {"kind": (("p", "p'"), REQUIRED)} | _N | _MU),
    "bwb": (_cmd_bwb, "dominant-chamber regularization", _N | _LAM),
    "weights": (_cmd_weights, "weight diagram of V_mu", _N | _MU),
    "poset": (_cmd_poset, "bipartition poset / Hasse diagram",
              {"n": (int, REQUIRED), "dot": (bool, False)}),
    "phic": (_cmd_phic, "collapse a bipartition to a partition", _PAIR),
    "collapse": (_cmd_collapse,
                 "round trip to the distinguished bipartition", _PAIR),
    "filtration-dims": (_cmd_filtration_dims,
                        "dimension profile of the adapted filtration", _PAIR),
    "orbit-identify": (_cmd_orbit_identify,
                       "classify a pair from a JSON file", _FILE),
    "representative": (_cmd_representative, "build a point of an orbit",
                       _PAIR),
    "adapted": (_cmd_adapted, "adapted filtration of a pair", _FILE),
    "sweep": (_cmd_sweep, "route-agreement and nonnegativity grid",
              {"n": (int, REQUIRED), "bound": (int, REQUIRED)}),
}
# the global flags, given before the command: a config file and each knob
_KNOBS = {"config": (str, None),
          **{name.replace("_", "-"): (int, None) for name in Config._fields}}


def _usage(flags) -> str:
    words = []
    for name, (kind, default) in flags.items():
        word = f"--{name}"
        if type(kind) is tuple:
            word += " {" + ",".join(kind) + "}"
        elif kind is not bool:
            word += " N" if kind is int else " " + name.upper()
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command) -> str:
    lines = [f"usage: exoticcone {_usage(_KNOBS)} COMMAND [--flag VALUE]..."]
    for name in [command] if command else COMMANDS:
        _, text, flags = COMMANDS[name]
        lines += [f"{name}: {text}", f"    {_usage(flags)}"]
    return "\n".join(lines)


def _parse(argv):
    """Read ``[--knob value]... COMMAND [--flag value]...`` as (command,
    flag values, knob values); the values are None when -h asks for help."""
    command, knobs, flags, values = None, None, _KNOBS, {}
    rest = iter(argv)
    for arg in rest:
        where = f"{command}: " if command else ""
        if arg in ("-h", "--help"):
            return command, None, None
        if not arg.startswith("--"):
            if command:
                raise DomainError(f"{where}unexpected argument {arg!r}")
            if arg not in COMMANDS:
                raise DomainError(f"unknown command {arg!r}")
            command, knobs, flags, values = arg, values, COMMANDS[arg][2], {}
            continue
        name, eq, value = arg[2:].partition("=")
        if name not in flags:
            raise DomainError(f"{where}unknown flag --{name}")
        if name in values:
            raise DomainError(f"{where}--{name} is given twice")
        kind = flags[name][0]
        if kind is bool:
            if eq:
                raise DomainError(f"{where}--{name} takes no value")
            value = True
        elif not eq:
            value = next(rest, "--")
            if value.startswith("--"):
                raise DomainError(f"{where}--{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise DomainError(f"{where}--{name} must be an integer, "
                                  f"not {value!r}") from None
        elif type(kind) is tuple and value not in kind:
            raise DomainError(f"{where}--{name} must be one of "
                              f"{', '.join(kind)}, not {value!r}")
        values[name] = value
    if command is None:
        raise DomainError("no command given (see --help)")
    for name, (_, default) in flags.items():
        if default is REQUIRED and name not in values:
            raise DomainError(f"{command}: --{name} is required")
        values.setdefault(name, default)
    return command, values, knobs


def run(argv) -> int:
    try:
        command, args, knobs = _parse(argv)
        if args is None:
            print(_help(command))
            return EXIT_OK
        overrides = {name: knobs.get(name.replace("_", "-"))
                     for name in Config._fields}
        cfg = load_config(knobs.get("config"), overrides)
        config.memo_cap = cfg.cache_entries
        result = COMMANDS[command][0](args, cfg)
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
    if command == "sweep" and not result["ok"]:
        return EXIT_INTERNAL
    if command == "mult" and result.get("agree") is False:
        return EXIT_INTERNAL
    return EXIT_OK


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``); point stdout at devnull
        # so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN
    sys.exit(code)
