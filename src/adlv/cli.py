"""Command-line front end.

Subcommands: check, enumerate, crosscheck, render, bgx; each takes only
the options (and config-file keys) it reads, listed in ``COMMANDS``.  Exit
codes: 0 ok, 1 property failure, 2 parse/validation error, 3 cap exceeded,
4 unsupported geometry, 5 internal error (a failed postcondition, a library
precondition ``ValueError``, or any other library error).  Every failure
writes one ``error:`` line to stderr.  Enumeration output is
byte-deterministic for a fixed configuration, independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, zip_longest
from operator import itemgetter
from typing import Callable

from .alcove import AlcoveProfile, walk_profiles
from .cartan import RootSystem, per_system
from .criterion import (
    Verdict,
    bgx_cordial,
    decide_nonempty,
    oracle_nonempty,
)
from .errors import AdlvError, CapExceeded, NotationError, UnsupportedGeometry
from .iwahori import ENUM_CAP_DEFAULT, AffineElement, KottwitzClass
from .notation import (
    format_affine,
    format_finite,
    format_fraction,
    parse_affine,
    parse_finite,
    parse_int_vector,
    parse_kappa,
    parse_sigma,
    parse_system,
)
from .render import render_svg

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_GEOMETRY = 4
EXIT_INTERNAL = 5

# exception type -> exit code; the first entry the exception is an instance of wins
EXIT_CODES = (
    (NotationError, EXIT_PARSE),
    (CapExceeded, EXIT_CAP),
    (UnsupportedGeometry, EXIT_GEOMETRY),
    (AdlvError, EXIT_INTERNAL),
    (ValueError, EXIT_INTERNAL),
)


@dataclass(frozen=True)
class RunConfig:
    system: str
    sigma: str = "id"
    length_bound: int = 6
    kappa_b: str = "zero"  # integer vector "[...]", "zero", or "match-x"
    format: str = "json"  # json | csv
    out: str | None = None
    jobs: int = 1
    cap: int = ENUM_CAP_DEFAULT
    seed: int = 0


# option -> (type, help); every option but config is also a config-file key
OPTIONS = {
    "config": (str, "key=value config file; flags override"),
    "system": (str, "root-system descriptor, e.g. A2 or A2+A2"),
    "sigma": (str, 'diagram action: "id" or cycles like "(1 3)"'),
    "length_bound": (int, "largest element length"),
    "kappa_b": (str, 'basic-class designator: "[c1,...,cn]", "zero" or "match-x"'),
    "format": (str, "json or csv"),
    "out": (str, "output path (default stdout)"),
    "jobs": (int, "worker processes for enumeration (at most the CPU count)"),
    "cap": (int, "enumeration size cap"),
    "seed": (int, "seed for randomized checks"),
}


def read_config_file(path: str, keys: tuple[str, ...]) -> dict:
    """key=value lines of the given keys, integer keys as ints; refused at a bad line."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise NotationError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise NotationError(str(exc)) from None
    values: dict[str, str | int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise NotationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise NotationError(f"{path}:{lineno}: unknown key {key!r}")
        if OPTIONS[key][0] is int:
            try:
                value = int(value)
            except ValueError:
                raise NotationError(
                    f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None
        values[key] = value
    return values


def config_from_sources(args: argparse.Namespace) -> RunConfig:
    keys = COMMANDS[args.command].keys
    values = read_config_file(args.config, keys) if args.config else {}
    for key in keys:
        override = getattr(args, key)
        if override is not None:
            values[key] = override
    if "system" not in values:
        raise NotationError("a root system is required (--system or config file)")
    config = RunConfig(**values)
    if config.length_bound < 0:
        raise NotationError("length bound must be nonnegative")
    if config.jobs < 1:
        raise NotationError("jobs must be at least 1")
    if config.cap < 1:
        raise NotationError("cap must be at least 1")
    return config


def build_context(config: RunConfig):
    system = parse_system(config.system)
    return system, parse_sigma(system, config.sigma), parse_kappa(system, config.kappa_b)


# -- serialization helpers ---------------------------------------------------------


def _indices_1based(indices) -> list[int]:
    return sorted(i + 1 for i in indices)


def _witnesses_json(witnesses: dict) -> dict:
    out = {}
    for key, value in witnesses.items():
        if key in ("r", "w"):
            out[key] = format_finite(value)
        elif key == "j" or key == "j_rx":
            out[key] = _indices_1based(value)
        elif key == "checked_r":
            out[key] = [format_finite(r) for r in value]
        elif key in ("kappa_x", "kappa_b"):
            out[key] = value.text
        elif key == "affine_support":
            out[key] = list(value)
        else:
            out[key] = value
    return out


def profile_json(profile: AlcoveProfile) -> dict:
    return {
        "x": format_affine(profile.x),
        "v": format_finite(profile.v),
        "mu": list(profile.mu),
        "w": format_finite(profile.w),
        "eta": format_finite(profile.eta),
        "phi_x": [list(a) for a in sorted(profile.phi_x)],
        "W_x": [format_finite(r) for r in profile.w_x],
        "shrunken": profile.shrunken,
        "strips": [list(a) for a in profile.strips],
    }


def verdict_json(system, sigma_text: str, x: AffineElement, kappa_b: KottwitzClass,
                 verdict: Verdict, profile: AlcoveProfile) -> dict:
    return {
        "document": "verdict",
        "system": system.type_label,
        "sigma": sigma_text,
        "x": format_affine(x),
        "kappa_b": kappa_b.text,
        "nonempty": verdict.nonempty,
        "rule": verdict.rule,
        "witnesses": _witnesses_json(verdict.witnesses),
        "profile": profile_json(profile),
    }


# -- enumerate ---------------------------------------------------------------------

ENUM_COLUMNS = [
    "x", "length", "kappa", "kappa_b", "affine_support_full",
    "v", "mu", "w", "eta", "shrunken", "strips", "phi_x", "wx_size",
    "nonempty", "rule", "witness", "oracle_applicable", "oracle_nonempty",
    "oracle_witness", "agree",
]


def _witness_brief(verdict: Verdict) -> str:
    w = verdict.witnesses
    if "r" in w:
        return f"r={format_finite(w['r'])};J={','.join(map(str, _indices_1based(w['j_rx'])))}"
    if "j" in w:
        return f"J={','.join(map(str, _indices_1based(w['j'])))};w={format_finite(w['w'])}"
    return ""


@per_system
def _phi_x_text(system: RootSystem, phi_x: frozenset) -> str:
    """The ``phi_x`` column, made once per root set."""
    return ";".join(",".join(map(str, a)) for a in sorted(phi_x))


@per_system
def _strips_text(system: RootSystem, numbers: bytes) -> str:
    """The ``strips`` column of the strip roots with these numbers, made once
    per root set."""
    return ";".join(",".join(map(str, system.all_roots[n])) for n in numbers)


def _row(kappa_b: KottwitzClass | None, profile: AlcoveProfile) -> dict:
    x, sigma = profile.x, profile.sigma
    kappa_x = profile.kappa
    target = kappa_x if kappa_b is None else kappa_b
    verdict = decide_nonempty(x, target, sigma, profile)
    support_full = profile.affine_support.full
    oracle_applicable = support_full and kappa_x.same_coinvariant(target, sigma)
    if oracle_applicable:
        oracle = oracle_nonempty(x, target, sigma, profile)
        oracle_nonempty_val: bool | None = oracle.nonempty
        oracle_witness = _witness_brief(oracle)
        agree: bool | None = oracle.nonempty == verdict.nonempty
    else:
        oracle_nonempty_val = None
        oracle_witness = ""
        agree = None
    return {
        "x": format_affine(x),
        "length": x.length,
        "kappa": kappa_x.text,
        "kappa_b": target.text,
        "affine_support_full": support_full,
        "v": format_finite(profile.v),
        "mu": ",".join(map(str, profile.mu)),
        "w": format_finite(profile.w),
        "eta": format_finite(profile.eta),
        "shrunken": profile.shrunken,
        "strips": _strips_text(x.system, profile._strip_numbers),
        "phi_x": _phi_x_text(x.system, profile.phi_x),
        "wx_size": profile.w_x_size,
        "nonempty": verdict.nonempty,
        "rule": verdict.rule,
        "witness": _witness_brief(verdict),
        "oracle_applicable": oracle_applicable,
        "oracle_nonempty": oracle_nonempty_val,
        "oracle_witness": oracle_witness,
        "agree": agree,
    }


def _part_rows(payload) -> list[dict]:
    """The rows of every ``parts``-th profile of the length walk, from the
    ``part``-th on; the walk itself runs in full."""
    config, part, parts = payload
    system, sigma, kappa = build_context(config)
    profiles = walk_profiles(system, sigma, config.length_bound, config.cap)
    return [_row(kappa, profile) for profile in islice(profiles, part, None, parts)]


def enumerate_rows(config: RunConfig) -> list[dict]:
    """One row per element, in the order of the length walk
    (``alcove.walk_profiles``), whose profiles every row reads.  With
    ``jobs`` workers, at most one per CPU, each walks in full and decides
    every ``jobs``-th row; the parts are interleaved back into walk order."""
    jobs = min(config.jobs, os.cpu_count() or 1)
    if jobs == 1:
        return _part_rows((config, 0, 1))
    from concurrent.futures import ProcessPoolExecutor  # imported only when a pool runs

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_part_rows, [(config, k, jobs) for k in range(jobs)]))
    return [row for rows in zip_longest(*parts) for row in rows if row is not None]


def rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(ENUM_COLUMNS)
    writer.writerows(map(itemgetter(*ENUM_COLUMNS), rows))  # None is written as ""
    return buffer.getvalue()


def _dump_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise NotationError(f"cannot write output file {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------------


def cmd_check(args) -> int:
    config = config_from_sources(args)
    system, sigma, kappa = build_context(config)
    x = parse_affine(system, args.element)
    profile = AlcoveProfile.build(x, sigma)
    if kappa is None:
        kappa = profile.kappa
    verdict = decide_nonempty(x, kappa, sigma, profile)
    document = verdict_json(system, config.sigma, x, kappa, verdict, profile)
    _emit(_dump_json(document), config.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    config = config_from_sources(args)
    if config.format not in ("json", "csv"):
        raise NotationError(f"enumerate writes json or csv, not {config.format}")
    rows = enumerate_rows(config)
    if config.format == "csv":
        _emit(rows_to_csv(rows), config.out)
    else:
        document = {
            "document": "enumeration",
            "system": config.system,
            "sigma": config.sigma,
            "length_bound": config.length_bound,
            "kappa_b": config.kappa_b,
            "rows": rows,
        }
        _emit(_dump_json(document), config.out)
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    from . import audit  # only this command needs the battery

    config = config_from_sources(args)
    system, sigma, _ = build_context(config)
    results = audit.run_battery(system, sigma, config.length_bound, config.seed)
    failures = [r for r in results if not r.passed and not r.informational]
    document = {
        "document": "crosscheck",
        "system": config.system,
        "sigma": config.sigma,
        "length_bound": config.length_bound,
        "results": [
            {
                "check": r.check_id,
                "passed": r.passed,
                "informational": r.informational,
                "detail": r.detail,
                "counterexample": r.counterexample,
            }
            for r in results
        ],
        "failures": len(failures),
    }
    _emit(_dump_json(document), config.out)
    return EXIT_PROPERTY_FAILURE if failures else EXIT_OK


def cmd_render(args) -> int:
    config = config_from_sources(args)
    system, sigma, kappa = build_context(config)
    if kappa is None:
        raise NotationError("render needs a fixed class (--kappa-b vector), not match-x")
    svg = render_svg(system, sigma, kappa, config.length_bound, config.cap)
    _emit(svg, config.out)
    return EXIT_OK


def cmd_bgx(args) -> int:
    config = config_from_sources(args)
    system, sigma, _ = build_context(config)
    v = parse_finite(system, args.v)
    mu = parse_int_vector(args.mu, system.rank)
    if not system.is_dominant(mu):
        raise NotationError(f"mu = {list(mu)} is not dominant")
    report = bgx_cordial(v, mu, sigma)
    w_x = [format_finite(r) for r in report.w_x_sorted]  # formula == alcove, or it raised
    document = {
        "document": "bgx",
        "system": config.system,
        "sigma": config.sigma,
        "v": format_finite(v),
        "mu": list(mu),
        "x": format_affine(report.x),
        "w_x_formula": w_x,
        "w_x_alcove": w_x,
        "support_tests": [
            {"r": format_finite(r), "support": _indices_1based(j), "full": ok}
            for r, j, ok in report.support_tests
        ],
        "all_full": report.all_full,
        "mu_central": report.mu_central,
        "conclusion": report.conclusion,
        "points": None if report.points is None else [
            {
                "newton": [format_fraction(c) for c in p.newton_dominant],
                "kappa": [format_fraction(c) for c in p.kappa_coinv],
            }
            for p in report.points
        ],
        "cap_stable": report.cap_stable,
    }
    _emit(_dump_json(document), config.out)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    handler: Callable[[argparse.Namespace], int]
    help: str
    positionals: dict[str, str]  # name -> help
    keys: tuple[str, ...]  # the OPTIONS it reads, besides config


COMMANDS = {
    "check": Command(cmd_check, "decide one element",
                     {"element": 'element notation, e.g. "t[1,0] s1 s2"'},
                     ("system", "sigma", "kappa_b", "out")),
    "enumerate": Command(cmd_enumerate, "decide all elements up to a length bound", {},
                         ("system", "sigma", "length_bound", "kappa_b", "format", "out",
                          "jobs", "cap")),
    "crosscheck": Command(cmd_crosscheck, "run the property-check battery", {},
                          ("system", "sigma", "length_bound", "out", "seed")),
    "render": Command(cmd_render, "rank-2 apartment picture (SVG)", {},
                      ("system", "sigma", "length_bound", "kappa_b", "out", "cap")),
    "bgx": Command(cmd_bgx, "class-set report for v t^mu",
                   {"v": 'finite element, e.g. "s1 s2 s1"',
                    "mu": "dominant coweight vector, e.g. [1,0]"},
                   ("system", "sigma", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with one ``error:`` line and exit 2, with no
    usage line; its subparsers are of the same class."""

    def error(self, message: str):
        self.exit(EXIT_PARSE, f"error: {message}\n")


@lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adlv",
        description="Exact nonemptiness checks for single affine Deligne-Lusztig "
                    "varieties at Iwahori level (basic case).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for positional, text in command.positionals.items():
            subparser.add_argument(positional, help=text)
        for key in ("config", *command.keys):
            kind, text = OPTIONS[key]
            subparser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                                   help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].handler(args)
    except (ValueError, AdlvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
