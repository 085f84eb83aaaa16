"""Command-line front end.

Exit codes: 0 on success, 2 for usage problems (bad flags, unreadable or
malformed inputs), 3 when a computation fails a numeric guard or an
explanation check, or runs out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from .dyadic import band_certificate
from .errors import ConfigError, InvalidMarginalsError, LiftlabError
from .experiment import (EXPLAIN_LEVEL, config_from_json, explain_pipeline,
                         explain_to_text, run_experiment)
from .graphs import Lift, base_from_name, base_from_text
from .matching import (EXACT_FRACTION_LIMIT, asymptotic_form,
                       exact_log_probability, exact_probability_fraction,
                       matching_spec_from_text, monte_carlo_probability,
                       simplified_bound, simplified_bound_constant,
                       stirling_log_bounds)
from .patterns import (extract_pattern, pattern_to_text, reduce_general,
                       reduce_large, reduce_pattern, reduce_small,
                       reduction_to_text)
from .sampling import SeededRng, _check_clique_fibres, plant_clique, sample_lift
from .spectra import _lambda_star, new_spectrum

USAGE_EXIT = 2
NUMERIC_EXIT = 3


def _load_base(args):
    if getattr(args, "base_file", None):
        return base_from_text(Path(args.base_file).read_text())
    return base_from_name(args.base)


def _load_lift(path: str) -> Lift:
    return Lift.from_json(Path(path).read_text())


def cmd_gen(args) -> int:
    base = _load_base(args)
    tokens = args.plant.split(",") if args.plant else []
    if not all(t.strip().isdecimal() for t in tokens):
        raise ConfigError("--plant takes comma-separated fibre numbers")
    try:  # int() refuses more than 4300 digits
        fibres = _check_clique_fibres(base, [int(t) for t in tokens])
    except (ValueError, LiftlabError) as exc:
        raise ConfigError(f"--plant: {exc}") from exc
    lift = sample_lift(base, args.n, SeededRng(args.seed))
    if fibres:
        lift = plant_clique(lift, fibres)
    Path(args.out).write_text(lift.to_json())
    print(f"wrote lift h={lift.h} d={lift.d} n={lift.n} -> {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    lift = _load_lift(args.lift)
    rep, spectrum = _lambda_star(lift, args.tol, args.method)
    count = args.list or (10 if args.method == "dense" else 0)
    if count and spectrum is None:
        spectrum = new_spectrum(lift)
    values = spectrum[:count] if count else []
    print(f"lambda_top {rep.lambda_top!r}")
    print(f"lambda_star {rep.lambda_star!r}")
    print(f"method {rep.method}")
    print(f"iterations {rep.iterations}")
    print(f"residual {rep.residual!r}")
    for value in values:
        print(f"eigenvalue {float(value)!r}")
    if not rep.converged:
        print("warning: iteration did not converge", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


def cmd_certify(args) -> int:
    lift = _load_lift(args.lift)
    rep = band_certificate(lift, trials=args.trials, rng=SeededRng(args.seed))
    print(f"lambda_star {rep.spectral.lambda_star!r}")
    print(f"target {rep.target!r}")
    print(f"achieved {rep.achieved!r}")
    print(f"band-met {int(rep.met)}")
    print(f"dyadic-met {int(rep.dyadic_met)}")
    return 0


_REDUCERS = {"auto": reduce_pattern, "large": reduce_large,
             "small": reduce_small, "general": reduce_general}


def cmd_reduce(args) -> int:
    lift = _load_lift(args.lift)
    cert = band_certificate(lift, trials=args.trials, rng=SeededRng(args.seed))
    pattern, _ = extract_pattern(cert.vector, lift)
    report = _REDUCERS[args.branch](pattern, level=args.level)
    if args.show_pattern:
        sys.stdout.write(pattern_to_text(pattern))
    sys.stdout.write(reduction_to_text(report))
    return 0


def cmd_prob(args) -> int:
    spec = matching_spec_from_text(Path(args.spec).read_text())
    rng = SeededRng(args.seed)
    log_p = exact_log_probability(spec)
    print(f"log-probability {log_p!r}")
    if spec.n <= EXACT_FRACTION_LIMIT:
        frac: Fraction = exact_probability_fraction(spec)
        print(f"probability {frac.numerator}/{frac.denominator}")
    if min(spec.a) >= 1 and min(spec.b) >= 1:
        form = asymptotic_form(spec)
        lo, hi = stirling_log_bounds(spec)
        cap = (simplified_bound_constant(len(spec.a), len(spec.b))
               + simplified_bound(spec))
        print(f"log-prefactor {form.log_prefactor!r}")
        print(f"exponent {form.exponent!r}")
        print(f"stirling-window {lo!r} {hi!r}")
        print(f"log-simple-cap {cap!r}")
    if args.monte_carlo:
        est = monte_carlo_probability(spec, args.monte_carlo, rng)
        print(f"monte-carlo {est.estimate!r} stderr {est.std_error!r}")
    return 0


def cmd_experiment(args) -> int:
    config = config_from_json(Path(args.config).read_text())
    if args.out:
        config = dataclasses.replace(config, out_csv=args.out)
    result = run_experiment(config)
    where = result.csv_path if result.csv_path else "(not written)"
    print(f"rows {len(result.rows)} -> {where}")
    for failure in result.failures:
        print(f"failed {failure}", file=sys.stderr)
    return NUMERIC_EXIT if result.failures else 0


def cmd_explain(args) -> int:
    lift = _load_lift(args.lift)
    report = explain_pipeline(lift, level=args.level,
                              force_witness=args.force_witness,
                              rng=SeededRng(args.seed))
    sys.stdout.write(explain_to_text(report))
    return 0 if report.bound_ok else NUMERIC_EXIT


def _count(text: str) -> int:
    """An argparse type: an integer of at least 0, where 0 means the default or off."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="Random lifts of regular graphs: spectra, certificates, "
                    "pattern reductions, and matching probabilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a random lift and save it as JSON")
    group = gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="base family name, e.g. k4, c5, c9p2, petersen")
    group.add_argument("--base-file", help="edge-list text file for the base graph")
    gen.add_argument("--n", type=int, required=True, help="fibre size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--plant", default="",
                     help="comma-separated fibres to wire into a clique")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    spec = sub.add_parser("spectrum", help="extreme centered eigenvalue of a lift")
    spec.add_argument("--lift", required=True)
    spec.add_argument("--method", choices=("auto", "dense", "iterative"),
                      default="auto")
    spec.add_argument("--tol", type=float, default=1e-8)
    spec.add_argument("--list", type=_count, default=0,
                      help="print this many leading balanced eigenvalues")
    spec.set_defaults(func=cmd_spectrum)

    cert = sub.add_parser("certify", help="dyadic band certificate for a lift")
    cert.add_argument("--lift", required=True)
    cert.add_argument("--trials", type=int, default=40)
    cert.add_argument("--seed", type=int, default=0)
    cert.set_defaults(func=cmd_certify)

    red = sub.add_parser("reduce", help="extract a pattern and reduce it")
    red.add_argument("--lift", required=True)
    red.add_argument("--branch", choices=sorted(_REDUCERS), default="auto")
    red.add_argument("--level", type=float, default=20.0)
    red.add_argument("--trials", type=int, default=40)
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--show-pattern", action="store_true")
    red.set_defaults(func=cmd_reduce)

    prob = sub.add_parser("prob", help="matching probability for a block spec")
    prob.add_argument("--spec", required=True)
    prob.add_argument("--monte-carlo", type=_count, default=0)
    prob.add_argument("--seed", type=int, default=0)
    prob.set_defaults(func=cmd_prob)

    exp = sub.add_parser("experiment", help="run an (n, seed) sweep from a config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default="", help="override the CSV output path")
    exp.set_defaults(func=cmd_experiment)

    expl = sub.add_parser("explain", help="turn a large extreme into a witness subgraph")
    expl.add_argument("--lift", required=True)
    expl.add_argument("--level", type=float, default=EXPLAIN_LEVEL)
    expl.add_argument("--seed", type=int, default=0)
    expl.add_argument("--force-witness", action="store_true",
                      help="run the witness chain even below the threshold")
    expl.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError,
            InvalidMarginalsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (LiftlabError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
