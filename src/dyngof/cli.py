"""Command-line front end.

Subcommands: generate, test, radius, distance, experiment, oracle.
Estimation commands print a single JSON document on stdout; human-readable
notes go to stderr. The test command's exit code carries the decision bit
(0: consistent with the null, 1: rejected, >= 2: error) so batch pipelines
can branch on it. Every command that samples honors --seed; when omitted, a
fresh seed is drawn and echoed on stderr so the run can be reproduced.
oracle enumerates exactly and ignores --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

from . import harness, oracle
from .gof import FixedAlpha, SampledAlpha, TestConfig, dn_estimate, sampling_radius_estimate, test_dynamic_graph
from .models import KIND_AFFINE, KINDS, ModelSpec, final_degrees, read_trajectory, sample_trajectory, write_trajectory

_KINDS_HELP = " | ".join(KINDS)


class CliError(Exception):
    pass


def _model_from_flags(name: str, m: int, a: float) -> ModelSpec:
    """The model the --m and --a flags give; only affine-pa reads --a."""
    if name not in KINDS:
        raise CliError(f"unknown model {name!r} (choose from {', '.join(KINDS)})")
    return ModelSpec(name, m=m, a=a if name == KIND_AFFINE else 0.0)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed={seed}", file=sys.stderr)
    return seed


def _alpha_mode(text: str):
    mode, _, value = text.partition(":")
    if mode == "sampled" and not value:
        return SampledAlpha()
    if mode == "fixed" and not value:
        raise CliError("fixed alpha needs a value, e.g. fixed:12.5")
    try:
        number = {"sampled": int, "fixed": float}[mode](value)
    except (KeyError, ValueError):
        raise CliError(f"bad alpha mode {text!r} (use sampled:<reps> or fixed:<value>)") from None
    return SampledAlpha(number) if mode == "sampled" else FixedAlpha(radius=number)


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _add_model_flags(p):
    p.add_argument("--model", default="pa", help=_KINDS_HELP)
    p.add_argument("--m", type=int, default=1, help="edges per arriving vertex")
    p.add_argument("--a", type=float, default=1.0, help="degree shift for affine-pa")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dyngof", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a trajectory and write it to a file")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("test", help="run the goodness-of-fit test on a trajectory file")
    p.add_argument("traj_path")
    p.add_argument("--null-model", default="pa", help=_KINDS_HELP)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--width-fraction", type=float, default=TestConfig.width_fraction)
    p.add_argument("--probe-fraction", type=float, default=TestConfig.probe_fraction)
    p.add_argument("--alpha", default="sampled", help="sampled[:<reps>] | fixed:<value>")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("radius", help="estimate a model's expected statistic on itself")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replications", type=int, default=SampledAlpha.replications)
    p.add_argument("--width-fraction", type=float, default=TestConfig.width_fraction)
    p.add_argument("--probe-fraction", type=float, default=TestConfig.probe_fraction)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("distance", help="Monte Carlo estimate of the directed model distance")
    p.add_argument("--m0", required=True, help=_KINDS_HELP)
    p.add_argument("--m1", required=True, help=_KINDS_HELP)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("experiment", help="run a batch experiment from flags and/or a config file")
    p.add_argument("--config", help="JSON file mirroring the experiment configuration")
    p.add_argument("--experiment", choices=harness.EXPERIMENTS)
    p.add_argument("--m0", help=f"null model: {_KINDS_HELP}")
    p.add_argument("--m1", help=f"alternative model: {_KINDS_HELP}")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--n-values", help="comma-separated trajectory lengths")
    p.add_argument("--replications", type=int)
    p.add_argument("--D", type=float)
    p.add_argument("--width-fraction", type=float)
    p.add_argument("--probe-fraction", type=float)
    p.add_argument("--alpha")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="exact enumeration over tiny instances (n <= 6, m = 1)")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--functional", required=True,
                   choices=[oracle.FUNCTIONAL_TRAJ_PROBS, oracle.FUNCTIONAL_EXPECTED_S, oracle.FUNCTIONAL_DN])
    p.add_argument("--probes", help="comma-separated probe times for expected-s")
    p.add_argument("--width", type=int, help="window width for expected-s")
    p.add_argument("--m1", help="alternative model for dn")
    p.add_argument("--seed", type=int)  # accepted for uniformity; enumeration is deterministic

    return parser


def _cmd_generate(args) -> int:
    model = _model_from_flags(args.model, args.m, args.a)
    seed = _resolve_seed(args)
    traj = sample_trajectory(model, args.n, seed)
    write_trajectory(traj, args.out)
    max_degree = int(final_degrees(traj.choices[None]).max())
    print(f"n={traj.n} m={traj.m} model={traj.model_label} seed={seed} max_degree={max_degree}")
    return 0


def _cmd_test(args) -> int:
    traj = read_trajectory(args.traj_path)
    null_model = _model_from_flags(args.null_model, traj.m, args.a)
    seed = _resolve_seed(args)
    cfg = TestConfig(
        null_model=null_model,
        D=args.D,
        width_fraction=args.width_fraction,
        probe_fraction=args.probe_fraction,
        alpha_mode=_alpha_mode(args.alpha),
        seed=seed,
    )
    report = test_dynamic_graph(traj, cfg)
    print(report.to_json())
    return report.decision


def _cmd_radius(args) -> int:
    model = _model_from_flags(args.model, args.m, args.a)
    seed = _resolve_seed(args)
    cfg = TestConfig(null_model=model, width_fraction=args.width_fraction, probe_fraction=args.probe_fraction)
    est = sampling_radius_estimate(args.n, cfg, args.replications, seed)
    _emit({"mean": est.mean, "std": est.std, "replications": args.replications,
           "n": args.n, "M": cfg.probes_for(args.n), "C": cfg.width_for(args.n), "seed": seed})
    return 0


def _cmd_distance(args) -> int:
    m0 = _model_from_flags(args.m0, args.m, args.a)
    m1 = _model_from_flags(args.m1, args.m, args.a)
    seed = _resolve_seed(args)
    value = dn_estimate(m0, m1, args.n, args.replications, seed)
    _emit({"dn": value, "m0": m0.label, "m1": m1.label,
           "n": args.n, "replications": args.replications, "seed": seed})
    return 0


def _cmd_experiment(args) -> int:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
    # Flags override file values; each flag of the loop below is named after its config key.
    if args.m0:
        base["null_model"] = harness.config_to_dict(_model_from_flags(args.m0, args.m, args.a))
    if args.m1:
        base["alt_model"] = harness.config_to_dict(_model_from_flags(args.m1, args.m, args.a))
    if args.n_values:
        base["n_values"] = [int(tok) for tok in args.n_values.split(",") if tok]
    if args.out:
        base["output_path"] = args.out
    tc = base.setdefault("test_config", {})
    if not isinstance(tc, dict):
        raise CliError(f"test_config must be a JSON object, got {type(tc).__name__}")
    for config, key in ((base, "experiment"), (base, "replications"),
                        (tc, "D"), (tc, "width_fraction"), (tc, "probe_fraction")):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    if args.alpha:
        tc["alpha_mode"] = harness.config_to_dict(_alpha_mode(args.alpha))
    if args.seed is not None:
        tc["seed"] = args.seed
    elif "seed" not in tc:
        tc["seed"] = _resolve_seed(args)
    if "experiment" not in base:
        raise CliError("no experiment selected (flag --experiment or config file)")
    if "null_model" not in base:
        raise CliError("no null model given (flag --m0 or config file)")
    if "n_values" not in base:
        raise CliError("no n values given (flag --n-values or config file)")
    cfg = harness.config_from_dict(harness.ExperimentConfig, base)
    if args.config and cfg.output_path:
        written = {os.path.realpath(p) for p in (cfg.output_path, harness.manifest_path(cfg.output_path))}
        if os.path.realpath(args.config) in written:
            raise CliError(f"the experiment would write over its config file {args.config}")
    result = harness.run_experiment(cfg)
    _emit({"csv": result.csv_path, "manifest": result.manifest_path, "rows": len(result.table.rows)})
    return 0


def _cmd_oracle(args) -> int:
    model = _model_from_flags(args.model, args.m, args.a)
    if args.functional == oracle.FUNCTIONAL_TRAJ_PROBS:
        listing = oracle.enumerate_trajectories(model, args.n)
        total = sum(p for _, p in listing)
        _emit({
            "model": model.label, "n": args.n,
            "trajectories": [
                {"choices": list(c), "prob": str(p), "prob_float": float(p)} for c, p in listing
            ],
            "total_prob": str(total),
        })
        return 0
    if args.functional == oracle.FUNCTIONAL_EXPECTED_S:
        if not args.probes or args.width is None:
            raise CliError("expected-s needs --probes and --width")
        probes = [int(tok) for tok in args.probes.split(",") if tok]
        value = oracle.exact_expected_statistic(model, args.n, probes, args.width)
        _emit({"model": model.label, "n": args.n, "probes": probes, "width": args.width,
               "expected_s": str(value), "expected_s_float": float(value)})
        return 0
    if not args.m1:
        raise CliError("dn needs --m1")
    m1 = _model_from_flags(args.m1, args.m, args.a)
    value = oracle.exact_dn(model, m1, args.n)
    _emit({"m0": model.label, "m1": m1.label, "n": args.n,
           "dn": str(value), "dn_float": float(value)})
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "test": _cmd_test,
    "radius": _cmd_radius,
    "distance": _cmd_distance,
    "experiment": _cmd_experiment,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError, KeyError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
