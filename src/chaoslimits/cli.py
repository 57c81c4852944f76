"""Command-line interface: ``chaoslimits <subcommand> [flags]``.

Subcommands
-----------
- ``targets-list``: the named target measures and their parameters.
- ``targets-coeffs``: diffusion coefficient (alpha, beta, gamma) of a target.
- ``classify``: sort a coefficient triple into the reachable-limit classes.
- ``diagnose``: fourth-moment diagnostics along a kernel family.
- ``simulate``: Euler-Maruyama sampling plus empirical distances.
- ``stein-check``: residual of the Stein-equation solver on interior grids.
- ``oracle-check``: closed-form moments vs the Wick-pairing oracle (CI gate).

Reports are structured text on stdout with every float at 17 significant
digits and a ``schema_version`` field.  Exit codes: 0 success, 2 validation
error (bad flag or file field), 1 numeric failure or a closed stdout (no
"error:" line; the rest of the output goes to devnull).  Every stochastic
subcommand requires ``--seed``; given the same flags the output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import io as cio
from .chaos import (
    ChaosVector,
    chaos_product,
    eval_multiple_integral,
    random_kernel,
    sample_gaussian,
    wick_moment,
)
from .diagnostics import (
    BUILTIN_FAMILIES,
    classifier,
    moment3,
    moment4,
    run_family_diagnostics,
    stein_residual_l2,
    stein_residual_l2_direct,
)
from .simulate import (
    EmpiricalDistribution,
    SimConfig,
    ks_distance,
    simulate,
    stein_dictionary_test,
    wasserstein1_distance,
)
from .targets import NAMED_TARGETS, named_target, stein_solution_residual

_STEIN_CHECK_TOL = 1e-6


def _target_params():
    """Constructor keyword -> the named targets that take it, in
    ``NAMED_TARGETS`` order."""
    takers = {}
    for name, (_, wanted) in NAMED_TARGETS.items():
        for key in wanted:
            takers.setdefault(key, []).append(name)
    return takers


def _add_target_flags(sub, grid_file=False):
    sub.add_argument("--name", required=not grid_file,
                     help="named target (see targets-list)")
    if grid_file:
        sub.add_argument("--target", help="target file holding a density grid")
    for key, names in _target_params().items():
        sub.add_argument(f"--{cio.file_param_name(key)}", dest=key, type=float,
                         help=f"parameter of {', '.join(names)}")


def _resolve_target(args):
    """Target from --name plus every given parameter flag, or from a --target
    grid file; ``named_target`` rejects a flag its target does not take."""
    params = {key: getattr(args, key) for key in _target_params()
              if getattr(args, key) is not None}
    path = getattr(args, "target", None)
    if path is not None:
        if args.name is not None:
            raise ValueError("give --name or --target, not both")
        if params:
            flags = [f"--{cio.file_param_name(key)}" for key in params]
            raise ValueError(f"a target file takes no parameter flags, got {flags}")
        return cio.load_target(path)
    if args.name is None:
        raise ValueError("provide a target via --name or --target")
    return named_target(args.name, **params)


def _emit(doc):
    """Print the report, stamped with the schema version, and flush it, so a
    closed stdout raises here and not at exit."""
    print(cio.dumps_struct({"schema_version": cio.SCHEMA_VERSION, **doc}), flush=True)


def _stdout_to_devnull():
    """Point stdout's file descriptor, if it has one, at devnull, so the
    interpreter's flush at exit finds no closed pipe (the Python docs'
    recipe for SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# --- subcommands ---------------------------------------------------------------

def _cmd_targets_list(args):
    rows = [{"name": name, "params": [cio.file_param_name(p) for p in wanted]}
            for name, (_, wanted) in NAMED_TARGETS.items()]
    _emit({"targets": rows})
    return 0


def _cmd_targets_coeffs(args):
    target = _resolve_target(args)
    alpha, beta, gamma = target.coeff.as_tuple()
    _emit({
        "target": cio.target_to_dict(target),
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
    })
    return 0


def _verdict_doc(v):
    doc = dataclasses.asdict(v)
    if v.gamma_params is None:
        del doc["gamma_params"]
    else:
        doc["gamma_params"] = {"lambda": v.gamma_params[0], "a": v.gamma_params[1]}
    if v.c0_sign_argument_applies is None:
        del doc["c0_sign_argument_applies"]
    return doc


def _cmd_classify(args):
    verdict = classifier(args.alpha, args.beta, args.gamma)
    _emit({
        "classifier": _verdict_doc(verdict),
    })
    return 0


def _parse_m_list(text):
    try:
        ms = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--m: expected comma-separated integers, got {text!r}")
    if not ms:
        raise ValueError("--m: empty list")
    return ms


def _cmd_diagnose(args):
    if args.seed is not None and not args.mc:
        raise ValueError("--seed seeds the Monte Carlo twins: give it with --mc")
    family = BUILTIN_FAMILIES[args.family](**({} if args.k is None else {"k": args.k}))
    ms = _parse_m_list(args.m)
    target = _resolve_target(args)
    report = run_family_diagnostics(
        family, ms, target, mc_samples=args.mc, seed=args.seed
    )
    members = [{key: {"value": v[0], "stderr": v[1]} if isinstance(v, tuple) else v
                for key, v in rec.items()} for rec in report.members]
    trends = {
        key: [None if v != v else v for v in vals]  # NaN -> null
        for key, vals in report.trends.items()
    }
    _emit({
        "family": report.family,
        "order": report.order,
        "target": cio.target_to_dict(target),
        "coeff": {"alpha": report.coeff[0], "beta": report.coeff[1],
                  "gamma": report.coeff[2]},
        "members": members,
        "classifier": _verdict_doc(report.verdict),
        "trends": trends,
    })
    return 0


def _cmd_simulate(args):
    target = _resolve_target(args)
    cfg = SimConfig(
        dt=args.dt,
        burn_in=args.burn_in,
        samples=args.samples,
        seed=args.seed,
    )
    if args.out:  # an unwritable path fails here, before the chain runs
        open(args.out, "a").close()
    emp = simulate(target, cfg)
    exact = EmpiricalDistribution(
        target.sample_exact(emp.count, seed=cfg.seed + 1)
    )
    dictionary, dict_ok = stein_dictionary_test(emp, target)
    _emit({
        "target": cio.target_to_dict(target),
        "config": dataclasses.asdict(cfg),
        "results": {
            "count": emp.count,
            "mean": emp.mean(),
            "var": emp.var(),
            "ks_distance": ks_distance(emp, target),
            "w1_vs_exact_sampling": wasserstein1_distance(emp, exact),
            "clamp_fraction": emp.clamp_fraction,
            "clamping_flagged": emp.clamping_flagged,
            "dictionary": {
                name: {"mean": m, "stderr": s, "z": z}
                for name, (m, s, z) in dictionary.items()
            },
            "dictionary_pass": dict_ok,
        },
    })
    if args.out:
        cio.save_samples(emp, args.out)
    return 0


def _cmd_stein_check(args):
    target = _resolve_target(args)
    target.validate()
    xs = target.interior_grid(200)
    residuals = {}
    worst = 0.0
    poly = np.polynomial.Polynomial
    for label, f in (("x", poly([0, 1])), ("x^2", poly([0, 0, 1]))):
        res = float(np.max(np.abs(stein_solution_residual(target, f, xs))))
        residuals[label] = res
        worst = max(worst, res)
    ok = worst < _STEIN_CHECK_TOL
    _emit({
        "target": cio.target_to_dict(target),
        "grid_points": len(xs),
        "max_abs_residual": residuals,
        "tolerance": _STEIN_CHECK_TOL,
        "pass": ok,
    })
    return 0 if ok else 1


def _cmd_oracle_check(args):
    if args.m < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
    rng = np.random.default_rng(args.seed)
    counts = {}

    def record(name, ok):
        p, f = counts.get(name, (0, 0))
        counts[name] = (p + 1, f) if ok else (p, f + 1)

    for _ in range(args.m):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        f = random_kernel(rng, d, n, nnz=int(rng.integers(1, 5)))
        if not f.entries:
            continue
        w3, w4 = wick_moment([f], [3]), wick_moment([f], [4])
        record("moment3_vs_wick",
               abs(moment3(f) - w3) <= 1e-10 * max(1.0, abs(w3)))
        record("moment4_vs_wick",
               abs(moment4(f) - w4) <= 1e-10 * max(1.0, abs(w4)))
        coeff = tuple(rng.normal(size=3))
        a = stein_residual_l2(f, coeff)
        b = stein_residual_l2_direct(f, coeff)
        record("residual_decomposition_vs_direct",
               abs(a - b) <= 1e-10 * max(1.0, abs(a)))

    for _ in range(max(args.m // 5, 8)):
        d = int(rng.integers(1, 5))
        fa = random_kernel(rng, d, int(rng.integers(1, 4)), 3)
        fb = random_kernel(rng, d, int(rng.integers(1, 4)), 3)
        if not fa.entries or not fb.entries:
            continue
        prod = chaos_product(ChaosVector.from_kernel(fa),
                             ChaosVector.from_kernel(fb))
        x = sample_gaussian(d, 200, int(rng.integers(0, 2**32)))
        lhs = eval_multiple_integral(fa, x) * eval_multiple_integral(fb, x)
        rhs = eval_multiple_integral(prod, x)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        record("product_formula_pathwise",
               float(np.max(np.abs(lhs - rhs))) <= 1e-10 * scale)

    failures = sum(f for _, f in counts.values())
    _emit({
        "trials": args.m,
        "checks": {name: {"pass": p, "fail": f}
                   for name, (p, f) in sorted(counts.items())},
        "failures": failures,
    })
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaoslimits",
        description="Chaos-limit diagnostics, Stein targets and SDE sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("targets-list", help="list named target measures")
    p.set_defaults(func=_cmd_targets_list)

    p = sub.add_parser("targets-coeffs",
                       help="diffusion coefficient of a target")
    _add_target_flags(p)
    p.set_defaults(func=_cmd_targets_coeffs)

    p = sub.add_parser("classify", help="classify a coefficient triple")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("diagnose", help="kernel-family diagnostics report")
    p.add_argument("--family", required=True, choices=list(BUILTIN_FAMILIES),
                   help="kernel family (gamma_fixed takes k via --k)")
    p.add_argument("--k", type=int,
                   help="gamma_fixed only: integer family size k (default 1);"
                        " the limit is Gamma(k/2, 1/2)")
    p.add_argument("--m", required=True,
                   help="comma-separated member indices, e.g. 1,2,4,8")
    p.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo samples per member (0 = exact only)")
    p.add_argument("--seed", type=int, help="Monte Carlo seed (with --mc only)")
    _add_target_flags(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="Euler-Maruyama sampling of a target")
    _add_target_flags(p, grid_file=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=100_000)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the sample dump to this path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stein-check",
                       help="Stein-equation solver residual on interior grids")
    _add_target_flags(p, grid_file=True)
    p.set_defaults(func=_cmd_stein_check)

    p = sub.add_parser("oracle-check",
                       help="closed forms vs the Wick oracle (CI gate)")
    p.add_argument("--m", type=int, default=60, help="number of random kernels")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


@functools.cache
def _parser():
    """The parser, built on the first call in a process; parsing leaves it
    unchanged, so every later ``main`` call reuses it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader of stdout went away: not bad input
        _stdout_to_devnull()
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
