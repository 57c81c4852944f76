"""The benchmark's three seeded workloads and their answer checks.

Each workload turns ``--seed`` into inputs (``make_inputs``) and then asks a
fixed list of questions, one after another, from a single caller: a closed
loop.  A question is one operation: it calls the library (or ``cli.main``),
checks the answer against a known truth and returns the answer bytes for the
digest.  The seed changes the inputs, never their sizes, so the work done is
nearly the same for every seed.

Sizes marked "resized" are smaller than first planned: the larger sizes do
not fit a 30-second run with three or more passes on a 2-core machine.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

import chaoslimits as cl
from chaoslimits import cli

# A failed check with one of these names is a known defect of the program:
# it counts as a failed operation but does not make the run incorrect.
KNOWN_DEFECTS = {
    "dictionary_accepts_exact_target":
        "the Stein dictionary z-scores use an iid stderr on a correlated"
        " chain, so the exact target is rejected (ROADMAP item 5)",
    "custom_stein_residual_within_1e-6":
        "on a grid target the Stein residual misses the 1e-6 of the named"
        " targets at most points (up to about 2e-3): its solution and its"
        " numeric a(x) come from separate adaptive quads (ROADMAP item 4)",
}

# Kolmogorov-distribution 99.9% quantile: KS <= KS_Z / sqrt(ESS).
KS_Z = 1.95
# Monte Carlo twins must sit within MC_K standard errors of the exact value.
MC_K = 5.0

NAMED = (
    ("normal", {"gamma": 1.0}, ["--gamma", "1"]),
    ("gamma", {"a": 2.0, "lam": 1.0}, ["--a", "2", "--lambda", "1"]),
    ("beta", {"a": 2.0, "b": 3.0}, ["--a", "2", "--b", "3"]),
    ("student", {"nu": 7.0}, ["--nu", "7"]),
)
# the classifier's verdicts when this benchmark was written
EXPECTED_VERDICTS = {"normal": "GaussianOnly", "gamma": "GammaOnly",
                     "beta": "Inconsistent", "student": "GaussianOnly"}
SCIPY_LAWS = {
    "normal": lambda p: scipy.stats.norm(scale=math.sqrt(p["gamma"])),
    "gamma": lambda p: scipy.stats.gamma(p["a"], scale=1.0 / p["lam"]),
    "beta": lambda p: scipy.stats.beta(p["a"], p["b"]),
    "student": lambda p: scipy.stats.t(p["nu"]),
}
STEIN_FUNCS = (("x^2", lambda y: y**2), ("x^3", lambda y: y**3), ("sin", np.sin))

SIZES = {
    "exact-sweep": {
        "clt_ms": [8, 16, 32, 64, 128, 256],
        "gamma_fixed": {"k": 8, "ms": [1, 2, 3, 4], "target": "gamma(4, 0.5)"},
        "random_kernels": {"count": 4, "dim": 8, "order": 4, "nnz": 60,
                           "coeff": "normal(1)"},
        # shapes cycle through dim 1..max_dim x order 1..max_order, nnz 1..max_nnz
        "wick_kernels": {"count": 60, "max_dim": 6, "max_order": 4, "max_nnz": 5},
        "cli": "diagnose --family gaussian_clt --m 32,64 --name normal --gamma 1",
    },
    "target-analysis": {
        "named": ["normal(1)", "gamma(2,1)", "beta(2,3)", "student(7)"],
        "stein_grid_points": 3,          # resized from 16
        "stein_funcs": ["x^2", "x^3", "sin"],
        "custom_grid": {"knots": 129, "lo": -8.0, "hi": 8.0, "law": "N(0,1)"},
        "custom_coeff_points": 8,        # resized from 16
        "custom_stein_points": 2,        # resized from 4
        "custom_chain_steps": 20,        # resized from 100
        "cli": ["stein-check --name beta --a 2 --b 3",
                "classify --alpha 0 --beta 2 --gamma 4",
                "targets-coeffs --name student --nu 5"],
    },
    "sampling": {
        "chains": {"burn_in": 100_000, "samples": 100_000, "thinning": 10,
                   "dt": 1e-3, "targets": 4},
        "cli": "simulate at defaults (dt 1e-3, burn-in 1e5, 1e4 samples,"
               " thinning 10) for each named target",
        "mc_twins": {"ms": [16, 32, 64], "samples": 20_000},
    },
}

ANALYSIS = SIZES["target-analysis"]
CHAIN = SIZES["sampling"]["chains"]
MC = SIZES["sampling"]["mc_twins"]


@dataclass
class Answer:
    """What one question returned: the bytes it emitted and failed checks."""

    payload: bytes
    failed: list = field(default_factory=list)
    out_bytes: int = 0


@dataclass(frozen=True)
class Question:
    qid: str
    ask: object  # ask(ctx) -> Answer; ctx carries results between questions


def _f64(*values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _seeds(seed, tag, count):
    rng = np.random.default_rng([int(seed), tag])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def _cli_answer(out, failed):
    data = out.encode()
    return Answer(data, failed, len(data))


def run_cli(argv):
    """Run one CLI command in process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _ess(samples, dt, thinning):
    """Effective sample size of kept draws from a chain whose slowest mode
    relaxes at rate 1 (drift -x): integrated autocorrelation time
    coth(dt*thinning/2)."""
    return samples * math.tanh(dt * thinning / 2.0)


# --- exact-sweep -----------------------------------------------------------------

def _wick_shapes():
    wk = SIZES["exact-sweep"]["wick_kernels"]
    pairs = [(d, n) for d in range(1, wk["max_dim"] + 1)
             for n in range(1, wk["max_order"] + 1)]
    return [(*pairs[i % len(pairs)], 1 + i % wk["max_nnz"])
            for i in range(wk["count"])]


def exact_inputs(seed):
    rk = SIZES["exact-sweep"]["random_kernels"]
    rng = np.random.default_rng([int(seed), 1])
    kernels = [cl.random_kernel(rng, rk["dim"], rk["order"], rk["nnz"])
               for _ in range(rk["count"])]
    rng = np.random.default_rng([int(seed), 2])
    wick = [cl.random_kernel(rng, d, n, nnz) for d, n, nnz in _wick_shapes()]
    return {"random_kernels": kernels, "wick_kernels": wick}


def _clt_checks(members, failed):
    for rec in members:
        m = rec["m"]
        if not _rel_close(rec["ef2"], 1.0, 1e-12):
            failed.append(f"ef2_is_1_at_m{m}")
        if not _rel_close(rec["ef4"] - 3.0, 12.0 / m, 1e-12):
            failed.append(f"fourth_cumulant_is_12_over_m_at_m{m}")


def _member_values(members):
    vals = []
    for rec in members:
        for key, v in rec.items():
            if isinstance(v, dict):
                vals.extend(v.values())
            elif isinstance(v, tuple):
                vals.extend(v)
            else:
                vals.append(v)
    return _f64(*vals)


def _ask_clt_sweep(ctx):
    ms = SIZES["exact-sweep"]["clt_ms"]
    rep = cl.run_family_diagnostics(cl.gaussian_clt_family(), ms, cl.normal_target(1.0))
    failed = []
    _clt_checks(rep.members, failed)
    if rep.verdict.kind != "GaussianOnly":
        failed.append("verdict_gaussian_only")
    return Answer(_member_values(rep.members) + rep.verdict.kind.encode(), failed)


def _ask_gamma_fixed(ctx):
    gf = SIZES["exact-sweep"]["gamma_fixed"]
    rep = cl.run_family_diagnostics(cl.gamma_fixed_family(gf["k"]), gf["ms"],
                                    cl.gamma_target(4.0, 0.5))
    failed = []
    for rec in rep.members:
        for key in ("gamma_kernel_gap", "lemma_l11_gap", "stein_residual_l2_chaos",
                    "prop24_gap_chaos", "lemma_l2_combination"):
            if not abs(rec[key]) <= 1e-12:
                failed.append(f"{key}_vanishes_at_m{rec['m']}")
    if rep.verdict.kind != "GammaOnly":
        failed.append("verdict_gamma_only")
    return Answer(_member_values(rep.members) + rep.verdict.kind.encode(), failed)


def _ask_random_kernel(i):
    def ask(ctx):
        f = ctx["inputs"]["random_kernels"][i]
        m3, m4 = cl.moment3(f), cl.moment4(f)
        r = cl.stein_residual_l2(f, cl.normal_target(1.0).coeff)
        ef2 = f.scaled_norm_sq()
        failed = []
        if not all(map(math.isfinite, (m3, m4, r))):
            failed.append("finite")
        if not m4 >= 3.0 * ef2 * ef2 * (1.0 - 1e-12):
            failed.append("fourth_moment_at_least_gaussian")
        if not r >= 0.0:
            failed.append("residual_nonnegative")
        return Answer(_f64(m3, m4, r), failed)
    return ask


def _ask_wick(i):
    def ask(ctx):
        f = ctx["inputs"]["wick_kernels"][i]
        m4, w4 = cl.moment4(f), cl.wick_moment([f], [4])
        failed = [] if abs(m4 - w4) <= 1e-10 * max(1.0, abs(w4)) else [
            "moment4_matches_wick"]
        return Answer(_f64(m4, w4), failed)
    return ask


def _ask_cli_diagnose(ctx):
    code, out = run_cli(["diagnose", "--family", "gaussian_clt", "--m", "32,64",
                         "--name", "normal", "--gamma", "1"])
    failed = [] if code == 0 else ["exit_0"]
    if code == 0:
        _clt_checks(json.loads(out)["members"], failed)
    return _cli_answer(out, failed)


def exact_questions(inputs):
    rk = len(inputs["random_kernels"])
    wk = len(inputs["wick_kernels"])
    return ([Question("clt_sweep", _ask_clt_sweep),
             Question("gamma_fixed", _ask_gamma_fixed)]
            + [Question(f"random/{i}", _ask_random_kernel(i)) for i in range(rk)]
            + [Question(f"wick/{i}", _ask_wick(i)) for i in range(wk)]
            + [Question("cli/diagnose", _ask_cli_diagnose)])


# --- target-analysis ---------------------------------------------------------------

def _stratified(rng, count, lo, hi):
    """One uniform draw in each of ``count`` equal strata of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count


def target_inputs(seed):
    grid = ANALYSIS["custom_grid"]
    xs = np.linspace(grid["lo"], grid["hi"], grid["knots"])
    rng = np.random.default_rng([int(seed), 3])
    norm = scipy.stats.norm()
    return {
        "grid": (xs, norm.pdf(xs)),
        "coeff_points": norm.ppf(_stratified(rng, ANALYSIS["custom_coeff_points"],
                                             0.02, 0.98)),
        "stein_points": norm.ppf(_stratified(rng, ANALYSIS["custom_stein_points"],
                                             0.1, 0.9)),
        "chain_seed": _seeds(seed, 4, 1)[0],
    }


def _ask_stein(name, params, f):
    def ask(ctx):
        t = cl.named_target(name, **params)
        xs = t.interior_grid(ANALYSIS["stein_grid_points"])
        r = cl.stein_solution_residual(t, f, xs)
        worst = float(np.max(np.abs(r)))
        failed = [] if worst <= 1e-6 else ["stein_residual_within_1e-6"]
        return Answer(r.tobytes(), failed)
    return ask


def _ask_identity(name, params):
    def ask(ctx):
        t = cl.named_target(name, **params)
        r = cl.stein_identity_residual(t, np.sin, np.cos)
        return Answer(_f64(r), [] if abs(r) <= 1e-8 else ["identity_residual_zero"])
    return ask


def _ask_moments(name, params):
    def ask(ctx):
        t = cl.named_target(name, **params)
        table = cl.moment_table(*t.coeff.as_tuple(), 4)
        var, skew, kurt = (float(v) for v in
                           SCIPY_LAWS[name](params).stats(moments="vsk"))
        truth = (var, skew * var**1.5, (kurt + 3.0) * var * var)
        ok = all(abs(a - b) <= 1e-9 * max(1.0, abs(b))
                 for a, b in zip(table[2:], truth))
        return Answer(_f64(*table), [] if ok else ["moments_match_closed_form"])
    return ask


def _ask_classify(name, params):
    def ask(ctx):
        t = cl.named_target(name, **params)
        v = cl.classifier(*t.coeff.as_tuple(),
                          all_even_moments_finite=not math.isfinite(t.moment_bound))
        failed = [] if v.kind == EXPECTED_VERDICTS[name] else ["verdict_as_recorded"]
        return Answer(v.kind.encode(), failed)
    return ask


def _ask_custom_build(ctx):
    xs, ps = ctx["inputs"]["grid"]
    t = cl.target_from_density_grid(xs, ps)
    ctx["custom"] = t
    failed = [] if abs(t.mean_shift) <= 1e-8 else ["custom_mean_zero"]
    return Answer(_f64(t.mean_shift), failed)


def _ask_custom_coeff(ctx):
    a = np.asarray(ctx["custom"].coeff(ctx["inputs"]["coeff_points"]), dtype=float)
    # the exact coefficient of N(0, 1) is a(x) = 2; the 129-knot grid gave
    # at most 1.2e-3 over 40 seeds when this check was written
    failed = [] if float(np.max(np.abs(a - 2.0))) <= 5e-3 else [
        "custom_coeff_within_5e-3_of_2"]
    return Answer(a.tobytes(), failed)


def _ask_custom_stein(ctx):
    r = cl.stein_solution_residual(ctx["custom"], lambda y: y**2,
                                   ctx["inputs"]["stein_points"])
    failed = [] if np.all(np.isfinite(r)) else ["custom_stein_residual_finite"]
    if not float(np.max(np.abs(r))) <= 1e-6:
        failed.append("custom_stein_residual_within_1e-6")
    return Answer(r.tobytes(), failed)


def _ask_custom_chain(ctx):
    steps = ANALYSIS["custom_chain_steps"]
    cfg = cl.SimConfig(burn_in=steps // 3, samples=steps - steps // 3, thinning=1,
                       seed=ctx["inputs"]["chain_seed"])
    e = cl.simulate(ctx["custom"], cfg)
    failed = [] if np.all(np.isfinite(e.values)) else ["custom_chain_finite"]
    return Answer(e.values.tobytes(), failed)


def _ask_cli_stein_check(ctx):
    code, out = run_cli(["stein-check", "--name", "beta", "--a", "2", "--b", "3"])
    failed = [] if code == 0 and json.loads(out)["pass"] else ["stein_check_passes"]
    return _cli_answer(out, failed)


def _ask_cli_classify(ctx):
    code, out = run_cli(["classify", "--alpha", "0", "--beta", "2", "--gamma", "4"])
    ok = code == 0 and json.loads(out)["classifier"]["kind"] == "GammaOnly"
    return _cli_answer(out, [] if ok else ["classify_gamma_only"])


def _ask_cli_coeffs(ctx):
    code, out = run_cli(["targets-coeffs", "--name", "student", "--nu", "5"])
    ok = code == 0
    if ok:
        doc = json.loads(out)
        ok = (_rel_close(doc["alpha"], 0.5, 1e-15) and doc["beta"] == 0.0
              and _rel_close(doc["gamma"], 2.5, 1e-15))
    return _cli_answer(out, [] if ok else ["student_coeffs"])


def target_questions(inputs):
    qs = []
    for name, params, _ in NAMED:
        qs += [Question(f"stein/{name}/{label}", _ask_stein(name, params, f))
               for label, f in STEIN_FUNCS]
        qs += [Question(f"identity/{name}", _ask_identity(name, params)),
               Question(f"moments/{name}", _ask_moments(name, params)),
               Question(f"classify/{name}", _ask_classify(name, params))]
    return qs + [
        Question("custom/build", _ask_custom_build),
        Question("custom/coeff", _ask_custom_coeff),
        Question("custom/stein", _ask_custom_stein),
        Question("custom/chain", _ask_custom_chain),
        Question("cli/stein-check", _ask_cli_stein_check),
        Question("cli/classify", _ask_cli_classify),
        Question("cli/targets-coeffs", _ask_cli_coeffs),
    ]


# --- sampling ------------------------------------------------------------------------

def sampling_inputs(seed):
    chain = _seeds(seed, 5, len(NAMED))
    cli_seeds = _seeds(seed, 6, len(NAMED))
    return {"chain_seeds": dict(zip((n for n, _, _ in NAMED), chain)),
            "cli_seeds": dict(zip((n for n, _, _ in NAMED), cli_seeds)),
            "mc_seed": _seeds(seed, 7, 1)[0]}


def _ask_chain(name, params):
    def ask(ctx):
        t = cl.named_target(name, **params)
        seed = ctx["inputs"]["chain_seeds"][name]
        e = cl.simulate(t, cl.SimConfig(dt=CHAIN["dt"], burn_in=CHAIN["burn_in"],
                                        samples=CHAIN["samples"],
                                        thinning=CHAIN["thinning"], seed=seed))
        ctx[name] = (t, e, seed)
        ok = e.count == CHAIN["samples"] and bool(np.all(np.isfinite(e.values)))
        return Answer(e.values.tobytes(), [] if ok else ["chain_finite"])
    return ask


def _ask_ks(name):
    def ask(ctx):
        t, e, _ = ctx[name]
        ks = cl.ks_distance(e, t)
        bound = KS_Z / math.sqrt(_ess(e.count, CHAIN["dt"], CHAIN["thinning"]))
        return Answer(_f64(ks), [] if ks <= bound else ["ks_within_ess_bound"])
    return ask


def _ask_w1(name):
    def ask(ctx):
        t, e, seed = ctx[name]
        exact = cl.EmpiricalDistribution(t.sample_exact(e.count, seed=seed + 1))
        w1 = cl.wasserstein1_distance(e, exact)
        ok = math.isfinite(w1) and w1 >= 0.0
        return Answer(_f64(w1) + exact.values.tobytes(), [] if ok else ["w1_finite"])
    return ask


def _ask_dictionary(name):
    def ask(ctx):
        t, e, _ = ctx[name]
        results, ok = cl.stein_dictionary_test(e, t)
        vals = [v for triple in results.values() for v in triple]
        return Answer(_f64(*vals), [] if ok else ["dictionary_accepts_exact_target"])
    return ask


def _ask_cli_simulate(name, flags):
    def ask(ctx):
        seed = ctx["inputs"]["cli_seeds"][name]
        code, out = run_cli(["simulate", "--name", name, *flags, "--seed", str(seed)])
        if code != 0:
            return _cli_answer(out, ["exit_0"])
        doc = json.loads(out)
        res, cfg = doc["results"], doc["config"]
        failed = []
        ess = _ess(res["count"], cfg["dt"], cfg["thinning"])
        if not res["ks_distance"] <= KS_Z / math.sqrt(ess):
            failed.append("ks_within_ess_bound")
        if not res["dictionary_pass"]:
            failed.append("dictionary_accepts_exact_target")
        return _cli_answer(out, failed)
    return ask


def _ask_mc_twins(ctx):
    rep = cl.run_family_diagnostics(cl.gaussian_clt_family(), MC["ms"],
                                    cl.normal_target(1.0), mc_samples=MC["samples"],
                                    seed=ctx["inputs"]["mc_seed"])
    failed = []
    for rec in rep.members:
        for exact_key, mc_key in (("stein_residual_l2_chaos", "stein_residual_l2_mc"),
                                  ("prop24_gap_chaos", "prop24_gap_mc")):
            value, stderr = rec[mc_key]
            if not abs(value - rec[exact_key]) <= MC_K * stderr:
                failed.append(f"{mc_key}_within_{MC_K:g}_stderr_at_m{rec['m']}")
        if not all(map(math.isfinite, rec["stein_discrepancy_l1"])):
            failed.append(f"stein_discrepancy_l1_finite_at_m{rec['m']}")
    return Answer(_member_values(rep.members), failed)


def sampling_questions(inputs):
    qs = []
    for name, params, _ in NAMED:
        qs += [Question(f"chain/{name}", _ask_chain(name, params)),
               Question(f"ks/{name}", _ask_ks(name)),
               Question(f"w1/{name}", _ask_w1(name)),
               Question(f"dictionary/{name}", _ask_dictionary(name))]
    qs += [Question(f"cli/simulate/{name}", _ask_cli_simulate(name, flags))
           for name, _, flags in NAMED]
    return qs + [Question("mc_twins", _ask_mc_twins)]


WORKLOADS = {
    "exact-sweep": (exact_inputs, exact_questions),
    "target-analysis": (target_inputs, target_questions),
    "sampling": (sampling_inputs, sampling_questions),
}
