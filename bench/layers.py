"""Per-layer metrics computed from one traced pass.

``PER_LAYER`` lists every metric with its unit, which direction is better,
and the end-to-end metric (on a workload) that it should move.  Every metric
is reported on every workload; a layer the workload leaves idle reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import self_times

E2E = "wall_s"

# (name, unit, better, workload whose wall_s it should move)
PER_LAYER = [
    ("chaos.contract.calls", "count", "lower", "exact-sweep"),
    ("chaos.contract.pairs_offered", "count", "lower", "exact-sweep"),
    ("chaos.contract.blocks_out", "count", "lower", "exact-sweep"),
    ("chaos.contract.useful_ratio", "ratio", "higher", "exact-sweep"),
    ("chaos.contract.self_s", "s", "lower", "exact-sweep"),
    ("chaos.symmetrized.self_s", "s", "lower", "exact-sweep"),
    ("chaos.chaos_product.self_s", "s", "lower", "exact-sweep"),
    ("chaos.malliavin_inner.self_s", "s", "lower", "exact-sweep"),
    ("chaos.wick_moment.self_s", "s", "lower", "exact-sweep"),
    ("chaos.eval_multiple_integral.calls", "count", "lower", "sampling"),
    ("chaos.eval_multiple_integral.point_terms", "count", "lower", "sampling"),
    ("chaos.eval_multiple_integral.self_s", "s", "lower", "sampling"),
    ("chaos.sample_gaussian.draws", "count", "lower", "sampling"),
    ("chaos.sample_gaussian.self_s", "s", "lower", "sampling"),
    ("diagnostics.member_m64_s", "s", "lower", "exact-sweep"),
    ("diagnostics.member_m128_s", "s", "lower", "exact-sweep"),
    ("diagnostics.member_m256_s", "s", "lower", "exact-sweep"),
    ("diagnostics.self_contractions_per_member", "count", "lower", "exact-sweep"),
    ("diagnostics.moment4.self_s", "s", "lower", "exact-sweep"),
    ("diagnostics.stein_residual_l2.self_s", "s", "lower", "exact-sweep"),
    ("diagnostics.prop24_gap.self_s", "s", "lower", "exact-sweep"),
    ("diagnostics.mc_twins_s", "s", "lower", "sampling"),
    ("diagnostics.mc.sample_redraws_per_member", "count", "lower", "sampling"),
    ("targets.quad.calls", "count", "lower", "target-analysis"),
    ("targets.quad.integrand_evals", "count", "lower", "target-analysis"),
    ("targets.quad.warnings", "count", "lower", "target-analysis"),
    ("targets.stein_poly_s", "s", "lower", "target-analysis"),
    ("targets.stein_nonpoly_s", "s", "lower", "target-analysis"),
    ("targets.stein_identity.self_s", "s", "lower", "target-analysis"),
    ("targets.custom.build_s", "s", "lower", "target-analysis"),
    ("targets.custom.coeff_evals", "count", "lower", "target-analysis"),
    ("targets.custom.coeff_s", "s", "lower", "target-analysis"),
    ("targets.custom.stein_s", "s", "lower", "target-analysis"),
    ("simulate.poly.steps", "count", "higher", "sampling"),
    ("simulate.poly.steps_per_s", "1/s", "higher", "sampling"),
    ("simulate.empirical_s", "s", "lower", "sampling"),
    ("simulate.dictionary_false_rejects", "count", "lower", "sampling"),
    ("simulate.numeric.steps", "count", "higher", "target-analysis"),
    ("simulate.numeric.steps_per_s", "1/s", "higher", "target-analysis"),
    ("cli.diagnose_s", "s", "lower", "exact-sweep"),
    ("cli.stein_check_s", "s", "lower", "target-analysis"),
    ("cli.simulate_s", "s", "lower", "sampling"),
    ("cli.classify_s", "s", "lower", "target-analysis"),
    ("io.dumps_struct.self_s", "s", "lower", "all"),
    ("io.out_bytes", "count", "lower", "all"),
    ("trace.overhead_s", "s", "lower", "all"),
]

CLT_SWEEP_QID = "clt_sweep"
MC_FUNCS = ("diagnostics.stein_residual_l2_mc", "diagnostics.prop24_gap_mc",
            "diagnostics.stein_discrepancy_l1_mc")
EMPIRICAL = ("simulate.ks_distance", "simulate.wasserstein1_distance",
             "simulate.stein_dictionary_test")
CLI_COMMANDS = {"diagnose": "cli.diagnose_s", "stein-check": "cli.stein_check_s",
                "simulate": "cli.simulate_s", "classify": "cli.classify_s"}


def _ancestor(spans, i, name):
    """Index of the nearest ancestor of span i called ``name``, or None."""
    p = spans[i].parent
    while p is not None and spans[p].name != name:
        p = spans[p].parent
    return p


def member_times(spans):
    """[(qid, m, seconds)] for each family member of each
    ``run_family_diagnostics`` call: from the member's construction to the
    next member's construction, or to the end of the call."""
    starts = defaultdict(list)
    for s in spans:
        if s.name == "diagnostics.family_member" and s.parent is not None \
                and spans[s.parent].name == "diagnostics.run_family_diagnostics":
            starts[s.parent].append(s)
    out = []
    for parent, members in starts.items():
        members.sort(key=lambda s: s.start)
        ends = [s.start for s in members[1:]] + [spans[parent].end]
        out += [(s.qid, s.attrs["m"], end - s.start) for s, end in zip(members, ends)]
    return out


def layer_metrics(spans, counters, outcomes, quad_warnings):
    """Every per-layer metric except ``trace.overhead_s``, for one pass.

    ``outcomes`` is the pass's list of (qid, answer) pairs.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    for s, st in zip(spans, selfs):
        self_s[s.name] += st
        total_s[s.name] += s.duration()
        calls[s.name] += 1

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    m = {}
    pairs = attr_sum("chaos.contract", "pairs")
    blocks = attr_sum("chaos.contract", "blocks")
    m["chaos.contract.calls"] = calls["chaos.contract"]
    m["chaos.contract.pairs_offered"] = pairs
    m["chaos.contract.blocks_out"] = blocks
    m["chaos.contract.useful_ratio"] = blocks / pairs if pairs else 0.0
    for fn in ("contract", "symmetrized", "chaos_product", "malliavin_inner",
               "wick_moment", "eval_multiple_integral", "sample_gaussian"):
        m[f"chaos.{fn}.self_s"] = self_s[f"chaos.{fn}"]
    m["chaos.eval_multiple_integral.calls"] = calls["chaos.eval_multiple_integral"]
    m["chaos.eval_multiple_integral.point_terms"] = attr_sum(
        "chaos.eval_multiple_integral", "point_terms")
    m["chaos.sample_gaussian.draws"] = attr_sum("chaos.sample_gaussian", "draws")

    members = member_times(spans)
    for size in (64, 128, 256):
        m[f"diagnostics.member_m{size}_s"] = sum(
            (t for qid, mm, t in members if qid == CLT_SWEEP_QID and mm == size), 0.0)
    rfd = "diagnostics.run_family_diagnostics"
    self_contractions = sum(
        1 for i, s in enumerate(spans)
        if s.name == "chaos.contract" and s.attrs and s.attrs["self"]
        and _ancestor(spans, i, rfd) is not None)
    m["diagnostics.self_contractions_per_member"] = (
        self_contractions / len(members) if members else 0.0)
    for fn in ("moment4", "stein_residual_l2", "prop24_gap"):
        m[f"diagnostics.{fn}.self_s"] = self_s[f"diagnostics.{fn}"]
    m["diagnostics.mc_twins_s"] = sum(total_s[name] for name in MC_FUNCS)
    mc_members = sum(1 for s in spans if s.name == MC_FUNCS[0])
    redraws = sum(1 for i, s in enumerate(spans) if s.name == "chaos.sample_gaussian"
                  and any(_ancestor(spans, i, name) is not None for name in MC_FUNCS))
    m["diagnostics.mc.sample_redraws_per_member"] = (
        redraws / mc_members if mc_members else 0.0)

    m["targets.quad.calls"] = counters["targets.quad.calls"]
    m["targets.quad.integrand_evals"] = counters["targets.quad.integrand_evals"]
    m["targets.quad.warnings"] = quad_warnings
    stein = [s for s in spans if s.name == "targets.stein_solution_residual"
             and s.qid and s.qid.startswith("stein/")]
    m["targets.stein_poly_s"] = sum(
        (s.duration() for s in stein if not s.qid.endswith("/sin")), 0.0)
    m["targets.stein_nonpoly_s"] = sum(
        (s.duration() for s in stein if s.qid.endswith("/sin")), 0.0)
    m["targets.stein_identity.self_s"] = self_s["targets.stein_identity_residual"]
    m["targets.custom.build_s"] = total_s["targets.target_from_density_grid"]
    m["targets.custom.coeff_evals"] = counters["targets.numeric_coeff.points"]
    questions = {s.attrs["qid"]: s.duration() for s in spans if s.name == "question"}
    m["targets.custom.coeff_s"] = questions.get("custom/coeff", 0.0)
    m["targets.custom.stein_s"] = questions.get("custom/stein", 0.0)

    for kind, label in (("polynomial", "poly"), ("numeric", "numeric")):
        runs = [s for s in spans if s.name == "simulate.simulate" and s.attrs
                and s.attrs["kind"] == kind]
        steps = sum(s.attrs["steps"] for s in runs)
        seconds = sum(s.duration() for s in runs)
        m[f"simulate.{label}.steps"] = steps
        m[f"simulate.{label}.steps_per_s"] = steps / seconds if seconds else 0.0
    m["simulate.empirical_s"] = sum(
        (s.duration() for s in spans if s.name in EMPIRICAL
         and (s.parent is None or spans[s.parent].name not in EMPIRICAL)), 0.0)
    m["simulate.dictionary_false_rejects"] = sum(
        "dictionary_accepts_exact_target" in ans.failed for _, ans in outcomes)

    for metric in CLI_COMMANDS.values():
        m[metric] = 0.0
    for s in spans:
        if s.name == "cli.main" and s.attrs and s.attrs["command"] in CLI_COMMANDS:
            m[CLI_COMMANDS[s.attrs["command"]]] += s.duration()
    m["io.dumps_struct.self_s"] = self_s["io.dumps_struct"]
    m["io.out_bytes"] = sum(ans.out_bytes for _, ans in outcomes)
    return m
