"""Run one workload of the chaoslimits benchmark and print its metrics.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

The workload's fixed list of questions is asked again and again by one
caller (a closed loop) until ``--seconds`` is used up, with at least three
passes.  With ``--trace 0`` the last line of stdout is a JSON object holding
the end-to-end metrics: ``wall_s``, the time of one pass built from each
question's median time (see ``paced_pass_s``), the median set-up time
``setup_s`` of fresh processes, and ``peak_rss_mb``.  Both times are read
at the host's nominal pace (``pace.py``).  With ``--trace 1``
untraced and traced passes alternate, and the JSON holds the per-layer
metrics of ``layers.PER_LAYER``; spans go to ``.bench_out/``.

Exit status is 0 when a result was printed, 2 when the checkout has no
``src/chaoslimits`` or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("exact-sweep", "target-analysis", "sampling")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: time imports plus input generation, print it")
    return p.parse_args(argv)


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def probe_setup(workload, seed):
    """Seconds to import numpy, scipy and chaoslimits and build the inputs,
    and the mean pace read just before (pure-Python loops only, as numpy is
    not loaded yet) and just after, in this same process; each reading is
    the median of three."""
    import pace
    before = statistics.median(pace.pace(pace.PYTHON_LOOPS) for _ in range(3))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import chaoslimits  # noqa: F401
    import workloads
    workloads.WORKLOADS[workload][0](seed)
    seconds = time.perf_counter() - t0
    return seconds, (before + statistics.median(pace.pace() for _ in range(3))) / 2.0


def measure_setup(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes at nominal pace, and
    their paces, after one discarded warm-up process that fills the bytecode
    and file caches."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times, paces = [], []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        seconds, pace = (float(x) for x in done.stdout.split()[-2:])
        times.append(seconds / pace)
        paces.append(pace)
    return times[1:], paces[1:]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "chaoslimits").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class PassResult:
    wall_s: float  # raw seconds, the pace readings left out
    question_s: list  # seconds per question at nominal pace, in question order
    paces: list  # pace read before each question and after the last
    outcomes: list  # (qid, workloads.Answer) per question
    digest: str
    quad_warnings: int
    tracer: object = None


def run_pass(questions, inputs, tracer=None):
    """Ask every question once; checks and the answer digest are timed too.

    The pace is read between questions, outside their timing, and each
    question's time is divided by the mean of the readings on either side.
    """
    import pace
    from scipy.integrate import IntegrationWarning
    from workloads import Answer

    ctx = {"inputs": inputs}
    outcomes = []
    raw_s = []
    paces = [pace.pace()]
    h = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for q in questions:
            tq = time.perf_counter()
            with tracer.question(q.qid) if tracer else nullcontext():
                try:
                    ans = q.ask(ctx)
                except Exception as exc:  # one failed operation; keep going
                    ans = Answer(f"raised {type(exc).__name__}".encode(),
                                 [f"raised {type(exc).__name__}: {exc}"])
            h.update(q.qid.encode() + b"\0" + ans.payload + b"\0")
            raw_s.append(time.perf_counter() - tq)
            outcomes.append((q.qid, ans))
            paces.append(pace.pace())
    quad_warnings = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    question_s = [t * 2.0 / (before + after)
                  for t, before, after in zip(raw_s, paces, paces[1:])]
    return PassResult(sum(raw_s), question_s, paces, outcomes, h.hexdigest(),
                      quad_warnings, tracer)


def paced_pass_s(passes):
    """Sum over questions of each question's median paced time across passes."""
    return sum(statistics.median(times)
               for times in zip(*(p.question_s for p in passes)))


def check_digest_store(workload, seed, digest):
    """Compare with the digest an earlier run of the same sources recorded
    for this workload and seed; record it if there is none.  True if equal."""
    key = f"{workload}/seed{seed}/src-{source_digest()[:16]}"
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    if key in store:
        return store[key] == digest
    store[key] = digest
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def machine_facts(nproc):
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower()} {size}")
    caps = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return f"nproc={nproc} caches=[{', '.join(caches)}] threads: {caps}"


def _spread(values):
    return (f"median {statistics.median(values):.4f} of {len(values)}: "
            + " ".join(f"{v:.3f}" for v in values))


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.3f}, quartiles {q1:.3f}-{q3:.3f} of {len(values)}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chaoslimits" / "__init__.py").is_file():
        print(f"error: no chaoslimits package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(*map(repr, probe_setup(args.workload, args.seed)))
        return 0

    setup, setup_paces = ([], []) if args.trace else measure_setup(args.workload,
                                                                   args.seed)
    import chaoslimits
    import workloads
    if Path(chaoslimits.__file__).resolve().parent != (SRC / "chaoslimits").resolve():
        print(f"error: imported chaoslimits from {chaoslimits.__file__}",
              file=sys.stderr)
        return 2

    make_inputs, make_questions = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    questions = make_questions(inputs)
    print(f"# chaoslimits benchmark: workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}; closed loop, one caller")
    print(f"# machine: {machine_facts(nproc)}")
    print(f"# sizes: {json.dumps(workloads.SIZES[args.workload])}")

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(questions, inputs))
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            with tracing.instrument(tracer, chaoslimits):
                traced.append(run_pass(questions, inputs, tracer))
        elapsed = time.perf_counter() - start
        step = elapsed / len(plain)
        if (len(plain) >= (1 if args.trace else MIN_PASSES)
                and elapsed + step > args.seconds):
            break

    passes = plain + traced
    # Every pass must give the same answers (the digests below), so one
    # pass's questions are the operations; repeats only time them again.
    attempted = len(plain[0].outcomes)
    failed = sum(bool(ans.failed) for _, ans in plain[0].outcomes)
    unexpected = sorted({f"{qid}: {check}" for p in passes for qid, ans in p.outcomes
                         for check in ans.failed
                         if check not in workloads.KNOWN_DEFECTS})
    known = sorted({f"{qid}: {check}" for p in passes for qid, ans in p.outcomes
                    for check in ans.failed if check in workloads.KNOWN_DEFECTS})
    digests = {p.digest for p in passes}
    repeat_ok = len(digests) == 1
    stored_ok = repeat_ok and check_digest_store(args.workload, args.seed,
                                                 plain[0].digest)
    correct = not unexpected and repeat_ok and stored_ok

    print(f"answer_digest sha256:{plain[0].digest}"
          f" (passes agree: {repeat_ok}; earlier runs agree: {stored_ok})")
    print(f"failed_frac {failed / attempted:.6f} ratio"
          f" ({failed} of {attempted} operations, each repeated in"
          f" {len(passes)} passes)")
    for line in known:
        print(f"known defect: {line}")
    for line in unexpected:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"targets.quad.warnings {plain[0].quad_warnings} count per pass"
          " (captured, not printed)")

    walls = [p.wall_s for p in plain]
    plain_paces = [x for p in plain for x in p.paces]
    if not args.trace:
        metrics = {
            "wall_s": (paced_pass_s(plain), "s",
                       f"sum of each question's median of {len(plain)} passes at"
                       f" nominal pace; raw passes took {_spread(walls)};"
                       f" pace {_quartiles(plain_paces)}"),
            "setup_s": (statistics.median(setup), "s",
                        f"at nominal pace, {_spread(setup)}; pace"
                        f" {_spread(setup_paces)}"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "peak resident set of this process"),
        }
    else:
        import layers
        per_pass = [layers.layer_metrics(p.tracer.spans, p.tracer.counters,
                                         p.outcomes, p.quad_warnings) for p in traced]
        traced_walls = [p.wall_s for p in traced]
        overhead = paced_pass_s(traced) - paced_pass_s(plain)
        metrics = {}
        for name, unit, _, moves in layers.PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(m[name] for m in per_pass)
            metrics[name] = (value, unit, f"should move {layers.E2E} on {moves}")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [[s.to_dict() for s in p.tracer.spans] for p in traced]))
        print(f"# spans of {len(traced)} traced passes written to"
              f" {spans_path.relative_to(ROOT)}; untraced wall_s"
              f" {_spread(walls)}, traced {_spread(traced_walls)}")

    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value!r} {unit} ({note})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
