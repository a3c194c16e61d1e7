#!/usr/bin/env python3
"""Benchmark of cycloperiods: three seeded workloads, one JSON line of results.

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics; with
`--trace 1` it installs span tracing (bench/tracing.py) and reports the
per-layer metrics instead.  Every operation's output is checked; the
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads, the metrics and how they relate.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
SHOW_PROBLEMS = 5

# seconds the two speed kernels take on the reference machine when it is
# quiet (Python 3.11.7, Xeon vCPU at 2.1 GHz nominal); times are reported
# at this speed, see timed_round
SMALL_REF_S = 0.0020
BIG_REF_S = 0.0029

CHECK_IDS = ("lattice-type", "cycle-basis", "cover-table", "split-product",
             "riemann-symbolic", "riemann-positive", "deck-twist", "module-form",
             "form-diagonal", "ball-point", "special-fiber", "module-endo",
             "display-audit")

# what one operation and one round are, per workload, for the printout
OPERATION = {
    "verify-suite": ("verify_s", "one full 13-check verify --json"),
    "family-points": ("point_s", "one parameter point (emit + riemann-check)"),
    "lattice-tools": ("tool_call_s", "one tools snf / symplectic-basis / covers call"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-suite", "family-points", "lattice-tools"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import cycloperiods from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cycloperiods", "__init__.py")):
        raise SystemExit(f"error: no cycloperiods sources under {SRC}; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)
    import cycloperiods
    if not os.path.abspath(cycloperiods.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: cycloperiods came from {cycloperiods.__file__}")
    import workloads
    return workloads


def probe_setup(workload):
    """Seconds from starting a fresh interpreter to the workload's first operation.

    Returns (seconds, seconds at the reference speed).
    """
    before = [kernel_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--workload", workload, "--setup-probe"],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return seconds, seconds * reference_factor(before)


def _small_kernel():
    """Fraction arithmetic on small numbers, interpreter-bound, ~2 ms."""
    acc = Fraction(1, 3)
    for i in range(1, 400):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
    return acc


_rng = random.Random("cycloperiods-bench/speed")
_BIG = [Fraction(_rng.getrandbits(900) | 1, _rng.getrandbits(900) | 1)
        for _ in range(20)]


def _big_kernel():
    """Fraction arithmetic growing to 18,000-bit numbers, ~3 ms."""
    acc = Fraction(1)
    for x in _BIG:
        acc = acc * x + x
    return acc


KERNELS = ((_small_kernel, SMALL_REF_S), (_big_kernel, BIG_REF_S))


def kernel_seconds():
    """One timing of each speed kernel."""
    out = []
    for kernel, _ in KERNELS:
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def timed_round(wl, r):
    """Run round r: (ops, factor that puts their times at the reference speed).

    On a shared virtual machine the CPU's speed drifts by up to 1.7x
    over seconds to minutes.  The speed kernels run 3 times before the
    round, once after every operation and twice after the round; a time
    measured in the round, multiplied by reference_factor, is what it
    takes at the reference speed.
    """
    kernel = [kernel_seconds() for _ in range(3)]
    ops = []
    for op in wl.run_round(r):
        ops.append(op)
        kernel.append(kernel_seconds())
    return ops, reference_factor(kernel, after=2)


def reference_factor(before, after=3):
    """Geometric mean over the kernels of reference / median time.

    The median is over the timings in `before` and `after` more.  The
    program's work slows less than the small kernel and more than the big
    one when the machine is busy; their geometric mean tracks it best.
    """
    samples = before + [kernel_seconds() for _ in range(after)]
    factor = 1.0
    for k, (_, ref) in enumerate(KERNELS):
        factor *= ref / statistics.median(s[k] for s in samples)
    return factor ** (1 / len(KERNELS))


def load_oracle():
    import inputs
    import oracle
    oracle.self_check(inputs.ZETA_POWERS)
    return oracle


class Tally:
    """Attempted and failed operations, and whether any output was wrong."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.shown = 0

    def add(self, ops, deep):
        for op in ops:
            self.attempted += 1
            if op.error is not None:
                problems = [f"raised {op.error}"]
            else:
                problems = self.wl.check(op, deep)
                self.wrong += bool(problems)
            if problems:
                self.failed += 1
                if self.shown < SHOW_PROBLEMS:
                    self.shown += 1
                    print(f"FAILED {op.label}: {'; '.join(problems)[:400]}",
                          file=sys.stderr)


def run_rounds(wl, seconds, tally, oracle_box, on_round0=None, tracer=None):
    """Whole rounds until `seconds` of wall time have passed.

    Returns [(ops, speed factor)], where multiplying a time of the round
    by the factor gives it at the reference speed.
    """
    rounds = []
    start = time.perf_counter()
    r = 0
    while True:
        if tracer is not None:
            tracer.phase(f"round{r}", hooks=(r == 0))
        ops, factor = timed_round(wl, r)
        if tracer is not None:
            tracer.phase("check", hooks=False)
        if r == 0 and on_round0 is not None:
            on_round0()
        if not oracle_box:
            oracle_box.append(load_oracle())
            tally.wl.prepare(oracle_box[0])
        tally.add(ops, deep=(r == 0))
        rounds.append((ops, factor))
        r += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def untraced(args, workloads):
    setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    tally = Tally(wl)
    rss = []
    rounds = run_rounds(wl, args.seconds, tally, [],
                        on_round0=lambda: rss.append(
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    med = statistics.median
    op_wall = [op.seconds for ops, _ in rounds for op in ops]
    op_ref = [op.seconds * f for ops, f in rounds for op in ops]
    round_wall = [sum(op.seconds for op in ops) for ops, _ in rounds]
    round_ref = [w * f for w, (_, f) in zip(round_wall, rounds)]
    metrics = {
        "setup_s": (med(ref for _, ref in setup), "s"),
        "peak_rss_mb": (rss[0], "MB"),
        "op_s": (med(op_ref), "s"),
        "round_s": (med(round_ref), "s"),
    }
    alias, what = OPERATION[args.workload]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed; "
          f"CPU speed {med(f for _, f in rounds):.3f} x reference")
    print("  metric      at reference speed (wall time as measured)")
    print(f"  setup_s     {metrics['setup_s'][0]:.4f} s ({med(w for w, _ in setup):.4f}) "
          f"median of {len(setup)} fresh interpreters up to the first operation")
    print(f"  peak_rss_mb {rss[0]:.1f} MB  after set-up and round 0, "
          "before the checks load the oracle")
    print(f"  op_s        {metrics['op_s'][0]:.4f} s ({med(op_wall):.4f}) "
          f"[{alias}] {what}; median of {len(op_ref)}")
    print(f"  round_s     {metrics['round_s'][0]:.4f} s ({med(round_wall):.4f}) "
          f"one round of {len(rounds[0][0])} operations; median of {len(round_ref)}")
    return tally, metrics


def traced(args, workloads):
    import tracing

    # round 0 untraced, as the reference for the overhead; timed on its
    # second pass, so that both sides find the program's caches warm
    ref = workloads.WORKLOADS[args.workload](args.seed)
    ref.setup()
    tally = Tally(ref)
    oracle_box = [load_oracle()]
    ref.prepare(oracle_box[0])
    for _ in range(2):
        ref_ops, factor = timed_round(ref, 0)
        tally.add(ref_ops, deep=True)
    untraced_round = sum(op.seconds for op in ref_ops) * factor

    tracer = tracing.Tracer(args.seed)
    tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    tracer.phase("setup", hooks=True)
    before = [kernel_seconds() for _ in range(3)]
    wl.setup()
    setup_factor = reference_factor(before)
    # checks go through the reference workload, which holds the oracle values
    wl.check = ref.check
    tally.wl = wl
    rounds = run_rounds(wl, args.seconds, tally, oracle_box, tracer=tracer)
    metrics = layer_metrics(tracer, rounds, setup_factor, untraced_round)

    os.makedirs(OUT, exist_ok=True)
    prefix = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    tracer.write(prefix, {"workload": args.workload, "seed": args.seed,
                          "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"{args.workload} seed {args.seed} traced: {len(rounds)} rounds, "
          f"{len(tracer.spans) // tracing.FIELDS} spans -> {prefix}.spans/.json")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    return tally, metrics


def layer_metrics(tracer, rounds, setup_factor, untraced_round):
    """Per-layer figures for one set-up plus one round.

    Counts (and the height statistics) are exact, from set-up plus round 0.
    Times are set-up plus the mean over all traced rounds, at the
    reference speed.
    """
    setup_tab, round_tabs = {}, []
    for label, tab in tracer.phase_tables():
        if label == "setup":
            setup_tab = tab
        elif label.startswith("round"):
            round_tabs.append(tab)

    def calls(name):
        return (setup_tab.get(name, (0,))[0] + round_tabs[0].get(name, (0,))[0])

    factors = [f for _, f in rounds]

    def total(field, pick):
        acc = setup_factor * sum(row[field] for n, row in setup_tab.items()
                                 if pick(n))
        acc += sum(f * sum(row[field] for n, row in tab.items() if pick(n))
                   for f, tab in zip(factors, round_tabs)) / len(round_tabs)
        return acc / 1e9

    def incl(name):
        return total(1, lambda n: n == name)

    def self_s(layer):
        return total(2, lambda n: n.split(".")[0] == layer)

    before = [kernel_seconds() for _ in range(3)]
    replay = {kind: tracer.replay_us(kind) for kind in ("mul", "add", "inverse", "embed")}
    replay_factor = reference_factor(before)
    mul_calls = calls("exactfield.mul")
    m = {
        "exactfield.mul_calls": (mul_calls, "count"),
        "exactfield.add_calls": (calls("exactfield.add") + calls("exactfield.sub"), "count"),
        "exactfield.inverse_calls": (calls("exactfield.inverse"), "count"),
        "exactfield.embed_calls": (calls("exactfield.embed"), "count"),
        "exactfield.real_sign_calls": (calls("exactfield.real_sign"), "count"),
        "exactfield.self_s": (self_s("exactfield"), "s"),
        "exactfield.max_height_bits": (tracer.stats["max_height_bits"], "bits"),
        "exactfield.mul_rational_share": (
            tracer.stats["mul_rational"] / mul_calls if mul_calls else 0.0, "ratio"),
        "exactfield.mul_us": (replay["mul"] * replay_factor, "us"),
        "exactfield.add_us": (replay["add"] * replay_factor, "us"),
        "exactfield.inverse_us": (replay["inverse"] * replay_factor, "us"),
        "exactfield.embed_us": (replay["embed"] * replay_factor, "us"),
        "balls.ball_det_calls": (calls("balls.ball_det"), "count"),
        "balls.ball_det_s": (incl("balls.ball_det"), "s"),
        "balls.mul_calls": (calls("balls.mul"), "count"),
        "balls.decimal_s": (incl("balls.decimal"), "s"),
        "balls.self_s": (self_s("balls"), "s"),
        "intlat.smith_normal_form_calls": (calls("intlat.smith_normal_form"), "count"),
        "intlat.smith_normal_form_s": (incl("intlat.smith_normal_form"), "s"),
        "intlat.symplectic_basis_s": (incl("intlat.symplectic_basis"), "s"),
        "intlat.exact_det_inv_calls": (calls("intlat.exact_det_inv"), "count"),
        "intlat.exact_det_inv_s": (incl("intlat.exact_det_inv"), "s"),
        "intlat.snf_max_entry_bits": (tracer.stats["snf_max_entry_bits"], "bits"),
        "intlat.self_s": (self_s("intlat"), "s"),
        "covers.verify_homology_model_s": (incl("covers.verify_homology_model"), "s"),
        "covers.table_s": (incl("covers.table"), "s"),
        "covers.self_s": (self_s("covers"), "s"),
        "periods.first_relation_calls": (calls("periods.riemann_first_relation"), "count"),
        "periods.first_relation_s": (incl("periods.riemann_first_relation"), "s"),
        "periods.intertwines_calls": (calls("periods.intertwines"), "count"),
        "periods.intertwines_s": (incl("periods.intertwines"), "s"),
        "periods.evaluate_s": (incl("periods.evaluate"), "s"),
        "periods.positivity_gram_s": (incl("periods.positivity_gram"), "s"),
        "periods.riemann_positivity_s": (incl("periods.riemann_positivity"), "s"),
        "periods.self_s": (self_s("periods"), "s"),
        "pel.resolve_conventions_s": (incl("pel.resolve_conventions"), "s"),
        "pel.match_solver_calls": (calls("pel.match_solver"), "count"),
        "pel.match_solver_s": (incl("pel.match_solver"), "s"),
        "pel.diagonalize_W_s": (incl("pel.diagonalize_W"), "s"),
        "pel.signature_s": (incl("pel.signature"), "s"),
        "pel.integrality_check_s": (incl("pel.integrality_check"), "s"),
        "pel.prym_family_s": (incl("pel.prym_family"), "s"),
        "pel.self_s": (self_s("pel"), "s"),
        "stcurve.genus4_family_s": (incl("stcurve.genus4_family"), "s"),
        "stcurve.genus4_period_matrix_calls": (calls("stcurve.genus4_period_matrix"), "count"),
        "stcurve.self_s": (self_s("stcurve"), "s"),
    }
    for cid in CHECK_IDS:
        m[f"suite.check.{cid}_s"] = (incl(f"suite.check.{cid}"), "s")
    m["suite.pipeline_s"] = (incl("suite.pipeline"), "s")
    m["suite.self_s"] = (self_s("suite"), "s")
    m["cli.parse_tower_calls"] = (calls("cli.parse_tower"), "count")
    m["cli.parse_tower_s"] = (incl("cli.parse_tower"), "s")
    m["cli.render_s"] = (incl("cli.render"), "s")
    m["cli.self_s"] = (self_s("cli"), "s")
    traced_round = sum(op.seconds for op in rounds[0][0]) * factors[0]
    m["trace.untraced_round_s"] = (untraced_round, "s")
    m["trace.traced_round_s"] = (traced_round, "s")
    m["trace.overhead_share"] = (traced_round / untraced_round - 1, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed).setup()
        print("ready", flush=True)
        return 0
    run = traced if args.trace else untraced
    tally, metrics = run(args, workloads)
    result = {"correct": tally.wrong == 0,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
