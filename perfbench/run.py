"""Run one workload of the dimalg benchmark and print its metrics.

    python3 perfbench/run.py --workload quantity --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times the library's
set-up, warms up, then runs a fixed amount of work and checks every
output against the reference answers in `inputs.py`.  The amount of work
is a whole number of rounds over the workload's operations, sized from
`--seconds` so that a round set takes about that long on a 2-vCPU
reference machine; the same `--seconds` gives the same work on every
commit, so two commits are always compared on identical inputs.  Times
are reported at the reference machine's usual speed (see hostspeed.py);
the summary lines also give them as measured.

With `--trace 0` the end-to-end metrics are printed, with `--trace 1`
the per-layer metrics of one traced round (see tracer.py).  The last
line of standard output is one JSON object.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import hostspeed
import inputs as I
from tracer import Tracer, import_profile
from workloads import SRC, WORKLOADS, child_env

SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 21, 1.5  # fresh set-ups timed per run
WORK = I.ROOT / ".perfbench_work"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one round at the smallest size (used by the self-tests)")
    return ap.parse_args(argv)


def required_files():
    return [SRC / "dimalg" / "__init__.py", SRC / "dimalg" / "cli.py", I.SI_DEMO,
            I.GOLDEN_STRUCTURE, I.CANONICAL_QP, I.CANONICAL_4GEN]


def measure_setup(wl, inputs):
    """(state, median set-up seconds at reference speed, as measured, number
    of set-ups timed): fresh set-ups until SETUP_MIN of them have taken
    SETUP_BUDGET_S, or SETUP_MAX were timed; one untimed pass first, which
    compiles and caches the bytecode."""
    wl.setup(inputs)
    measured, scaled = [], []
    while len(measured) < SETUP_MAX and (len(measured) < SETUP_MIN
                                         or sum(measured) < SETUP_BUDGET_S):
        state, dt, ref = hostspeed.scaled(lambda: wl.setup(inputs), child=not wl.in_process)
        measured.append(dt)
        scaled.append(ref)
        gc.collect()  # the modules of the set-up before, untimed
    return state, statistics.median(scaled), statistics.median(measured), len(measured)


class Tally:
    """Per-operation latencies at reference speed, per-round rates, and
    the failures.  An operation listed twice in a round is one operation
    with two latencies a round."""

    def __init__(self):
        self.latencies = []     # at reference speed
        self.measured = []      # as measured
        self.names = []
        self.per_op = {}
        self.round_s = {}
        self.failed = 0
        self.failures = []

    def run(self, ops, rounds, clock):
        """Run the rounds; return their wall time as measured.  `clock`
        (see hostspeed.py) scales each latency to the reference speed; the
        time of a reading taken during an operation is not the
        operation's."""
        rnd, idx = array("i"), array("i")
        start_s, end_s, lat_s = array("d"), array("d"), array("d")
        with clock:
            t0 = time.perf_counter()
            for r in range(rounds):
                for i, op in enumerate(ops):
                    paused, start = clock.paused, time.perf_counter()
                    try:
                        out, exc = op.call(), None
                    except Exception as e:  # an operation's failure is data, not a crash
                        out, exc = None, e
                    end = time.perf_counter()
                    rnd.append(r)
                    idx.append(i)
                    start_s.append(start)
                    end_s.append(end)
                    lat_s.append(end - start - (clock.paused - paused))
                    if not op.check(out, exc):
                        self.failed += 1
                        if len(self.failures) < 5:
                            self.failures.append(f"{op.name}: {exc!r}" if exc else f"{op.name}: {out!r:.300}")
                    clock.between()
            elapsed = time.perf_counter() - t0
        for r, i, start, end, lat in zip(rnd, idx, start_s, end_s, lat_s):
            scaled = lat * clock.factor(start, end)
            self.latencies.append(scaled)
            self.measured.append(lat)
            self.names.append(ops[i].name)
            self.per_op.setdefault(id(ops[i]), []).append(scaled)
            self.round_s[r] = self.round_s.get(r, 0.0) + scaled
        return elapsed

    @property
    def attempted(self):
        return len(self.latencies)

    def round_rates(self, ops_per_round):
        return [ops_per_round / s for s in self.round_s.values()]

    def by_operation(self):
        """{operation name: (count, median ms)} for the summary."""
        groups = {}
        for name, lat in zip(self.names, self.latencies):
            groups.setdefault(name, []).append(lat)
        return {k: (len(v), statistics.median(v) * 1000) for k, v in sorted(groups.items())}


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the maximum below eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def shuffled(ops, seed):
    """The round's operations in a seeded order, so that every kind of
    operation is spread over the whole timed phase rather than meeting
    one stretch of the host's speed."""
    random.Random(f"order:{seed}").shuffle(ops)
    return ops


def end_to_end(wl, args, inputs):
    state, setup_s, setup_measured, setups = measure_setup(wl, inputs)
    gc.freeze()  # keep the benchmark's inputs out of the library's collections
    rounds = 1 if args.tiny else max(1, round(args.seconds / wl.nominal_round_s))
    ops = shuffled(wl.ops(state, inputs), args.seed)
    warm = wl.warmup_ops(state, inputs)
    Tally().run(warm, 1 if args.tiny else wl.warmup_passes,
                hostspeed.SpeedClock(child=not wl.in_process))
    tally = Tally()
    elapsed = tally.run(ops, rounds, hostspeed.SpeedClock(child=not wl.in_process))
    # an operation's latency is its median over the rounds, so that the
    # percentiles rank inputs rather than the host's scheduling hiccups
    per_op = [statistics.median(v) for v in tally.per_op.values()]
    value, pct, beyond = tail(per_op)
    n = tally.attempted
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(tally.round_rates(len(ops))), "1/s"),
        "op_ms_p50": (statistics.median(per_op) * 1000, "ms"),
        "op_ms_tail": (value * 1000, "ms"),
        "correct_ratio": ((n - tally.failed) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children=wl.name == "cli"), "MB"),
    }
    notes = {
        "setup_s": f"median of {setups}; {setup_measured:.4g} s as measured",
        "ops_per_s": f"median over {rounds} rounds of {len(ops)} operations; "
                     f"{n} operations in {elapsed:.3f} s as measured",
        "op_ms_p50": f"{statistics.median(tally.measured) * 1000:.4g} ms as measured",
        "op_ms_tail": f"p{pct:.3f} of {len(per_op)} operations' medians, "
                      f"{beyond} beyond it",
        "correct_ratio": f"failed_ratio {tally.failed / n:.6f} = {tally.failed} failed / {n} attempted",
    }
    return tally, metrics, notes


def traced(wl, args, inputs, work):
    """One round untraced, then the same round traced."""
    state = wl.setup(inputs)
    gc.freeze()
    untraced = Tally()
    wall_u = untraced.run(shuffled(wl.ops(state, inputs), args.seed), 1, hostspeed.Unscaled())
    tracer = Tracer(work)
    if wl.name != "cli":
        tracer.install()
    tally = Tally()
    wall_t = tally.run(shuffled(wl.ops(state, inputs, tracer=tracer), args.seed), 1,
                       hostspeed.Unscaled())
    tracer.write_spans(work / "spans.bin")
    metrics = tracer.layer_metrics()
    metrics.update(import_profile(child_env()))
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.traced_wall_s"] = (wall_t, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    tally.latencies += untraced.latencies
    tally.failed += untraced.failed
    tally.failures += untraced.failures
    notes = {"trace.overhead_s": f"walls as measured; {len(tracer.span_start)} spans "
                                 f"in {work / 'spans.bin'}"}
    return tally, metrics, notes


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p) for p in required_files() if not p.is_file()]
    if missing:
        print(f"perfbench: not a dimalg checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{wl.name}:{args.seed}")
    inputs = wl.generate(rng, args.tiny, work)
    if args.trace:
        tally, metrics, notes = traced(wl, args, inputs, work)
    else:
        tally, metrics, notes = end_to_end(wl, args, inputs)
    if "dimalg" in sys.modules and not Path(sys.modules["dimalg"].__file__).is_relative_to(SRC):
        print(f"perfbench: dimalg was imported from outside {SRC}", file=sys.stderr)
        return 2

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:44s} {value:>14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
    if not args.trace:
        for name, (count, ms) in tally.by_operation().items():
            print(f"    {name:42s} {count:8d} x {ms:12.3f} ms median")
    for line in tally.failures:
        print(f"  failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
