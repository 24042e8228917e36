"""ncprob benchmark: one command, three workloads, exact-output checks.

    python3 perfbench/run.py --workload {transform-sweep,verify-grid,cold-cli}
                             --seed N --seconds S --trace {0,1}

A closed loop with one client: each op starts only after the previous one
ends, and at most one op or child process runs at a time.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it runs the same schedule half
untraced and half under span tracing and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import shutil
import statistics
import sys
from time import perf_counter

import harness
import workloads

# Set-up runs at least SETUP_MIN_REPS times, and more while the reps take
# under SETUP_MIN_S in all; setup_s is their median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 15, 1.0
END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "ok_ratio",
              "peak_rss_mib", "max_degree_k2")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(name: str, seed: int, cycles: int, children, tracer=None):
    """Import the package afresh and build the workload's schedule."""
    fn, _ = workloads.WORKLOADS[name]
    P = workloads.import_ncprob()
    if tracer is not None:
        tracer.install()
    if name == "cold-cli":
        return fn(P, seed, cycles, children)
    return fn(P, seed, cycles)


def run_ops(ops, log: harness.OpLog, traced: bool, tracer=None) -> list[float]:
    """Run ops one after another, with a reference sample before each op and
    one after the last; return the ops' latencies in reference seconds."""
    refs, latencies = [], []
    for op in ops:
        refs.append(harness.time_reference())
        if tracer is not None:
            tracer.begin_op()
            tracer.phase = "op"
        latency, out, error = op.run(traced)
        if tracer is not None:
            tracer.phase = "check"
        log.record(op.key, latency, None if error else op.digest(out), error)
        latencies.append(latency)
    refs.append(harness.time_reference())
    return harness.normalize(latencies, refs)


def fractions_share(state) -> float:
    """Share of profiled time spent inside the fractions module, over one
    profiled op per shape.  Indicative: the profiler inflates call costs."""
    prof = cProfile.Profile()
    for call in state.profile:
        prof.runcall(call)
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    inside = sum(v[2] for k, v in stats.items() if k[0].endswith("fractions.py"))
    return inside / total if total else 0.0


def census(P, tracer, children) -> None:
    """One small call to each timed public function, and one CLI child, so
    that every per-layer metric is measured on every workload."""
    tracer.phase = "census"
    fam = lambda seed, kind="moment": P.random_family(1, 3, seed=seed, kind=kind)  # noqa: E731
    for name in workloads.TRANSFORMS:
        getattr(P, name)(*workloads.make_inputs(P, name, 1, 3, 7))
    mu1, mu2 = P.random_tracial(1, 3, seed=1), P.random_tracial(1, 3, seed=2)
    nu1, nu2 = fam(3), fam(4)
    P.free_product(mu1, mu2)
    P.boxplus(mu1, mu2)
    P.cfree_product(mu1, nu1, mu2, nu2)
    P.boxplus_c(mu1, nu1, mu2, nu2)
    p1, p2 = fam(5, "infinitesimal"), fam(6, "infinitesimal")
    P.infinitesimal_product(mu1, p1, mu2, p2)
    P.boxplus_b(mu1, p1, mu2, p2)
    P.MultilinearFamily.from_json_dict(nu1.to_json_dict())
    sigma = P.enumerate_signed(3, P.Flavor.B_OPP)[5]
    P.from_pair(*P.to_pair(sigma))
    P.abs_partition(sigma)
    for target in workloads.TARGETS:
        P.selftest.verify_report(target, 0, 1, 2)
    _, _, error = children.op("census", ["nc", "kreweras", "--partition", "{1,3}{2}"]).run(True)
    if error:
        raise RuntimeError(f"census CLI child failed: {error}")


def end_to_end(args, cycles: int, children) -> tuple[dict, list, list]:
    expected = harness.load_digests()
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
        state = None
        gc.collect()
        before = harness.time_reference()
        t0 = perf_counter()
        state = setup(args.workload, args.seed, cycles, children)
        elapsed = perf_counter() - t0
        setup_times += harness.normalize([elapsed], [before, harness.time_reference()])
    ops = [op for cycle in state.cycles for op in cycle]
    log = harness.OpLog(expected.get(args.workload, {}))
    latencies = run_ops(ops, log, traced=False)
    rss = harness.peak_rss_mib(children=state.children)  # before the probe's tables
    probe = harness.OpLog(expected.get("probe", {}))
    degree = workloads.max_degree_k2(state.P, probe)
    tail, pct, n = harness.tail_latency(latencies)
    attempted = log.attempted + probe.attempted
    failed = log.failed + probe.failed
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mib": (rss, "MiB"),
        "max_degree_k2": (degree, "N"),
    }
    assert tuple(metrics) == END_TO_END
    notes = [
        f"setup reps in reference seconds {' '.join(f'{t:.4f}' for t in setup_times)}",
        f"op_tail_s is p{pct:.1f} of {n} ops",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted}; "
        f"{log.mismatched + probe.mismatched} digest mismatches, "
        f"{log.unchecked + probe.unchecked} unchecked)",
        f"repeat_share {workloads.repeat_share(state):.4f}",
        f"cycles {cycles}; in wall seconds: op_p50 "
        f"{statistics.median(log.latencies):.4f}, op_tail "
        f"{harness.tail_latency(log.latencies)[0]:.4f}, ops/s "
        f"{len(ops) / sum(log.latencies):.4f}",
    ] + log.errors + probe.errors
    return metrics, notes, [attempted, failed]


def traced(args, cycles: int, children) -> tuple[dict, list, list]:
    import tracer as tracing

    expected = harness.load_digests().get(args.workload, {})
    tr = tracing.Tracer()
    state = setup(args.workload, args.seed, cycles, children, tracer=tr)
    tr.uninstall()
    split = len(state.cycles) // 2
    plain = [op for cycle in state.cycles[:split] for op in cycle]
    spanned = [op for cycle in state.cycles[split:] for op in cycle]
    log = harness.OpLog(expected)
    time_plain = sum(run_ops(plain, log, traced=False))
    tr.install()
    time_spanned = sum(run_ops(spanned, log, traced=True, tracer=tr))
    census(state.P, tr, children)
    tr.uninstall()
    share = fractions_share(state)
    raw = tr.summary()
    tracing.merge(raw, children.raw)
    raw.update({
        "fractions.share": share,
        "workload.repeat_share": workloads.repeat_share(state),
        "trace.ops_untraced": len(plain), "trace.time_untraced": time_plain,
        "trace.ops_traced": len(spanned), "trace.time_traced": time_spanned,
    })
    metrics = tracing.per_layer(raw)
    notes = [f"spans recorded {len(tr.spans)} in-process, "
             f"{raw.get('cli.children', 0)} traced CLI children",
             "tracing overhead: "
             f"{metrics['trace.ops_per_s_untraced'][0]:.3f} ops/s untraced vs "
             f"{metrics['trace.ops_per_s_traced'][0]:.3f} ops/s traced"] + log.errors
    return metrics, notes, [log.attempted, log.failed]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC_DIR, "ncprob", "__init__.py")):
        harness.die(f"no ncprob package under {harness.SRC_DIR}")
    if args.seconds < 1:
        harness.die("--seconds must be at least 1")
    shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    os.makedirs(harness.WORK_DIR)
    _, cycle_s = workloads.WORKLOADS[args.workload]
    cycles = max(2, round(args.seconds / cycle_s))
    print("header", json.dumps(harness.run_header("start"), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} cycles {cycles} trace {args.trace}")
    children = workloads.ChildRuns()
    try:
        run = traced if args.trace else end_to_end
        metrics, notes, (attempted, failed) = run(args, cycles, children)
    finally:
        shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    for line in notes:
        print("note", line)
    for name, (value, unit) in metrics.items():
        if not harness.valid_metric_name(name):
            harness.die(f"invalid metric name {name!r}")
        print(f"metric {name} {value:.6g} {unit}")
    print("header", json.dumps(harness.run_header("end"), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
