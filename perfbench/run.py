"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay-gc --seed 6 --seconds 20 --trace 0

A run repeats one episode until ``--seconds`` have passed, at least
``MIN_REPS`` times: set the workload up on a new device (``setup_s`` is
the median of these set-up times), run the timed phase, check its
outputs.  Every episode's simulated-time results must equal the first
one's.  Each episode builds its own device rather than restoring a
copy: a pickled device does not simulate what the original would, as
pickling rebuilds sets of block numbers in another iteration order, and
GC victim selection follows that order.

Host times are in reference-scaled seconds (see ``clock.py``): a shared VM
runs the same code up to 1.8x slower from one second to the next, and
scaling by a reference loop timed between short segments of the work
removes most of that.  Raw wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first episode untraced, then installs span wrappers (``spans.py``)
and reports per-layer counts and self times (``layers.py``) from the
traced episodes.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

MIN_REPS = 3

#: End-to-end metrics every run prints, name -> unit.  ``REPORTED`` is
#: the subset in the JSON line and ``BENCHMARK.json``: the others vary
#: too much from seed to seed to carry a regression bound, or are 0 or
#: constant on some workload (README.md).
END_TO_END = {
    "flash_ops_per_s": "1/s",
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "wall_host_ops_per_s": "1/s",
    "wall_setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_resp_p50_us": "us",
    "sim_resp_p99_us": "us",
    "write_amplification": "ratio",
    "retention_s": "s",
    "sim_iops": "1/s",
    "failed_frac": "ratio",
}
REPORTED = ("host_ops_per_s", "flash_ops_per_s", "setup_s", "peak_rss_mb",
            "write_amplification")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def episode(workload, watch, tracer=None):
    """Set up, then time and check one timed phase; returns a dict."""
    watch.start()
    ep = workload.setup(watch.tick)
    setup = watch.stop()
    ep.mark_start()
    watch.start()
    if tracer is not None:
        tracer.start()
    try:
        workload.timed(ep, watch.tick)
    finally:
        if tracer is not None:
            tracer.stop(excluded_s=watch.inner_ref_s)
    wall, scaled = watch.stop()
    result = {"setup": setup, "wall_s": wall, "timed_s": scaled,
              "sim": workload.sim_metrics(ep), "traced": tracer is not None}
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, ep, scaled / wall)
    result["attempted"], result["failures"] = workload.verify(ep)
    return result


def run(workload, seconds, trace):
    """Repeat episodes; returns (episodes, peak RSS in MB after the
    first episode, tracer)."""
    from clock import Stopwatch
    from spans import SpanTracer

    deadline = time.perf_counter() + seconds
    watch = Stopwatch()
    reps = []
    tracer = None
    try:
        while True:
            if trace and reps and tracer is None:
                tracer = SpanTracer()
                tracer.install()
            began = time.perf_counter()
            reps.append(episode(workload, watch, tracer))
            last = time.perf_counter() - began
            if len(reps) == 1:
                # Read at a fixed point of the work, not at the end: the
                # number of episodes depends on the machine's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(reps) >= MIN_REPS and time.perf_counter() + last > deadline:
                break
        if tracer is not None:
            os.makedirs(SPAN_DIR, exist_ok=True)
            tracer.write(os.path.join(
                SPAN_DIR, "spans-%s-seed%d.jsonl" % (workload.name, workload.seed)
            ))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return reps, peak_rss_mb, tracer


def summarize(reps, peak_rss_mb):
    """End-to-end metrics plus ``(attempted, failures)`` of a run."""
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    sims = [rep["sim"] for rep in reps]
    if any(sim != sims[0] for sim in sims):
        failures.append("simulated results differ between episodes: %r" % (sims,))
    sim = sims[0]
    # Traced episodes set up with the wrappers installed, so only the
    # untraced ones carry host times.
    plain = [rep for rep in reps if not rep["traced"]]
    timed = statistics.median(rep["timed_s"] for rep in plain)
    wall = statistics.median(rep["wall_s"] for rep in plain)
    metrics = {
        "host_ops_per_s": sim["requests"] / timed,
        "flash_ops_per_s": sim["flash_ops"] / timed,
        "setup_s": statistics.median(rep["setup"][1] for rep in plain),
        "wall_host_ops_per_s": sim["requests"] / wall,
        "wall_setup_s": statistics.median(rep["setup"][0] for rep in plain),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(failures) / max(1, attempted),
    }
    for name in ("sim_resp_p50_us", "sim_resp_p99_us", "write_amplification",
                 "retention_s", "sim_iops"):
        metrics[name] = sim[name]
    return metrics, attempted, failures


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    seed = cls.default_seed if args.seed is None else args.seed
    workload = cls(seed)
    reps, peak_rss_mb, tracer = run(workload, args.seconds, args.trace)
    metrics, attempted, failures = summarize(reps, peak_rss_mb)

    sim = reps[0]["sim"]
    print("workload %s  seed %d  episodes %d (%d traced)  requests %d each"
          % (workload.name, seed, len(reps), sum(r["traced"] for r in reps), sim["requests"]))
    print("  set-ups (wall): %s s" % " ".join("%.3f" % r["setup"][0] for r in reps))
    print("  timed phases (wall): %s s" % " ".join("%.3f" % r["wall_s"] for r in reps))
    for name, unit in END_TO_END.items():
        print("  %-36s %16.6g %s" % (name, metrics[name], unit))
    print("  (percentiles over n=%d requests)" % sim["requests"])
    for failure in failures[:20]:
        print("  FAILED: %s" % failure)
    if tracer is not None:
        from layers import summarize_layers

        layers = summarize_layers(reps)
        for name, (value, unit) in layers.items():
            print("  %-36s %16.6g %s" % (name, value, unit))
        if tracer.missing:
            print("  trace targets not found: %s" % ", ".join(tracer.missing))
        reported = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in REPORTED}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
