"""Per-layer metrics of a traced episode, and their reduction over episodes.

Counts named ``*.calls`` from wrappers, ``sched.*`` counts and the
``metrics_snapshot()`` deltas are exact and repeat for a seed; the
``*.self_s`` figures are host seconds of self time in the timed phase.
"""

import statistics

from spans import DAEMON_STEPS, ROOT

LAYERS = ("flash", "ftl", "timessd", "nvme", "sched", "timekits", "obs")

#: Per-layer metric -> unit; ``summarize_layers`` keeps this order.
UNITS = {}
for _layer in LAYERS:
    UNITS[_layer + ".self_s"] = "s"
UNITS.update({
    "flash.program.calls": "count",
    "flash.read.calls": "count",
    "flash.erase.calls": "count",
    "flash.busy_us": "us",
    "flash.check_ppa.calls": "count",
    "ftl.victim_select.calls": "count",
    "ftl.victim_select.self_s": "s",
    "ftl.gc.fg_runs": "count",
    "ftl.gc.bg_runs": "count",
    "ftl.gc.pages_migrated": "count",
    "ftl.gc.migrated_per_round": "pages",
    "ftl.gc.self_s": "s",
    "ftl.host.self_s": "s",
    "ftl.mapping.self_s": "s",
    "timessd.reclaim.self_s": "s",
    "timessd.chain_compress.self_s": "s",
    "timessd.bg_compress.self_s": "s",
    "timessd.codec.compress.self_s": "s",
    "timessd.codec.decompress.self_s": "s",
    "timessd.bloom.self_s": "s",
    "timessd.version_chain.calls": "count",
    "timessd.version_chain.self_s": "s",
    "timessd.retained_pages": "count",
    "nvme.execute_io.calls": "count",
    "nvme.execute_io.self_s": "s",
    "sched.events": "count",
    "sched.loop.self_s": "s",
    "sched.daemon_steps": "count",
    "timekits.calls": "count",
    "timekits.self_s": "s",
    "timekits.pages_touched": "count",
    "obs.record.calls": "count",
    "bench.self_s": "s",
    "trace.timed_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
})

#: Figures where more is better; for every other one, less work or
#: less time is better.  The request counts are fixed by the workload.
HIGHER_IS_BETTER = ("timessd.retained_pages", "nvme.execute_io.calls",
                    "timekits.calls", "trace.coverage_frac")


def _delta(ep, kind, name):
    now = ep.ssd.metrics_snapshot()[kind].get(name, 0)
    return now - ep.snapshot0[kind].get(name, 0)


def layer_metrics(tracer, ep, scale):
    """Per-layer figures of one traced episode, before its checks run.

    Self times are multiplied by ``scale``, the episode's factor from
    wall seconds to the reference-scaled seconds of ``clock.Stopwatch``.
    """
    calls = tracer.calls
    self_s = {name: value * scale for name, value in tracer.self_s.items()}
    timed_s = sum(self_s.values())

    def one(name):
        return self_s.get(name, 0.0)

    def group(prefix):
        return sum(
            v for k, v in self_s.items() if k == prefix or k.startswith(prefix + ".")
        )

    # Round counts come from the device attributes: TimeSSD's foreground
    # rounds never reach the ``gc.runs`` counter of metrics_snapshot().
    fg = ep.ssd.gc_runs - ep.gc_runs0[0]
    bg = ep.ssd.background_gc_runs - ep.gc_runs0[1]
    migrated = _delta(ep, "counters", "gc.pages_migrated")
    engine = getattr(ep, "engine", None)
    out = {layer + ".self_s": group(layer) for layer in LAYERS}
    out.update({
        "flash.program.calls": _delta(ep, "counters", "flash.programs"),
        "flash.read.calls": _delta(ep, "counters", "flash.reads"),
        "flash.erase.calls": _delta(ep, "counters", "flash.erases"),
        "flash.busy_us": _delta(ep, "gauges", "flash.busy_us_total"),
        "flash.check_ppa.calls": calls["flash.check_ppa"],
        "ftl.victim_select.calls": calls["ftl.victim_select"],
        "ftl.victim_select.self_s": one("ftl.victim_select"),
        "ftl.gc.fg_runs": fg,
        "ftl.gc.bg_runs": bg,
        "ftl.gc.pages_migrated": migrated,
        "ftl.gc.migrated_per_round": migrated / (fg + bg) if fg + bg else 0.0,
        "ftl.gc.self_s": group("ftl.gc"),
        "ftl.host.self_s": one("ftl.host"),
        "ftl.mapping.self_s": one("ftl.mapping"),
        "timessd.reclaim.self_s": one("timessd.reclaim"),
        "timessd.chain_compress.self_s": one("timessd.chain_compress"),
        "timessd.bg_compress.self_s": group("timessd.bg_compress"),
        "timessd.codec.compress.self_s": one("timessd.codec.compress"),
        "timessd.codec.decompress.self_s": one("timessd.codec.decompress"),
        "timessd.bloom.self_s": one("timessd.bloom"),
        "timessd.version_chain.calls": calls["timessd.version_chain"],
        "timessd.version_chain.self_s": one("timessd.version_chain"),
        "timessd.retained_pages": ep.ssd.metrics_snapshot()["gauges"].get(
            "timessd.retained_pages", 0
        ),
        "nvme.execute_io.calls": calls["nvme.execute_io"],
        "nvme.execute_io.self_s": one("nvme.execute_io"),
        "sched.events": engine.loop.events_dispatched if engine is not None else 0,
        "sched.loop.self_s": one("sched.loop"),
        "sched.daemon_steps": sum(calls[name] for name in DAEMON_STEPS),
        "timekits.calls": calls["timekits.query"],
        "timekits.pages_touched": getattr(ep, "pages_touched", 0),
        "obs.record.calls": calls["obs.record"],
        "bench.self_s": one(ROOT),
        "trace.timed_s": timed_s,
        "trace.coverage_frac": 1.0 - one(ROOT) / timed_s,
        "trace.spans": sum(calls.values()),
    })
    return out


def summarize_layers(reps):
    """Median of each figure over the traced episodes, plus the tracing
    overhead against the untraced ones; returns name -> (value, unit)."""
    traced = [rep["layers"] for rep in reps if rep["traced"]]
    plain = statistics.median(rep["timed_s"] for rep in reps if not rep["traced"])
    out = {}
    for name, unit in UNITS.items():
        if name == "trace.overhead_frac":
            value = statistics.median(t["trace.timed_s"] for t in traced) / plain - 1.0
        else:
            value = statistics.median(t[name] for t in traced)
        out[name] = (value, unit)
    return out
