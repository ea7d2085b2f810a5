"""Span tracing for the traced benchmark run.

Wrappers are installed on class attributes from the benchmark's own
files, around the public entry points of each layer (plus the few
private GC and compression steps that the sync idle path reaches only
through private calls).  Module functions imported by name cannot be
wrapped from outside; their callers' spans carry their time instead.

Every span has a name, start, end and parent.  Self time is the span's
duration minus the part covered by its child spans.  Calls are
synchronous, so a child always nests inside its parent and the coverage
is the sum of the children's durations, accumulated on a stack as spans
close.  The first ``keep`` spans of a run are also kept in memory and
written out at exit.
"""

import json
import time
from collections import defaultdict

from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import ChannelTimelines
from repro.ftl.block_manager import BlockManager
from repro.ftl.mapping import AddressMappingTable
from repro.ftl.ssd import BaseSSD
from repro.ftl.wear_leveling import WearLeveler
from repro.nvme.controller import NVMeController
from repro.nvme.engine import AsyncNVMeEngine
from repro.nvme.queues import QueuePair
from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from repro.obs.tracer import EventTracer
from repro.sched.core import EventLoop
from repro.timekits.api import TimeKits
from repro.timessd.bloom import TimeSegmentedBlooms
from repro.timessd.delta import DeltaManager, ModeledDeltaCodec, RealDeltaCodec
from repro.timessd.gc import TimeSSDGarbageCollector
from repro.timessd.index import TimeTravelIndex
from repro.timessd.ssd import TimeSSD

HOST = ("write", "read", "trim", "write_range", "read_range",
        "serve_write_at", "serve_read_at", "serve_trim_at")
TIMEKITS = ("addr_query", "addr_query_range", "addr_query_all", "time_query",
            "time_query_range", "time_query_all", "rollback", "rollback_all")

#: (class, method names, span name).  A method is wrapped on the class
#: that defines it, so an override and its base each get a wrapper.
TARGETS = [
    (FlashDevice, ("read_page", "read_oob"), "flash.read"),
    (FlashDevice, ("program_page",), "flash.program"),
    (FlashDevice, ("erase_block",), "flash.erase"),
    (FlashDevice, ("peek_page", "scan_block_oob", "scan_oob"), "flash.peek"),
    (FlashGeometry, ("check_ppa", "check_pba"), "flash.check_ppa"),
    (ChannelTimelines, ("schedule", "earliest_free"), "flash.timeline"),
    (BaseSSD, HOST, "ftl.host"),
    (BaseSSD, ("read_page_with_retry", "program_with_retry"), "ftl.media"),
    (BaseSSD, ("_ensure_free_space",), "ftl.gc.foreground"),
    (TimeSSD, ("_ensure_free_space",), "ftl.gc.foreground"),
    (BaseSSD, ("_collect_garbage", "relocate_block"), "ftl.gc"),
    (TimeSSD, ("_collect_garbage", "relocate_block"), "ftl.gc"),
    (BaseSSD, ("_background_collect",), "ftl.gc.background"),
    (BaseSSD, ("background_gc_step",), "ftl.gc.daemon_step"),
    (BlockManager, ("select_victim",), "ftl.victim_select"),
    (BlockManager, ("allocate_page", "allocate_page_keyed", "mark_valid",
                    "invalidate_page", "release_block", "seal_block"), "ftl.blocks"),
    (AddressMappingTable, ("lookup", "update", "invalidate", "is_mapped"), "ftl.mapping"),
    (WearLeveler, ("on_erase",), "ftl.wear"),
    (TimeSSDGarbageCollector, ("reclaim_block",), "timessd.reclaim"),
    (TimeSSDGarbageCollector, ("compress_version_chain",), "timessd.chain_compress"),
    (TimeSSD, ("_background_compress",), "timessd.bg_compress"),
    (TimeSSD, ("background_compress_step",), "timessd.bg_compress.daemon_step"),
    (TimeSSD, ("expire_retention_step",), "timessd.expire.daemon_step"),
    (TimeSSD, ("version_chain",), "timessd.version_chain"),
    (RealDeltaCodec, ("compress",), "timessd.codec.compress"),
    (ModeledDeltaCodec, ("compress",), "timessd.codec.compress"),
    (RealDeltaCodec, ("decompress",), "timessd.codec.decompress"),
    (ModeledDeltaCodec, ("decompress",), "timessd.codec.decompress"),
    (TimeSegmentedBlooms, ("record_invalidation", "find_segment", "is_retained",
                           "drop_oldest", "can_drop_oldest"), "timessd.bloom"),
    (DeltaManager, ("add_record", "flush_segment", "drop_segment"), "timessd.delta"),
    (TimeTravelIndex, ("walk_data_chain", "walk_delta_chain", "mark_reclaimable",
                       "is_reclaimable", "clear_block"), "timessd.index"),
    (NVMeController, ("execute_io",), "nvme.execute_io"),
    (NVMeController, ("submit", "submit_batch"), "nvme.submit"),
    (AsyncNVMeEngine, ("enqueue", "pump"), "nvme.engine"),
    (QueuePair, ("push", "fetch", "post"), "nvme.queue"),
    (EventLoop, ("run",), "sched.loop"),
    (EventLoop, ("spawn",), "sched.spawn"),
    (TimeKits, TIMEKITS, "timekits.query"),
    (TimeKits, ("walk_many", "restore_many"), "timekits.walk"),
    (Counter, ("inc",), "obs.record"),
    (Gauge, ("set",), "obs.record"),
    (LatencyHistogram, ("record",), "obs.record"),
    (EventTracer, ("emit",), "obs.record"),
    (MetricsRegistry, ("counter", "gauge", "histogram", "snapshot"), "obs.registry"),
]

#: Spans whose calls are the scheduler's daemon steps.
DAEMON_STEPS = ("ftl.gc.daemon_step", "timessd.bg_compress.daemon_step",
                "timessd.expire.daemon_step")

ROOT = "bench.timed"


class SpanTracer:
    """Records spans while ``recording`` is set; see the module docstring."""

    def __init__(self, keep=50_000):
        self.keep = keep
        self.recording = False
        self.missing = []
        self._patched = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.kept = []
        self.stack = []

    # --- Installing wrappers -----------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; note the ones that do not."""
        for owner, methods, name in targets:
            for method in methods:
                fn = owner.__dict__.get(method)
                if fn is None:
                    self.missing.append("%s.%s" % (owner.__name__, method))
                    continue
                self._patched.append((owner, method, fn))
                setattr(owner, method, self._wrap(fn, name))

    def uninstall(self):
        for owner, method, fn in reversed(self._patched):
            setattr(owner, method, fn)
        self._patched = []

    def _wrap(self, fn, name):
        tracer = self
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = tracer.open(name, stack)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(name, frame, start, clock(), stack)

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    # --- Span bookkeeping --------------------------------------------------------

    def open(self, name, stack):
        """Push a frame ``[child_coverage_s, kept_index]``."""
        index = -1
        if len(self.kept) < self.keep:
            parent = stack[-1][1] if stack else -1
            index = len(self.kept)
            self.kept.append([name, 0.0, 0.0, parent])
        frame = [0.0, index]
        stack.append(frame)
        return frame

    def close(self, name, frame, start, end, stack):
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if stack:
            stack[-1][0] += duration
        if frame[1] >= 0:
            record = self.kept[frame[1]]
            record[1] = start
            record[2] = end

    def start(self):
        """Open the root span over a timed phase and start recording."""
        self.reset()
        self._root = self.open(ROOT, self.stack)
        self.recording = True
        self._root_start = time.perf_counter()

    def stop(self, excluded_s=0.0):
        """Close the root span.  ``excluded_s`` is time the benchmark spent
        inside it on its own measurement, taken off the root's self time."""
        end = time.perf_counter()
        self.recording = False
        self.close(ROOT, self._root, self._root_start, end, self.stack)
        self.self_s[ROOT] -= excluded_s

    # --- Results -----------------------------------------------------------------

    def write(self, path):
        """Write the kept spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as out:
            for name, start, end, parent in self.kept:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                out.write("\n")
