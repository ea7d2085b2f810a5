"""The benchmark's three workloads.

Each workload builds its inputs from a seed, drives the simulator only
through public APIs in a timed phase, and checks every answer against a
model it keeps itself, never against the device's own bookkeeping.

``setup(tick)`` returns a fresh :class:`Episode` (device plus generated
inputs), ``timed(ep, tick)`` issues the requests and records what came
back, calling ``tick()`` after each request (see ``clock.Stopwatch``),
``sim_metrics()`` reads the simulated-time results, which repeat exactly
for a seed, and ``verify()`` checks the recorded answers after timing.
"""

import itertools
import random

from repro.bench.config import bench_geometry, make_bench_timessd
from repro.common.errors import ReproError
from repro.common.units import SECOND_US
from repro.flash.geometry import FlashGeometry
from repro.nvme import NVMeCommand, Opcode
from repro.nvme.engine import AsyncNVMeEngine
from repro.sched.core import Delay
from repro.timekits.api import TimeKits
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD
from repro.workloads.msr import msr_trace

FLASH_OP_COUNTERS = ("flash.reads", "flash.programs", "flash.erases")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (``q`` in 0..100)."""
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[rank - 1]


class Episode:
    """One fresh device, its inputs, and what the timed phase recorded."""

    def __init__(self, ssd, **inputs):
        self.ssd = ssd
        self.latencies_us = []
        self.requests = 0
        self.errors = []
        self.__dict__.update(inputs)

    def mark_start(self):
        """Record the counters the timed phase is measured against."""
        ssd = self.ssd
        self.snapshot0 = ssd.metrics_snapshot()
        self.host_pages0 = ssd.host_pages_written
        self.gc_runs0 = (ssd.gc_runs, ssd.background_gc_runs)
        self.sim_start_us = ssd.clock.now_us
        self.sim_busy_us = None


class Workload:
    name = None
    #: Seed used when none is given on the command line.
    default_seed = 1

    def __init__(self, seed):
        self.seed = seed

    def sim_metrics(self, ep):
        """Simulated-time results of the timed phase."""
        ssd = ep.ssd
        now = ssd.metrics_snapshot()["counters"]
        before = ep.snapshot0["counters"]
        flash_ops = sum(now.get(name, 0) - before.get(name, 0) for name in FLASH_OP_COUNTERS)
        programs = now.get("flash.programs", 0) - before.get("flash.programs", 0)
        host_pages = ssd.host_pages_written - ep.host_pages0
        latencies = sorted(ep.latencies_us)
        busy = ep.sim_busy_us
        if busy is None:
            busy = ssd.clock.now_us - ep.sim_start_us
        return {
            "requests": ep.requests,
            "sim_resp_p50_us": percentile(latencies, 50),
            "sim_resp_p99_us": percentile(latencies, 99),
            "write_amplification": programs / max(1, host_pages),
            "retention_s": ssd.retention_window_us() / SECOND_US,
            "sim_iops": ep.requests * SECOND_US / max(1, busy),
            "flash_ops": flash_ops,
        }


# --- replay-gc -------------------------------------------------------------------


class ReplayGC(Workload):
    """MSR ``src`` one-day trace at intensity 300 on the 48-blocks-per-plane
    test geometry with a 2 s retention floor: the replay determinism
    test's shape.  Set-up replays the first ``WARM_RECORDS`` requests on
    an empty device, which fills it to GC steady state; the timed phase
    replays the next ``RECORDS``."""

    name = "replay-gc"
    default_seed = 6
    WARM_RECORDS = 2000
    RECORDS = 4500
    FLOOR_US = 2 * SECOND_US

    def device(self):
        """An empty device of the determinism test's configuration."""
        geometry = FlashGeometry(
            channels=4,
            chips_per_channel=1,
            planes_per_chip=1,
            blocks_per_plane=48,
            pages_per_block=16,
            page_size=512,
        )
        return TimeSSD(
            TimeSSDConfig(
                geometry=geometry,
                retention_floor_us=self.FLOOR_US,
                bloom_capacity=128,
                bloom_segment_max_age_us=SECOND_US,
                content_mode=ContentMode.MODELED,
            )
        )

    def trace(self, ssd):
        """The seed's one-day trace, as an iterator of records."""
        return msr_trace(
            "src",
            ssd.logical_pages,
            days=1,
            seed=self.seed,
            intensity_scale=300,
            working_pages=ssd.logical_pages // 2,
        )

    def setup(self, tick):
        ssd = self.device()
        trace = self.trace(ssd)
        warm = list(itertools.islice(trace, self.WARM_RECORDS))
        records = list(itertools.islice(trace, self.RECORDS))
        ep = Episode(ssd, records=records, log=[], token=0, replayed=0)
        self._replay(ep, warm, [], tick)
        return ep

    def timed(self, ep, tick):
        self._replay(ep, ep.records, ep.latencies_us, tick)
        ep.requests = len(ep.records)

    def _replay(self, ep, records, latencies, tick):
        """Replay record by record as ``TraceReplayer`` does (clock to the
        arrival time, response = arrival to completion), except that every
        written page carries a unique token so reads can be checked."""
        ssd = ep.ssd
        clock = ssd.clock
        write, read_range, trim = ssd.write, ssd.read_range, ssd.trim
        log = ep.log
        token = ep.token
        for record in records:
            clock.advance_to(record.timestamp_us)
            arrival = clock.now_us
            lpa = record.lpa
            try:
                if record.op == "W":
                    for i in range(record.npages):
                        token += 1
                        log.append(("W", lpa + i, clock.now_us, token))
                        write(lpa + i, token)
                elif record.op == "R":
                    log.append(("R", lpa, read_range(lpa, record.npages)[0]))
                else:
                    for i in range(record.npages):
                        log.append(("T", lpa + i, clock.now_us))
                        trim(lpa + i)
            except ReproError as exc:
                ep.errors.append("record at %d us: %r" % (record.timestamp_us, exc))
            latencies.append(clock.now_us - arrival)
            tick()
        ep.token = token
        ep.replayed += len(records)

    def verify(self, ep):
        """Returns ``(attempted, failures)``.

        Checks, in order: every read of the replay against the model;
        a sweep read of every LPA; and that every version invalidated
        within the retention floor is still in ``version_chain``.
        """
        ssd = ep.ssd
        failures = list(ep.errors)
        attempted = ep.replayed
        model = {}
        history = {}  # lpa -> [[written_us, token, invalidated_us], ...]

        def invalidate(lpa, t_us):
            versions = history.get(lpa)
            if versions and versions[-1][2] is None:
                versions[-1][2] = t_us

        for entry in ep.log:
            kind, lpa = entry[0], entry[1]
            if kind == "W":
                invalidate(lpa, entry[2])
                history.setdefault(lpa, []).append([entry[2], entry[3], None])
                model[lpa] = entry[3]
            elif kind == "T":
                invalidate(lpa, entry[2])
                model[lpa] = None
            else:
                expected = [model.get(lpa + i) for i in range(len(entry[2]))]
                if entry[2] != expected:
                    failures.append("replay read of LPA %d: %r != %r" % (lpa, entry[2], expected))
        for lpa in range(ssd.logical_pages):
            attempted += 1
            try:
                data, _response = ssd.read(lpa)
            except ReproError as exc:
                failures.append("sweep read of LPA %d: %r" % (lpa, exc))
                continue
            if data != model.get(lpa):
                failures.append("sweep read of LPA %d: %r != %r" % (lpa, data, model.get(lpa)))
        horizon = ssd.clock.now_us - self.FLOOR_US
        for lpa, versions in history.items():
            needed = [
                (written, token)
                for written, token, gone in versions
                if gone is None or gone >= horizon
            ]
            if not needed:
                continue
            found, _t = ssd.version_chain(lpa, until_ts=horizon)
            found = {(v.timestamp_us, v.data) for v in found}
            for version in needed:
                attempted += 1
                if version not in found:
                    failures.append("LPA %d lost version %r within the floor" % (lpa, version))
        return attempted, failures


# --- nvme-qd8 ------------------------------------------------------------------


def _idle_gap(gap_us):
    """A host task that only waits: the daemons run while it sleeps."""
    yield Delay(gap_us)


class NvmeQD8(Workload):
    """Closed loop at queue depth 8 on one queue pair of the async NVMe
    engine, device daemons live, over a bench TimeSSD prefilled to 50%.

    Traffic is a 60/35/5 read/write/trim mix of 1-4 page commands, 80%
    of them inside a hot fifth of the prefilled range, sent in batches
    with idle gaps between them so background work runs off the I/O path.
    """

    name = "nvme-qd8"
    default_seed = 1
    COMMANDS = 12000
    BATCH = 32
    GAPS_US = (500, 2_000, 20_000)
    QUEUE_DEPTH = 8

    def setup(self, tick):
        rng = random.Random(self.seed)
        ssd = make_bench_timessd()
        working = ssd.logical_pages // 2
        hot = working // 5
        token = 0
        # The bench prefill (``repro.bench.config.prefill``) with a token
        # per page, so the model knows every LPA's content.
        for lpa in range(working):
            token += 1
            ssd.write(lpa, token)
            ssd.clock.advance(200)
            tick()
        batches = []
        commands = []
        for _ in range(self.COMMANDS):
            roll = rng.random()
            nlb = rng.randint(1, 4)
            if rng.random() < 0.8:
                slba = rng.randrange(hot - nlb)
            else:
                slba = rng.randrange(hot, working - nlb)
            if roll < 0.60:
                commands.append(NVMeCommand(Opcode.READ, slba=slba, nlb=nlb))
            elif roll < 0.95:
                data = list(range(token + 1, token + nlb + 1))
                token += nlb
                commands.append(NVMeCommand(Opcode.WRITE, slba=slba, nlb=nlb, data=data))
            else:
                commands.append(NVMeCommand(Opcode.DSM, slba=slba, nlb=nlb))
            if len(commands) == self.BATCH:
                batches.append((commands, rng.choice(self.GAPS_US)))
                commands = []
        if commands:
            batches.append((commands, rng.choice(self.GAPS_US)))
        engine = AsyncNVMeEngine(ssd, queue_depth=self.QUEUE_DEPTH, queue_pairs=1)
        engine.install_daemons()
        return Episode(ssd, engine=engine, working=working, batches=batches, completions=[])

    def timed(self, ep, tick):
        engine = ep.engine
        loop = engine.loop
        latencies = ep.latencies_us
        completions = ep.completions
        busy = 0
        for commands, gap_us in ep.batches:
            done, elapsed_us = engine.process(commands)
            busy += elapsed_us
            completions.append(done)
            for completion in done:
                latencies.append(completion.latency_us)
            loop.spawn(_idle_gap(gap_us), name="host-idle", root="host-serve")
            loop.run()
            tick()
        ep.requests = sum(len(commands) for commands, _gap in ep.batches)
        ep.sim_busy_us = busy

    def verify(self, ep):
        """Statuses, then every read against a submission-order model.

        Fetch is in submission order and each command applies atomically
        when fetched, so replaying the commands in submission order gives
        exactly the content each read must have returned.
        """
        failures = list(ep.errors)
        attempted = 0
        model = list(range(1, ep.working + 1))
        for (commands, _gap), done in zip(ep.batches, ep.completions):
            for command, completion in zip(commands, done):
                attempted += 1
                if not completion.ok:
                    failures.append("%r -> %s" % (command, completion.status.name))
                    continue
                span = range(command.slba, command.slba + command.nlb)
                if command.opcode == Opcode.READ:
                    expected = [model[lpa] for lpa in span]
                    if completion.result != expected:
                        failures.append(
                            "read %d+%d: %r != %r"
                            % (command.slba, command.nlb, completion.result, expected)
                        )
                elif command.opcode == Opcode.WRITE:
                    for lpa, token in zip(span, command.data):
                        model[lpa] = token
                else:
                    for lpa in span:
                        model[lpa] = None
        return attempted, failures


# --- history-query -------------------------------------------------------------


class HistoryQuery(Workload):
    """TimeKits history queries on a bench TimeSSD with 2 KiB pages and
    real content, so chain walks run the real XOR+LZF codec.

    Setup writes a working set, then churns delta-compressible overwrites
    with idle gaps so background compression builds delta chains.  The
    timed phase is one caller in a closed loop: as-of ``addr_query``
    mostly, plus ``addr_query_all``, single-LPA ``rollback`` (read back
    at once) and an occasional ``time_query``.
    """

    name = "history-query"
    default_seed = 1
    PAGE = 2048
    LPAS = 256
    CHURN = 1500
    CALLS = 1000
    GAPS_US = (500, 2_000, 50_000)
    MIX = (("addr_query", 0.80), ("addr_query_all", 0.12), ("rollback", 0.076), ("time_query", 0.004))

    def setup(self, tick):
        rng = random.Random(self.seed)
        ssd = make_bench_timessd(
            geometry=bench_geometry(page_size=self.PAGE),
            content_mode=ContentMode.REAL,
        )
        lpas = self.LPAS
        clock = ssd.clock
        # history[lpa]: newest-last [(lo_us, hi_us, data)]; a version's
        # write time lies in [lo, hi] (equal for host writes).
        history = {}
        current = {}
        for lpa in range(lpas):
            data = rng.randbytes(self.PAGE)
            history[lpa] = [(clock.now_us, clock.now_us, data)]
            current[lpa] = data
            ssd.write(lpa, data)
            clock.advance(rng.choice(self.GAPS_US))
            tick()
        for _ in range(self.CHURN):
            lpa = rng.randrange(lpas)
            page = bytearray(current[lpa])
            for _edit in range(rng.randint(8, 64)):
                page[rng.randrange(self.PAGE)] = rng.randrange(256)
            data = bytes(page)
            history[lpa].append((clock.now_us, clock.now_us, data))
            current[lpa] = data
            ssd.write(lpa, data)
            clock.advance(rng.choice(self.GAPS_US))
            tick()
        t_first = history[0][0][0]
        t_last = clock.now_us
        # Exact counts per kind, shuffled: a rare, costly call type drawn
        # at random would make the episode's cost swing from seed to seed.
        ncalls = self.CALLS
        kinds = []
        for kind, share in self.MIX:
            kinds += [kind] * max(1, round(share * ncalls))
        rng.shuffle(kinds)
        calls = [
            (kind, rng.randrange(lpas), rng.randint(t_first, t_last))
            for kind in kinds
        ]
        return Episode(
            ssd,
            kits=TimeKits(ssd),
            history=history,
            calls=calls,
            answers=[],
            pages_touched=0,
        )

    def timed(self, ep, tick):
        kits = ep.kits
        ssd = ep.ssd
        clock = ssd.clock
        latencies = ep.latencies_us
        answers = ep.answers
        touched = 0
        for kind, lpa, t in ep.calls:
            issued = clock.now_us
            try:
                if kind == "addr_query":
                    result = kits.addr_query(lpa, 1, t)
                elif kind == "addr_query_all":
                    result = kits.addr_query_all(lpa, 1)
                elif kind == "time_query":
                    result = kits.time_query(t)
                else:
                    result = kits.rollback(lpa, 1, t)
                    answers.append((kind, lpa, t, issued, clock.now_us, result.value, ssd.read(lpa)[0]))
            except ReproError as exc:
                ep.errors.append("%s(%d, %d): %r" % (kind, lpa, t, exc))
                continue
            if kind != "rollback":
                answers.append((kind, lpa, t, issued, clock.now_us, result.value, None))
            latencies.append(result.elapsed_us)
            touched += result.pages_touched
            tick()
        ep.requests = len(ep.calls)
        ep.pages_touched = touched

    def verify(self, ep):
        """Every answer against the reference history, in call order.

        As-of times are drawn from the setup period, so the answer to an
        as-of query or rollback is always a setup version with an exact
        timestamp.  A rollback's own write happens somewhere inside its
        call, so the model keeps its time as the call's interval.
        """
        failures = list(ep.errors)
        attempted = 0
        history = {lpa: list(versions) for lpa, versions in ep.history.items()}

        def as_of(lpa, t):
            chosen = history[lpa][0]
            for version in history[lpa]:
                if version[1] <= t:
                    chosen = version
            return chosen

        def same(version, expected):
            lo, hi, data = expected
            return lo <= version.timestamp_us <= hi and version.data == data

        def written_before(lpa, t_us):
            return [v for v in history[lpa] if v[0] < t_us]

        for kind, lpa, t, issued, ended, value, readback in ep.answers:
            attempted += 1
            where = "%s(%d, t=%d)" % (kind, lpa, t)
            if kind == "addr_query":
                if not same(value[lpa], as_of(lpa, t)):
                    failures.append("%s answered %r" % (where, value[lpa]))
            elif kind == "addr_query_all":
                expected = written_before(lpa, issued)[::-1]
                got = value[lpa]
                if len(got) != len(expected) or not all(map(same, got, expected)):
                    failures.append("%s: %d versions, model has %d" % (where, len(got), len(expected)))
            elif kind == "time_query":
                for q in range(len(history)):
                    stamps = [v for v in written_before(q, issued) if v[1] >= t]
                    got = value.get(q, [])
                    if len(got) != len(stamps) or not all(
                        lo <= ts <= hi for ts, (lo, hi, _data) in zip(got, stamps)
                    ):
                        failures.append("%s: LPA %d stamps %r" % (where, q, got))
            else:
                target = as_of(lpa, t)
                if not same(value[lpa], target):
                    failures.append("%s restored %r" % (where, value[lpa]))
                elif history[lpa][-1] is not target:
                    history[lpa].append((issued, ended, target[2]))
                if readback != target[2]:
                    failures.append("%s read back other data" % where)
        ssd = ep.ssd
        for lpa, versions in history.items():
            attempted += 1
            try:
                data, _response = ssd.read(lpa)
            except ReproError as exc:
                failures.append("sweep read of LPA %d: %r" % (lpa, exc))
                continue
            if data != versions[-1][2]:
                failures.append("sweep read of LPA %d returned other data" % lpa)
        return attempted, failures


WORKLOADS = {cls.name: cls for cls in (ReplayGC, NvmeQD8, HistoryQuery)}
