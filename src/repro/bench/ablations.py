"""Ablations over TimeSSD's design choices (DESIGN.md table).

Each ablation replays the same MSR volume and reports how the design
knob moves the retention/overhead trade-off:

* delta compression on/off (§3.6) — space saved lengthens retention;
* bloom group size N (§3.5) — memory vs false-positive retention;
* GC-overhead threshold TH (§3.8) — retention vs lifetime;
* background (idle) work on/off (§3.6) — foreground response time.
"""

from dataclasses import dataclass

from repro.common.units import DAY_US
from repro.bench.config import make_bench_timessd, prefill
from repro.workloads.msr import msr_trace
from repro.workloads.trace import TraceReplayer


@dataclass
class AblationPoint:
    label: str
    retention_days: float
    write_amplification: float
    mean_response_us: float
    bloom_memory_bytes: int
    aborted: bool


def _run(label, volume="hm", usage=0.5, days=14, seed=1, **overrides):
    ssd = make_bench_timessd(**overrides)
    working = int(ssd.logical_pages * usage)
    prefill(ssd, working)
    trace = msr_trace(
        volume, ssd.logical_pages, days=days, seed=seed, working_pages=working
    )
    stats = TraceReplayer(ssd).replay(trace)
    return AblationPoint(
        label=label,
        retention_days=min(ssd.retention_window_us(), ssd.clock.now_us) / DAY_US,
        write_amplification=ssd.write_amplification,
        mean_response_us=stats.response.mean_us,
        bloom_memory_bytes=ssd.blooms.memory_bytes(),
        aborted=stats.aborted_at is not None,
    )


def ablate_delta_compression(volume="src", usage=0.8, days=14):
    """§3.6: retained versions compressed vs stored whole.

    Run under real GC pressure (heavy volume, 80% usage) — with a
    near-empty device retained pages cost nothing until GC must move
    them, and the knob would show nothing.
    """
    return [
        _run("delta-compression=on", volume, usage, days, delta_compression=True),
        _run("delta-compression=off", volume, usage, days, delta_compression=False),
    ]


def ablate_bloom_group_size(volume="src", usage=0.8, days=14, sizes=(1, 16, 64)):
    """§3.5: invalidation-tracking group granularity N.

    Segment sealing must be count-driven for the knob to show, so the
    age-based seal is pushed out of the way (2 days per segment max).
    """
    from repro.common.units import DAY_US as _DAY_US

    return [
        _run(
            "group-size=%d" % n,
            volume,
            usage,
            days,
            bloom_group_size=n,
            bloom_segment_max_age_us=2 * _DAY_US,
        )
        for n in sizes
    ]


def ablate_gc_threshold(volume="hm", usage=0.5, days=21, thresholds=(0.5, 1.0, 2.0)):
    """§3.8: Equation-1 threshold TH."""
    return [
        _run("TH=%.2f" % th, volume, usage, days, gc_overhead_threshold=th)
        for th in thresholds
    ]


def ablate_background_work(volume="hm", usage=0.8, days=14):
    """§3.6: idle-time background GC + compression on/off.

    With background work disabled everything runs on the foreground
    path, which is where the response-time overhead shows up.
    """
    return [
        _run("background=on", volume, usage, days),
        _run(
            "background=off",
            volume,
            usage,
            days,
            background_gc=False,
            background_compression=False,
        ),
    ]


def ablate_mapping_cache(volume="hm", usage=0.5, days=10, sizes=(None, 2048, 256)):
    """DFTL demand cache: fully-cached vs finite mapping caches.

    Translation-page misses ride the critical path, so smaller caches
    raise mean response time (the classic DFTL trade-off).
    """
    points = []
    for size in sizes:
        label = "mapping-cache=%s" % ("full" if size is None else size)
        points.append(
            _run(label, volume, usage, days, mapping_cache_entries=size)
        )
    return points


def ablate_compression_acceleration(family="Petya", seed=7):
    """§5.5.1 future work: hardware-accelerated (de)compression.

    The paper attributes TimeSSD's ~14% recovery-time gap vs FlashGuard
    to delta decompression and proposes hardware acceleration.  Model it
    by shrinking the compression costs an order of magnitude and compare
    recovery times.
    """
    from repro.bench.security_experiments import run_family
    from repro.flash.timing import FlashTiming

    software = run_family(family, seed=seed)
    accelerated_timing = FlashTiming(delta_compress_us=12, delta_decompress_us=6)
    accelerated = run_family(family, seed=seed, timing=accelerated_timing)
    return software, accelerated


def ablate_device_parallelism(channel_counts=(2, 4, 8), seed=31):
    """Device parallelism: TimeQuery latency vs channel count.

    The paper accelerates state queries with the SSD\'s internal
    parallelism (§3.9, Figure 11); this sweep holds capacity constant
    and varies channel count — the full-scan TimeQuery should speed up
    close to linearly.
    """
    import random as _random

    from repro.common.units import SECOND_US
    from repro.bench.config import make_bench_timessd, bench_geometry, prefill
    from repro.timekits.api import TimeKits

    points = []
    for channels in channel_counts:
        geometry = bench_geometry(
            channels=channels, blocks_per_plane=384 // channels
        )
        ssd = make_bench_timessd(geometry=geometry)
        rng = _random.Random(seed)
        working = ssd.logical_pages // 3
        prefill(ssd, working)
        for _ in range(working):
            ssd.write(rng.randrange(working))
            ssd.clock.advance(2000)
        kits = TimeKits(ssd)
        result = kits.time_query(0, threads=16)
        points.append(
            AblationPoint(
                label="channels=%d" % channels,
                retention_days=0.0,
                write_amplification=ssd.write_amplification,
                mean_response_us=result.elapsed_us,  # TimeQuery latency here
                bloom_memory_bytes=ssd.blooms.memory_bytes(),
                aborted=False,
            )
        )
    return points


def ablate_gc_policy(usage=0.5, writes_factor=4, seed=13):
    """Greedy vs cost-benefit GC under hot/cold skew.

    Cost-benefit cleans old, mostly-dead cold blocks instead of chasing
    the hottest garbage, which lowers write amplification when updates
    are skewed (the workload shape every trace in Table 2 has).
    """
    import random as _random

    from repro.bench.config import make_bench_timessd, prefill

    points = []
    for policy in ("greedy", "cost_benefit"):
        ssd = make_bench_timessd(gc_policy=policy)
        rng = _random.Random(seed)
        working = int(ssd.logical_pages * usage)
        hot = max(1, working // 10)
        prefill(ssd, working)
        for _ in range(working * writes_factor):
            if rng.random() < 0.9:
                ssd.write(rng.randrange(hot))
            else:
                ssd.write(hot + rng.randrange(working - hot))
            ssd.clock.advance(1500)
        points.append(
            AblationPoint(
                label="gc-policy=%s" % policy,
                retention_days=min(ssd.retention_window_us(), ssd.clock.now_us)
                / DAY_US,
                write_amplification=ssd.write_amplification,
                mean_response_us=ssd.write_latency.mean_us,
                bloom_memory_bytes=ssd.blooms.memory_bytes(),
                aborted=False,
            )
        )
    return points


def ablate_queue_depth(depths=(1, 2, 4, 8, 16), reads=400, seed=41):
    """Random-read IOPS vs NVMe queue depth, on the event-driven engine.

    The QD=1 host leaves the device's parallelism idle; deeper queues
    keep more slot workers in flight, overlapping reads across
    channels/chips until the lane count saturates the scaling.  Each
    depth runs the identical seeded read stream through
    :meth:`~repro.nvme.driver.HostNVMeDriver.submit_async`; idle-window
    background work runs at admission as on every host path.
    """
    import random as _random

    from repro.common.units import SECOND_US
    from repro.bench.config import make_bench_timessd, prefill
    from repro.nvme import HostNVMeDriver, NVMeCommand, Opcode

    rng = _random.Random(seed)
    stream = [rng.randrange(10**9) for _ in range(reads)]
    points = []
    for depth in depths:
        # A fresh, identically-prefilled device per depth: completed
        # background work must not leak from one depth into the next.
        ssd = make_bench_timessd()
        driver = HostNVMeDriver(ssd)
        working = ssd.logical_pages // 2
        prefill(ssd, working)
        commands = [
            NVMeCommand(Opcode.READ, slba=lpa % working, nlb=1)
            for lpa in stream
        ]
        _completions, elapsed = driver.submit_async(commands, queue_depth=depth)
        iops = reads * SECOND_US / max(1, elapsed)
        points.append(
            AblationPoint(
                label="QD=%d" % depth,
                retention_days=0.0,
                write_amplification=0.0,
                mean_response_us=iops,  # column reused: higher is better
                bloom_memory_bytes=0,
                aborted=False,
            )
        )
    return points
