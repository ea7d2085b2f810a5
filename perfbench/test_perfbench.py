"""Smoke tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from clock import Stopwatch  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, ReplayGC  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

#: Class constants that cut each workload to about a tenth of its size.
SMALL = {
    "replay-gc": {"WARM_RECORDS": 200, "RECORDS": 150},
    "nvme-qd8": {"COMMANDS": 1200},
    "history-query": {"LPAS": 25, "CHURN": 150, "CALLS": 100},
}


def small(name):
    cls = WORKLOADS[name]
    return type("Small" + cls.__name__, (cls,), SMALL[name])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: run.END_TO_END[name] for name in run.REPORTED
    }
    assert SPEC["per_layer"] == [
        {"name": name, "unit": unit,
         "better": "higher" if name in layers.HIGHER_IS_BETTER else "lower"}
        for name, unit in layers.UNITS.items()
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, workload, small(workload))
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    text = "\n".join(lines[:-1])
    for name, unit in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines), name
    assert "FAILED" not in text


def _corrupt(ep):
    """Make the benchmark's model disagree with the device."""
    if hasattr(ep, "log"):  # replay-gc: the last write's token
        last = max(i for i, entry in enumerate(ep.log) if entry[0] == "W")
        kind, lpa, t_us, token = ep.log[last]
        ep.log[last] = (kind, lpa, t_us, -token)
    elif hasattr(ep, "history"):  # history-query: every reference version
        for lpa, versions in ep.history.items():
            ep.history[lpa] = [(lo, hi, b"not this") for lo, hi, _data in versions]
    else:  # nvme-qd8: the first read's answer
        for done in ep.completions:
            for completion in done:
                if isinstance(completion.result, list):
                    completion.result = [-1] * len(completion.result)
                    return


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_an_injected_mismatch_raises_failed_frac(name):
    class Broken(small(name)):
        def timed(self, ep, tick):
            super().timed(ep, tick)
            _corrupt(ep)

    workload = Broken(3)
    watch = Stopwatch()
    rep = run.episode(workload, watch)
    metrics, _attempted, failures = run.summarize([rep], 0.0)
    assert failures
    assert metrics["failed_frac"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_simulated_results_repeat_for_a_seed(name):
    first = small(name)(4)
    second = small(name)(4)
    watch = Stopwatch()
    a = run.episode(first, watch)
    b = run.episode(second, watch)
    assert a["sim"] == b["sim"]
    assert not a["failures"] and not b["failures"]


def test_episode_matches_trace_replayer():
    """Page tokens change nothing the device simulates: a set-up followed
    by the timed phase simulates what ``TraceReplayer`` does over the
    same records from empty, and times responses the same way."""
    from repro.workloads.trace import TraceReplayer

    class Split(ReplayGC):
        WARM_RECORDS = 600
        RECORDS = 600

    workload = Split(6)
    plain = workload.device()
    records = list(itertools.islice(workload.trace(plain), 1200))
    replayer = TraceReplayer(plain)
    replayer.replay(records[:600])
    stats = replayer.replay(records[600:])
    ep = workload.setup(lambda: None)
    ep.mark_start()
    workload.timed(ep, lambda: None)
    latencies = ep.latencies_us

    def fingerprint(ssd):
        return (
            ssd.device.counters.snapshot(),
            ssd.gc_runs,
            ssd.background_gc_runs,
            ssd.host_pages_written,
            ssd.host_pages_read,
            ssd.retention_window_us(),
            ssd.retained_pages,
            ssd.clock.now_us,
        )

    assert plain.gc_runs > 0
    assert fingerprint(plain) == fingerprint(ep.ssd)
    assert stats.requests == len(latencies)
    assert stats.response.mean_us == pytest.approx(sum(latencies) / len(latencies))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-gc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
