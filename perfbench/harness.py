"""One measured run of a workload block: set-up, warm-up, passes and gate."""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import metrics
import riemqn.bench as bench
from gauge import Gauge
from tracer import Patcher, Probe, Tracer

SETUP_REPS = 11
WARMUP_MAX_ITERS = 25


class Measurement:
    """The config, set-up and passes of one workload block, in ``work``."""

    def __init__(self, workload, seed: int, seconds: float, work: Path):
        self.instances = workload.instances_for(seconds)
        self.config_data = workload.config(seed, self.instances)
        self.work = work
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config_data, indent=2) + "\n")

    def setup(self):
        """load_config plus every generate_instance; returns (config, instances)."""
        config = bench.load_config(self.config_path)
        instances = [
            bench.generate_instance(config.kind, config.dims, config.seed_base + i)
            for i in range(config.instances)
        ]
        return config, instances

    def warm_up(self) -> float:
        """A discarded run_benchmark: first instance, every solver, few iterations."""
        data = dict(self.config_data, max_iters=WARMUP_MAX_ITERS)
        data["problem"] = dict(data["problem"], instances=1)
        t0 = time.perf_counter()
        bench.run_benchmark(bench.parse_config(data), self.work / "warmup")
        return time.perf_counter() - t0

    def measured_pass(self, config, name: str, tracer: Tracer | None = None,
                      gauge: Gauge | None = None):
        """run_benchmark under the Probe (and the Tracer or Gauge, if given).

        Returns (probe, wall seconds, runs.csv rows).
        """
        probe, patcher = Probe(gauge), Patcher()
        probe.install(patcher)
        if tracer is not None:
            tracer.install(patcher)
        try:
            t0 = time.perf_counter()
            bench.run_benchmark(config, self.work / name)
            wall = time.perf_counter() - t0
        finally:
            patcher.restore()
        if gauge is not None:
            gauge.sample()  # brackets the last solves
        return probe, wall, gate.read_rows(self.work / name / "runs.csv")


@dataclass
class Outcome:
    instances: int
    seed_base: int
    setup_times: list[float]  # scaled to the gauge's reference speed
    warmup_s: float
    probe: Probe
    gauge: Gauge
    digest: str
    e2e: dict
    layers: dict | None = None
    tracer: Tracer | None = None


def _timed_setups(meas: Measurement, reps: int, gauge: Gauge, setups: list[tuple[float, float]]):
    """Set up ``reps`` times, each between two gauge samples; appends (start, seconds)."""
    for _ in range(reps):
        gauge.sample()
        t0 = time.perf_counter()
        config, instances = meas.setup()
        setups.append((t0, time.perf_counter() - t0))
    gauge.sample()
    return config, instances


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """Measure one block; raises gate.GateError on any wrong output.

    Half the set-up repetitions run before the pass and half after it, so
    that their median samples the machine at two moments of the run.  The
    gauge samples the host's speed throughout (see gauge.py).
    """
    meas = Measurement(workload, seed, seconds, work)
    gauge = Gauge(workload.gauge)
    setups: list[tuple[float, float]] = []
    config, instances = _timed_setups(meas, SETUP_REPS // 2 + 1, gauge, setups)
    refs = gate.references(instances)
    del instances
    warmup_s = meas.warm_up()

    probe, wall, rows = meas.measured_pass(config, "untraced", gauge=gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _timed_setups(meas, SETUP_REPS // 2, gauge, setups)
    gate.check(probe.runs, rows, refs, config)
    out = Outcome(
        instances=meas.instances,
        seed_base=config.seed_base,
        setup_times=metrics.scaled_setups(setups, gauge),
        warmup_s=warmup_s,
        probe=probe,
        gauge=gauge,
        digest=gate.digest(rows),
        e2e=metrics.end_to_end(probe, wall, setups, peak_rss_mb, gauge),
    )
    if trace:
        setup_tracer, patcher = Tracer(), Patcher()
        setup_tracer.install(patcher)
        try:
            meas.setup()
        finally:
            patcher.restore()
        tracer = Tracer()
        tracer.count_single_children("linesearch.search_step", "problems.cost")
        traced_probe, traced_wall, traced_rows = meas.measured_pass(config, "traced", tracer)
        gate.check(traced_probe.runs, traced_rows, refs, config)
        if gate.digest(traced_rows) != out.digest:
            raise gate.GateError("the traced pass changed the behaviour digest")
        out.tracer = tracer
        out.layers = metrics.per_layer(
            tracer, setup_tracer, traced_probe.runs, traced_wall, wall - probe.gauge_seconds)
    return out
