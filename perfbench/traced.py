"""The traced run (`--trace 1`): per-layer metrics timed from outside the program.

The harness times each layer's public functions in its own passes over the
workload's input; this module adds what only the shipped binary shows:
the single-worker wall the layers must add up to, the cost of
`--metrics-json`, and the daemon's lag and checkpoint figures read from
its own `metrics` op and checkpoint directory.
"""

import json
import os
import subprocess

import measure
from system import run_child
from workloads import DEADLINE_S, ServeWorkload, Session, batch_op, split_lines

# traced.sum_ratio must fall in this range: the on-path layers' summed self
# time over the wall of the shipped command at one worker. Outside it the
# layers do not account for the wall and the run fails. The ratio sits
# below 1 because the command also pays process start and exit and the
# first touch of every page it allocates, which the harness's warm heap
# does not (see README.md).
SUM_RATIO_MARGIN = (0.5, 1.5)
# Repetitions of the paired wall and harness pass, and of each CLI wall.
REPS = 3

PER_LAYER = [
    ("json.ndjson.self_s", "s", "lower"),
    ("json.ndjson.mb_per_s", "MB/s", "higher"),
    ("json.ndjson.sol_mb_per_s", "MB/s", "higher"),
    ("json.scan.mb_per_s", "MB/s", "higher"),
    ("infer.shape.self_s", "s", "lower"),
    ("infer.shape.hit_ratio", "ratio", "higher"),
    ("infer.shape.distinct", "count", "lower"),
    ("infer.streaming.self_s", "s", "lower"),
    ("infer.streaming.mb_per_s", "MB/s", "higher"),
    ("infer.streaming.allocs_per_record", "count", "lower"),
    ("json.parse.self_s", "s", "lower"),
    ("json.parse.mb_per_s", "MB/s", "higher"),
    ("json.parse.allocs_per_record", "count", "lower"),
    ("infer.infer.self_s", "s", "lower"),
    ("types.intern.self_s", "s", "lower"),
    ("types.intern.distinct_types", "count", "lower"),
    ("infer.dedup.self_s", "s", "lower"),
    ("infer.dedup.memo_hit_ratio", "ratio", "higher"),
    ("infer.dedup.fuse_calls", "count", "lower"),
    ("infer.dedup.auto_on", "bool", "higher"),
    ("infer.fuse.self_s", "s", "lower"),
    ("infer.fuse.calls", "count", "lower"),
    ("infer.fuse.ns_per_call", "ns", "lower"),
    ("engine.map_s", "s", "lower"),
    ("engine.reduce_s", "s", "lower"),
    ("engine.worker_busy_ratio", "ratio", "higher"),
    ("engine.partition_skew", "ratio", "lower"),
    ("engine.parallel_speedup", "ratio", "higher"),
    ("infer.profile.self_s", "s", "lower"),
    ("infer.profile.mb_per_s", "MB/s", "higher"),
    ("infer.profile.merge_s", "s", "lower"),
    ("obs.recorder.self_s", "s", "lower"),
    ("obs.metrics_overhead_ratio", "ratio", "lower"),
    ("types.print.self_s", "s", "lower"),
    ("serve.lag_bytes_max", "bytes", "lower"),
    ("serve.checkpoint_bytes", "bytes", "lower"),
    ("serve.checkpoint_overhead_ratio", "ratio", "lower"),
    ("traced.sum_ratio", "ratio", "higher"),
    ("driver.late_ms_max", "ms", "lower"),
]


def harness_json(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} failed: {done.stderr.decode(errors='replace')}")
    return json.loads(done.stdout)


def cli_walls(cmds, work, expected, tally):
    """Median wall of each command over `REPS` alternating runs; every run's
    stdout is checked against `expected`."""
    walls = [[] for _ in cmds]
    stdout = os.path.join(work, "traced-stdout")
    for _ in range(REPS):
        for cmd, times in zip(cmds, walls):
            run = run_child(cmd, stdout)
            with open(stdout, "rb") as f:
                ok, reason = measure.same_output(expected, f.read())
            tally.record(run.ok and ok, reason or f"exit status {run.status}")
            times.append(run.wall_s)
    return [measure.median(times) for times in walls]


def directory_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


class ServeLayer:
    """The daemon on the workload's file, one repetition at a time.

    Each repetition catches up the whole file without checkpoints, then
    with them; the last one follows with an open-loop tail at the serve
    workload's rate that re-appends the file's first records. The
    daemon's progress is sampled throughout the checkpointed sessions.
    """

    def __init__(self, w, bins, inputs, work, tally):
        self.bins, self.work, self.tally = bins, work, tally
        self.lines = split_lines(inputs.input)
        self.rate = w if isinstance(w, ServeWorkload) else ServeWorkload("", "", None, "serve", "")
        again = self.lines[:min(len(self.lines) // 4, 40 * self.rate.batch)]
        self.batches = [again[i:i + self.rate.batch] for i in range(0, len(again), self.rate.batch)]
        self.again = len(again)
        self.expected = inputs.read(inputs.text).decode()
        self.lags, self.polls = [], 0
        self.plain_s, self.durable_s = [], []

    def catch_up(self, name, checkpoint, tail):
        session = Session(self.bins, os.path.join(self.work, name), checkpoint)
        if checkpoint:
            session.on_poll = lambda: self.sample_lag(session)
        try:
            seconds = session.catch_up(self.lines)
            if tail:
                self.due, self.sent, visible = session.tail(self.batches, self.rate.interval_ms / 1000.0)
            reply = session.schema()
        finally:
            run = session.close()
        total = len(self.lines) + (self.again if tail else 0)
        ok = run.ok and seconds is not None and reply is not None and reply["records"] == total
        if ok and not tail:
            ok = reply["schema"] == self.expected
        self.tally.record(ok, f"daemon (checkpoints {checkpoint}) lost records or served a wrong schema")
        if tail:
            _, failed = measure.visible_latencies_ms(self.due, visible, DEADLINE_S)
            for i in failed:
                self.tally.record(False, f"traced tail batch {i} not visible before the deadline")
            self.checkpoint_bytes = directory_bytes(session.checkpoint_dir)
        return seconds or float("inf")

    def sample_lag(self, session):
        """Every fourth health poll also reads how many bytes the daemon has
        consumed (its offset gauge); the lag is what was appended beyond it.
        The daemon's own lag gauge is set at the end of each poll, once the
        reader has caught up, so it reads 0 between polls."""
        self.polls += 1
        if self.polls % 4 == 0:
            appended = session.appended_bytes
            metrics = session.request({"op": "metrics"})
            if metrics is not None:
                offset = metrics["gauges"].get('typefuse_source_offset_bytes{source="s"}', 0)
                self.lags.append(max(0, appended - offset))

    def repeat(self, rep, last):
        """One repetition; returns the catch-up time without checkpoints."""
        self.plain_s.append(self.catch_up(f"traced-{rep}-plain", False, False))
        self.durable_s.append(self.catch_up(f"traced-{rep}-durable", True, last))
        return self.plain_s[-1]

    def metrics(self):
        return {
            "serve.lag_bytes_max": float(max(self.lags, default=0)),
            "serve.checkpoint_bytes": float(self.checkpoint_bytes),
            "serve.checkpoint_overhead_ratio": measure.median(self.durable_s) / measure.median(self.plain_s),
            "driver.late_ms_max": max(measure.lateness_ms(self.due, self.sent)),
        }


def run_traced(w, bins, inputs, work, workers):
    """`REPS` repetitions, each pairing one wall of the shipped command at one
    worker with one harness pass over every layer right after it, so the
    layer sum and the wall it is compared with see the same machine state."""
    tally = measure.Tally()
    pretty = inputs.read(inputs.pretty)
    expected = {"schema": pretty}
    if w.route == "profile":
        expected["profile"] = inputs.read(inputs.profile)
    serve = ServeLayer(w, bins, inputs, work, tally)
    passes, ratios = [], []
    for rep in range(REPS):
        if w.route == "serve":
            wall = serve.repeat(rep, rep == REPS - 1)
        else:
            serve.repeat(rep, rep == REPS - 1)
            run, ok, reason = batch_op(w, bins, inputs, work, 1, expected)
            tally.record(ok, reason)
            wall = run.wall_s
        layers = harness_json([bins.harness, "trace", "--input", inputs.input, "--workers", str(workers),
                               "--route", w.route])
        passes.append(layers)
        ratios.append(layers["on_path_s"] / wall)
    metrics = {name: measure.median([p[name] for p in passes]) for name in passes[0]}
    metrics.update(harness_json([bins.allocs, "--input", inputs.input]))

    infer = [bins.typefuse, "infer", inputs.input, "--workers", str(workers)]
    with_metrics = infer + ["--metrics-json", os.path.join(work, "metrics.json")]
    with_wall, without_wall = cli_walls([with_metrics, infer], work, pretty, tally)
    metrics["obs.metrics_overhead_ratio"] = with_wall / without_wall
    metrics.update(serve.metrics())
    metrics["traced.sum_ratio"] = measure.median(ratios)

    details = {"sum_ratios": ratios, "sum_ratio_margin": SUM_RATIO_MARGIN}
    lo, hi = SUM_RATIO_MARGIN
    tally.record(lo <= metrics["traced.sum_ratio"] <= hi,
                 f"traced.sum_ratio {metrics['traced.sum_ratio']:.3f} outside [{lo}, {hi}]: "
                 "the on-path layers do not account for the wall")
    return {name: metrics[name] for name, _, _ in PER_LAYER}, tally, details
