"""The four workloads: their inputs, set-up, operations and end-to-end metrics.

Why each workload exists, and which layers it stresses or bypasses, is in
perfbench/README.md; the table below is what runs.
"""

import hashlib
import os
import shutil
import threading
import time

import measure
from system import Daemon, check_call, run_child

# Set-up is repeated this many times per run; setup_s is their median.
SETUPS = 3
# A serve batch not visible this long after it was due has failed.
DEADLINE_S = 5.0
# How often the benchmark asks the daemon for `health` while it waits.
POLL_S = 0.005


class Workload:
    def __init__(self, name, profile, records, route, why):
        self.name = name
        self.profile = profile
        self.records = records
        self.route = route  # "infer", "profile" or "serve"
        self.why = why


class ServeWorkload(Workload):
    """Catch-up on a fixed backlog, then an open-loop tail at a fixed rate."""

    # Many short rounds rather than a few long ones: the machine's speed
    # drifts over seconds, and each round gives one catch-up sample.
    rounds = 12
    backlog = 5000
    batch = 20
    interval_ms = 37  # 27 batches/s, 540 records/s; not a multiple of the 50 ms poll

    def tail_batches(self, seconds):
        # Each round's tail lasts 4% of the run, so twelve rounds and
        # their catch-ups fill the measured time.
        return max(10, int(seconds * 40 // self.interval_ms))


WORKLOADS = {
    w.name: w
    for w in [
        Workload("infer-github", "github", 10000, "infer",
                 "shape-redundant records: dedup auto turns on, map and the serial read dominate"),
        Workload("infer-wikidata", "wikidata", 4000, "infer",
                 "ids-as-keys records almost never repeat: dedup stays off, plain fusion of wide records dominates"),
        Workload("profile-twitter", "twitter", 8000, "profile",
                 "the profiled Map+Reduce route of infer --profile-json over tweets and deletes"),
        ServeWorkload("serve-twitter", "twitter", None, "serve",
                      "serve catch-up of a 5000-record backlog, then an open-loop tail of 20-record batches "
                      "every 37 ms (540 records/s)"),
    ]
}


def cache_key(bins):
    """Inputs and references are kept per build of the program and harness."""
    h = hashlib.sha256()
    for path in (bins.typefuse, bins.harness):
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


class Inputs:
    """One workload's input file and the references its outputs must equal."""

    FILES = ("input.ndjson", "reference.pretty", "reference.text", "profile.json")

    def __init__(self, directory):
        self.dir = directory
        self.input = os.path.join(directory, "input.ndjson")
        self.pretty = os.path.join(directory, "reference.pretty")
        self.text = os.path.join(directory, "reference.text")
        self.profile = os.path.join(directory, "profile.json")

    def read(self, path):
        with open(path, "rb") as f:
            return f.read()


def record_count(w, seconds):
    if isinstance(w, ServeWorkload):
        return w.backlog + w.batch * w.tail_batches(seconds)
    return w.records


def set_up_once(w, bins, seed, seconds, directory):
    """Generate the input and compute its references; returns seconds taken."""
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs(directory)
    started = time.perf_counter()
    gen = [bins.typefuse, "generate", "--profile", w.profile,
           "--records", str(record_count(w, seconds)), "--seed", str(seed)]
    proc = run_child(gen, inputs.input + ".tmp")
    if not proc.ok:
        raise SystemExit(f"perfbench: {' '.join(gen)} exited {proc.status}")
    os.replace(inputs.input + ".tmp", inputs.input)
    check_call([bins.harness, "reference", "--input", inputs.input,
                "--out", inputs.pretty, "--text-out", inputs.text])
    if w.route == "profile":
        check_call([bins.harness, "profile-reference", "--input", inputs.input, "--out", inputs.profile])
    return time.perf_counter() - started


def set_up(w, bins, seed, seconds, cache_root, work, count):
    """Set up `count` times; keep the first result in the cache.

    Every set-up generates the input and computes the reference from
    scratch, so setup_s never depends on what the cache holds. The cached
    copy is what the measured operations read, and each later set-up must
    reproduce it byte for byte: the same seed gives the same input.
    """
    cached = Inputs(os.path.join(cache_root, f"{w.name}-{seed}-{seconds}"))
    times = []
    for i in range(count):
        fresh = os.path.join(work, f"setup-{i}")
        times.append(set_up_once(w, bins, seed, seconds, fresh))
        if not os.path.exists(cached.input):
            os.makedirs(os.path.dirname(cached.dir), exist_ok=True)
            shutil.rmtree(cached.dir, ignore_errors=True)
            os.replace(fresh, cached.dir)
            continue
        produced = Inputs(fresh)
        for name in Inputs.FILES:
            a, b = os.path.join(cached.dir, name), os.path.join(fresh, name)
            if os.path.exists(a) != os.path.exists(b) or (
                    os.path.exists(a) and cached.read(a) != produced.read(b)):
                raise SystemExit(f"perfbench: set-up of {w.name} seed {seed} is not deterministic ({name})")
        shutil.rmtree(fresh)
    return cached, times


def batch_op(w, bins, inputs, work, workers, expected):
    """One run of the shipped command; returns (ChildRun, ok, reason)."""
    stdout = os.path.join(work, "stdout")
    cmd = [bins.typefuse, "infer", inputs.input, "--workers", str(workers)]
    profile_out = os.path.join(work, "profile-out.json")
    if w.route == "profile":
        if os.path.exists(profile_out):
            os.remove(profile_out)
        cmd += ["--profile-json", profile_out]
    run = run_child(cmd, stdout)
    if not run.ok:
        return run, False, f"exit status {run.status}"
    with open(stdout, "rb") as f:
        ok, reason = measure.same_output(expected["schema"], f.read())
    if ok and w.route == "profile":
        with open(profile_out, "rb") as f:
            ok, reason = measure.same_output(expected["profile"], f.read())
            reason = reason and "profile " + reason
    return run, ok, reason


def run_batch(w, bins, inputs, work, workers, seconds):
    expected = {"schema": inputs.read(inputs.pretty)}
    if w.route == "profile":
        expected["profile"] = inputs.read(inputs.profile)
    tally = measure.Tally()
    # One warm-up run loads the binary and the input into the page cache;
    # it is checked like every other run but not timed.
    _, ok, reason = batch_op(w, bins, inputs, work, workers, expected)
    tally.record(ok, reason)
    runs = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        run, ok, reason = batch_op(w, bins, inputs, work, workers, expected)
        tally.record(ok, reason)
        runs.append((run, ok))
    good = [r for r, ok in runs if ok] or [r for r, _ in runs]
    size = os.path.getsize(inputs.input)
    walls_ms = [r.wall_s * 1000.0 for r in good]
    tail_ms, tail_pct, n = measure.tail(walls_ms)
    metrics = {
        "mb_per_s": size / 1e6 / measure.median([r.wall_s for r in good]),
        "cpu_s_per_gb": measure.median([r.cpu_s for r in good]) / (size / 1e9),
        "peak_rss_mb": measure.median([r.peak_rss_mb for r in good]),
        "visible_p50_ms": measure.median(walls_ms),
        "visible_tail_ms": tail_ms,
    }
    details = {"runs": len(runs), "input_bytes": size, "visible_tail_percentile": tail_pct,
               "visible_samples": n}
    return metrics, tally, details


def split_lines(path):
    with open(path, "rb") as f:
        return f.read().splitlines(keepends=True)


class Session:
    """One daemon watching a fresh file: catch-up, then an open-loop tail."""

    def __init__(self, bins, work, checkpoint):
        os.makedirs(work, exist_ok=True)
        self.live = os.path.join(work, "live.ndjson")
        self.checkpoint_dir = os.path.join(work, "checkpoints") if checkpoint else None
        self.daemon = Daemon(bins.typefuse, self.live, self.checkpoint_dir, os.path.join(work, "serve.log"))
        self.out = open(self.live, "ab")
        self.appended = 0
        self.appended_bytes = 0
        # Called after every health poll, from whichever thread polled.
        self.on_poll = None
        # Set once the daemon stops answering; its operations then fail.
        self.broken = False

    def request(self, op):
        """One protocol request, or None once the daemon stops answering."""
        if self.broken:
            return None
        try:
            return self.daemon.request(op)
        except (OSError, ValueError, RuntimeError):
            self.broken = True
            return None

    def records(self):
        health = self.request({"op": "health"})
        if health is not None and self.on_poll is not None:
            self.on_poll()
        return -1 if health is None else health["records"]

    def append(self, lines):
        data = b"".join(lines)
        self.out.write(data)
        self.out.flush()
        self.appended += len(lines)
        self.appended_bytes += len(data)

    def catch_up(self, lines):
        """Append `lines` at once; seconds until all are visible, or None."""
        started = time.perf_counter()
        self.append(lines)
        while time.perf_counter() - started < DEADLINE_S and not self.broken:
            if self.records() >= self.appended:
                return time.perf_counter() - started
            time.sleep(POLL_S)
        return None

    def tail(self, batches, interval_s):
        """Open loop: batch j is due at start + j * interval whatever the daemon does.

        A poller thread asks `health` continuously and notes when each
        batch's records first show. Returns (due, sent, visible) times per
        batch.
        """
        targets = []
        count = self.appended
        for b in batches:
            count += len(b)
            targets.append(count)
        visible = [None] * len(batches)
        stop = threading.Event()

        def poll():
            k = 0
            while k < len(targets) and not stop.is_set() and not self.broken:
                records = self.records()
                now = time.perf_counter()
                while k < len(targets) and records >= targets[k]:
                    visible[k] = now
                    k += 1
                time.sleep(POLL_S)

        poller = threading.Thread(target=poll)
        start = time.perf_counter() + 0.05
        due = [start + j * interval_s for j in range(len(batches))]
        sent = []
        poller.start()
        try:
            for d, b in zip(due, batches):
                pause = d - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent.append(time.perf_counter())
                self.append(b)
            end = due[-1] + DEADLINE_S
            while visible[-1] is None and time.perf_counter() < end and poller.is_alive():
                time.sleep(0.005)
        finally:
            stop.set()
            poller.join()
        return due, sent, visible

    def schema(self):
        return self.request({"op": "schema", "source": "s"})

    def close(self):
        self.out.close()
        return self.daemon.stop()


def run_serve(w, bins, inputs, work):
    """`rounds` daemons, each: launch (set-up), catch-up, open-loop tail."""
    lines = split_lines(inputs.input)
    backlog = lines[:w.backlog]
    rest = lines[w.backlog:]
    batches = [rest[i:i + w.batch] for i in range(0, len(rest), w.batch)]
    expected = inputs.read(inputs.text).decode()
    total = len(lines)
    backlog_bytes = sum(map(len, backlog))
    ingested = sum(map(len, lines))
    tally = measure.Tally()
    catch_ups, cpus, rsss, latencies, late, launches = [], [], [], [], [], []
    for r in range(w.rounds):
        launched = time.perf_counter()
        session = Session(bins, os.path.join(work, f"round-{r}"), checkpoint=True)
        launches.append(time.perf_counter() - launched)
        try:
            catch_s = session.catch_up(backlog)
            ops = [(catch_s is not None, f"round {r}: backlog not visible before the deadline")]
            if catch_s is not None:
                catch_ups.append(catch_s)
            due, sent, visible = session.tail(batches, w.interval_ms / 1000.0)
            lat, failed = measure.visible_latencies_ms(due, visible, DEADLINE_S)
            latencies += lat
            late += measure.lateness_ms(due, sent)
            ops += [(i not in failed, f"round {r}: batch {i} not visible before the deadline")
                    for i in range(len(batches))]
            reply = session.schema()
        finally:
            run = session.close()
        problems = []
        if not run.ok:
            problems.append(f"daemon exit status {run.status}")
        if reply is None:
            problems.append("daemon stopped answering")
        elif reply["records"] != total:
            problems.append(f"served {reply['records']} records, appended {total}")
        elif reply["schema"] != expected:
            problems.append("served schema differs from the reference")
        for ok, reason in ops:
            # A wrong final schema or a crashed daemon taints every batch
            # of the round: each counts as failed.
            if problems:
                ok, reason = False, f"round {r}: " + "; ".join(problems)
            tally.record(ok, reason)
        cpus.append(run.cpu_s)
        rsss.append(run.peak_rss_mb)
    tail_ms, tail_pct, n = measure.tail(latencies)
    metrics = {
        "mb_per_s": backlog_bytes / 1e6 / measure.median(catch_ups) if catch_ups else 1e-9,
        "cpu_s_per_gb": measure.median(cpus) / (ingested / 1e9),
        "peak_rss_mb": measure.median(rsss),
        "visible_p50_ms": measure.median(latencies),
        "visible_tail_ms": tail_ms,
    }
    details = {"rounds": w.rounds, "backlog_bytes": backlog_bytes, "batches_per_round": len(batches),
               "visible_tail_percentile": tail_pct, "visible_samples": n,
               "appender_late_ms_max": max(late) if late else 0.0,
               "catch_up_s": catch_ups, "launch_s": launches}
    return metrics, tally, details
