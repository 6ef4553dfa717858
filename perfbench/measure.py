"""Pure measurement rules of the benchmark, kept apart so they can be tested.

- `median`: the statistic every metric is reported with.
- `tail`: the highest percentile with at least ten samples beyond it.
- `Tally`: attempted and failed operations; nothing that fails is dropped.
- `lateness_ms`: how late an open-loop generator ran against its schedule.
- `visible_latencies_ms`: append-to-visible latency of each open-loop batch.
- `same_output`: the byte-for-byte reference check.
"""

import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values):
    """The tail sample, its percentile and the sample count.

    The tail is the highest percentile with at least `TAIL_BEYOND` samples
    beyond it: in n sorted samples, rank n - 10 (1-based). It never falls
    below the median: with 22 samples or fewer it is the upper median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


class Tally:
    """Operations attempted and failed, with the reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failures.append(reason or "failed")
        return ok

    @property
    def failed(self):
        return len(self.failures)

    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def success_ratio(self):
        return 1.0 - self.failed_ratio()


def lateness_ms(due, sent):
    """Per-batch lateness in ms: how long after its due time each batch was sent."""
    if len(due) != len(sent):
        raise ValueError("every due batch needs a send time")
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


def visible_latencies_ms(due, visible, deadline_s):
    """Append-to-visible latency of each batch, timed from when it was due.

    `visible[i]` is when the daemon first reported batch i, or None if it
    never did. A batch seen later than `deadline_s` after its due time, or
    never, fails; it still yields a sample, at the deadline, so failures
    count against the latency percentiles instead of vanishing. Returns
    (latencies, failed_indices).
    """
    latencies, failed = [], []
    for i, (d, v) in enumerate(zip(due, visible)):
        if v is None or v - d > deadline_s:
            failed.append(i)
            latencies.append(deadline_s * 1000.0)
        else:
            latencies.append(max(0.0, (v - d) * 1000.0))
    return latencies, failed


def same_output(expected, actual):
    """Byte-for-byte reference check; returns (ok, reason)."""
    if expected == actual:
        return True, ""
    n = min(len(expected), len(actual))
    at = next((i for i in range(n) if expected[i] != actual[i]), n)
    return False, (
        f"output differs from the reference at byte {at} "
        f"(expected {len(expected)} bytes, got {len(actual)})"
    )
