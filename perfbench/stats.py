"""Pure helpers of the benchmark: percentiles, names, digests, self time.

Kept free of process handling so `test_stats.py` can check them alone:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import json
import re
import statistics

# A metric name: starts with a letter or digit; letters, digits, `_`,
# `.` and `-`; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# A unit: letters, digits, `_`, `/`, `%`, `.` and `-`; at most 16.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Samples that must lie beyond a percentile for it to count as a tail.
TAIL_BEYOND = 10


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns `(value, percentile, n)`. With fewer than eleven samples no
    percentile has ten samples beyond it; the maximum is returned and
    the percentile reads 100, so the sample count tells the reader what
    the figure is.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def windowed_tail(values, width):
    """The tail of each consecutive window of `width` samples (arrival
    order; the remainder joins the last window), and their median.

    A session-wide tail over thousands of samples sits at p99.5 and
    mostly measures scheduler hiccups; per-window tails over `width`
    samples sit at a fixed, lower percentile and their median is steady
    from run to run. Returns `(median tail, percentile of a window,
    n, windows)`; with fewer than `width` samples it is `tail(values)`.
    """
    if not values:
        raise ValueError("tail of no samples")
    count = max(1, len(values) // width)
    tails, pct = [], None
    for i in range(count):
        window = values[i * width:] if i == count - 1 else values[i * width:(i + 1) * width]
        value, pct, _ = tail(window)
        tails.append(value)
    return median(tails), pct, len(values), count


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def canonical(value):
    """Canonical JSON text: sorted keys, no whitespace, floats as Python's
    shortest round-trip repr (the same value from either side of a
    decimal round trip prints the same)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(records):
    """sha256 over a list of JSON-compatible records, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(canonical(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def covered_span(intervals):
    """Total length of the union of `(start, end)` intervals."""
    total, cursor = 0, None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of that
    interval its child spans cover (children on parallel threads can
    overlap; the union counts once). Returns `{span id: self ns}`."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        inner = [
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(s["id"], [])
            if c["end_ns"] > start and c["start_ns"] < end
        ]
        out[s["id"]] = (end - start) - covered_span(inner)
    return out


def layer_self_times(spans):
    """Sums span self times by layer: `{layer: ns}`."""
    own = self_times(spans)
    layers = {}
    for s in spans:
        layers[s["layer"]] = layers.get(s["layer"], 0) + own[s["id"]]
    return layers
