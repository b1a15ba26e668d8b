"""Per-layer metrics from a traced run (perfbench-tracer's output).

The tracer writes `spans.jsonl` (one span per layer call), `stats.jsonl`
(simulated counters of each simulation it drove) and `counts.json`
(walls and named counts). Each metric's source span or counter is
named next to it; README.md maps every layer metric to the end-to-end
metric it should move.
"""

import json
import os

import stats

# Design families in registry order (`fc_sweep --list-designs`).
FAMILIES = ["baseline", "block", "page", "footprint", "subblock", "hotpage",
            "pagedirty", "alloy", "banshee", "gemini", "ideal", "ideallow"]
# The families that cache: baseline has no stacked DRAM, and the two
# ideal bounds use it as memory, never evicting.
CACHING = FAMILIES[1:10]


def load(out):
    with open(os.path.join(out, "spans.jsonl")) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    with open(os.path.join(out, "stats.jsonl")) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    with open(os.path.join(out, "counts.json")) as f:
        counts = json.load(f)
    return {"spans": spans, "stats": rows, "counts": counts}


def select(spans, name, family=None):
    return [s for s in spans if s["name"] == name and (family is None or s["family"] == family)]


def dur(s):
    return s["end_ns"] - s["start_ns"]


def ns_per_unit(spans):
    """Host nanoseconds per unit of work (record, access) over spans."""
    units = sum(s["n"] for s in spans)
    if not units:
        raise ValueError(f"no work recorded in {spans[:1]}")
    return sum(dur(s) for s in spans) / units


def median_dur(spans, scale):
    if not spans:
        raise ValueError("no spans to take a median of")
    return stats.median([dur(s) for s in spans]) / scale


def counter_rows(rows, family):
    """The simulations a family's counters come from: the workload's
    own points when the main pass has them, else the probes' detailed
    replay, else their functional replay."""
    for source in ("main", "detailed", "functional"):
        picked = [r for r in rows if r["source"] == source and r["family"] == family]
        if picked:
            return picked
    return []


def window(row, key):
    """A counter over the measured window when the row has one (the
    sweep's detailed points), else over the whole simulation."""
    return row["window"][key] if "window" in row else row[key]


def serve_figures(trace, responses, classes):
    """Serve-layer figures of a session. `responses[i]` is request i's
    (last line object, point lines, fresh point records), `classes[i]`
    its class; request 0 is the store build."""
    run_spec = {"memo": [], "fresh": []}
    memo_points = all_points = replayed = 0
    busy = 0.0
    request_ns = {int(s["tag"]): dur(s) for s in select(trace["spans"], "serve.request")}
    outside = []
    for i, (cls, (summary, points, fresh)) in enumerate(zip(classes, responses)):
        if summary["type"] != "summary":
            continue
        busy += summary["wall_secs"]
        replayed += sum(p["warmup_records"] + p["measured_records"] for p in fresh)
        if i == 0:
            continue
        all_points += len(points)
        memo_points += len(points) - len(fresh)
        if cls in run_spec:
            run_spec[cls].append(summary["wall_secs"] * 1000)
        if cls == "memo" and i in request_ns:
            outside.append(request_ns[i] / 1e6 - summary["wall_secs"] * 1000)
    session = select(trace["spans"], "session")
    return {
        "run_spec_ms.memo": stats.median(run_spec["memo"]),
        "run_spec_ms.fresh": stats.median(run_spec["fresh"]),
        "store_hit_ratio": memo_points / all_points,
        "records_replayed": replayed,
        "busy_frac": busy / (sum(dur(s) for s in session) / 1e9),
        "outside_ms": stats.median(outside) if outside else 0.0,
    }


def metrics(run, trace, workload, threads, serve):
    spans, rows, counts = trace["spans"], trace["stats"], trace["counts"]
    m = {}

    m["trace.synth_ns_per_rec"] = ns_per_unit(select(spans, "trace.synth"))
    detailed_base = ns_per_unit(select(spans, "sim.detailed", "baseline"))
    functional_base = ns_per_unit(select(spans, "sim.functional", "baseline"))
    m["sim.engine_ns_per_rec"] = detailed_base
    m["sim.functional_ns_per_rec"] = functional_base

    for f in FAMILIES:
        m[f"cache.{f}.detailed_ns_per_rec"] = ns_per_unit(select(spans, "sim.detailed", f)) - detailed_base
        m[f"cache.{f}.functional_ns_per_rec"] = ns_per_unit(select(spans, "sim.functional", f)) - functional_base
        m[f"cache.{f}.build_ms"] = median_dur(select(spans, "sim.build", f), 1e6)
        m[f"cache.{f}.checkpoint_ms"] = median_dur(select(spans, "sim.checkpoint", f), 1e6)
    for f in CACHING:
        picked = counter_rows(rows, f)
        m[f"cache.{f}.evictions"] = sum(window(r, "evictions") for r in picked)
        accesses = sum(window(r, "accesses") for r in picked)
        m[f"cache.{f}.hit_ratio"] = sum(window(r, "hits") for r in picked) / accesses if accesses else 0.0

    fp = counter_rows(rows, "footprint")
    covered = sum(r["covered"] for r in fp)
    under = sum(r["underpredicted"] for r in fp)
    over = sum(r["overpredicted"] for r in fp)
    m["footprint.fht_coverage"] = covered / (covered + under) if covered + under else 0.0
    m["footprint.fht_accuracy"] = covered / (covered + over) if covered + over else 0.0
    m["footprint.singleton_bypasses"] = sum(r["singleton_bypasses"] for r in fp)

    m["dram.offchip.ns_per_access"] = ns_per_unit(select(spans, "dram.access", "offchip"))
    m["dram.stacked.ns_per_access"] = ns_per_unit(select(spans, "dram.access", "stacked"))
    sims = [r for f in FAMILIES for r in counter_rows(rows, f)]
    m["dram.offchip.accesses"] = sum(window(r, "offchip_accesses") for r in sims)
    m["dram.stacked.accesses"] = sum(window(r, "stacked_accesses") for r in sims)

    sampled = [r for r in rows if r["source"] == "sample"]
    total = sum(r["total_records"] for r in sampled)
    m["sample.point_s"] = median_dur(select(spans, "sample.run_sampled"), 1e9)
    m["sample.replayed_frac"] = sum(r["replayed_records"] for r in sampled) / total
    m["sample.measured_frac"] = sum(r["measured_records"] for r in sampled) / total
    m["sample.intervals"] = sum(r["intervals"] for r in sampled)

    synthesized = counts["trace_cache.records_synthesized"]
    m["trace_cache.records_synthesized"] = synthesized
    if workload == "serve-mixed":
        m["executor.busy_frac"] = serve["busy_frac"]
        replayed = serve["records_replayed"]
    else:
        grids = select(spans, "grid")
        m["executor.busy_frac"] = (sum(dur(s) for s in select(spans, "point"))
                                   / (threads * sum(dur(s) for s in grids)))
        replayed = counts["trace_cache.records_replayed"]
    m["trace_cache.reuse_ratio"] = replayed / synthesized if synthesized else 0.0

    m["store.open_ms"] = median_dur(select(spans, "store.open"), 1e6)
    m["store.get_us"] = median_dur(select(spans, "store.get"), 1e3)
    m["store.append_us"] = median_dur(select(spans, "durable.append"), 1e3)
    m["store.hit_ratio"] = serve["store_hit_ratio"]
    m["emit.point_record_us"] = median_dur(select(spans, "emit.point_record_json"), 1e3)
    m["serve.parse_us"] = median_dur(select(spans, "json.parse"), 1e3)
    m["serve.run_spec_ms.memo"] = serve["run_spec_ms.memo"]
    m["serve.run_spec_ms.fresh"] = serve["run_spec_ms.fresh"]
    m["serve.outside_ms"] = serve["outside_ms"]

    m["obs.trace_overhead_frac"] = obs_overhead(counts)

    report(run, spans, counts, workload)
    return m


def obs_overhead(counts):
    """fc-obs tracing's cost: the fc-obs traced wall of the overhead
    subset over the mean of its untraced walls before and after, minus 1."""
    untraced = (counts["untraced_first_s"] + counts["untraced_last_s"]) / 2
    return counts["obs_traced_s"] / untraced - 1


def report(run, spans, counts, workload):
    """Prints the pass walls and each layer's self time in the traced run."""
    layers = stats.layer_self_times(spans)
    total = sum(layers.values()) or 1
    run.say(f"{workload} traced: overhead subset {counts['untraced_first_s']:.3f} s untraced, "
            f"{counts['obs_traced_s']:.3f} s fc-obs traced ({counts['obs_events']} events), "
            f"{counts['untraced_last_s']:.3f} s untraced; whole main pass recorded in "
            f"{counts['recorded_s']:.3f} s, {len(spans)} spans")
    run.say("  layer self time (all threads, main pass and probes):")
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        run.say(f"    {layer:<26} {ns / 1e9:9.3f} s  {100 * ns / total:5.1f}%")
