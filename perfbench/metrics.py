"""Metric math for the benchmark: turns the raw samples `perfbench measure`
prints into the end-to-end and per-layer metrics named in BENCHMARK.json.

Pure functions only, so `tests/test_metrics.py` can pin them.
"""

import math
import statistics

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("loop.iterations", "count"),
    ("loop.wall_s_p90", "s"),
    ("loop.samples_beyond_p90", "count"),
    ("trace.generate_ms", "ms"),
    ("trace.segments", "count"),
    ("trace.distinct_loads", "count"),
    ("traffic.simulated_s", "sim_s"),
    ("core.infra_build_ms", "ms"),
    ("opt.solve_ms", "ms"),
    ("opt.solve_ms_max", "ms"),
    ("opt.verify_ms", "ms"),
    ("opt.ns_per_state_boundary", "ns"),
    ("opt.solves", "count"),
    ("opt.states", "count"),
    ("opt.boundaries", "count"),
    ("opt.states_pruned", "count"),
    ("opt.schedule_records", "count"),
    ("engine.event_cell_ms_p50", "ms"),
    ("engine.event_cell_ms_max", "ms"),
    ("engine.per_second_cell_ms_p50", "ms"),
    ("engine.per_second_cell_ms_max", "ms"),
    ("engine.cells_cpu_s", "s"),
    ("engine.ns_per_segment", "ns"),
    ("engine.decision_ratio", "ratio"),
    ("engine.event_speedup", "x"),
    ("engine.segments_batched", "count"),
    ("engine.events_skipped", "count"),
    ("engine.reconfigurations", "count"),
    ("scenario.ub_global_ms", "ms"),
    ("scenario.ub_per_day_ms", "ms"),
    ("scenario.lower_bound_ms", "ms"),
    ("scenario.bml_ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.load_us_p50", "us"),
    ("cache.store_us_p50", "us"),
    ("cache.cell_hit_rate", "ratio"),
    ("cache.opt_hit_rate", "ratio"),
    ("cache.bytes_per_cell", "B"),
    ("journal.append_us_p50", "us"),
    ("journal.bytes_per_cell", "B"),
    ("artifact.render_us_per_cell", "us"),
    ("aggregate.ms", "ms"),
    ("phase.opt_solve_ms", "ms"),
    ("phase.cells_ms", "ms"),
    ("phase.render_ms", "ms"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.utilization", "ratio"),
    ("share.trace", "frac"),
    ("share.core", "frac"),
    ("share.opt", "frac"),
    ("share.engine", "frac"),
    ("share.cache", "frac"),
    ("share.journal", "frac"),
    ("share.artifact", "frac"),
    ("share.aggregate", "frac"),
    ("share.unattributed", "frac"),
    ("tracing.overhead_frac", "ratio"),
    ("check.error_rate", "ratio"),
    ("check.result_max_rel_err", "ratio"),
]

UNITS = dict(END_TO_END + PER_LAYER)


def ratio(num, den):
    """`num / den`, or 0 when the base is 0 (a hit rate with no lookups)."""
    return num / den if den else 0.0


def median(xs):
    """Median of `xs`, 0 for no samples (a layer that did no work)."""
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile `q` (0 < q <= 100) of `xs`, 0 if empty."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(xs, q):
    """How many samples lie strictly above the nearest-rank percentile `q`."""
    cut = percentile(xs, q)
    return sum(1 for x in xs if x > cut)


def quartile_spread(xs):
    """Distance between the first and third quartile as a share of the
    median, as `statistics.quantiles(xs, n=4)` gives the quartiles."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return ratio(q3 - q1, statistics.median(xs))


def decision_ratio(epochs, spans):
    """Engine decision epochs per accounting span."""
    return ratio(epochs, spans)


def pool_utilization(cells_cpu_s, phase_cells_ms, threads):
    """Busy share of the worker pool during the cell phase: per-cell time
    summed over cells, over the phase's wall time times the workers."""
    return ratio(cells_cpu_s, phase_cells_ms / 1e3 * threads)


def end_to_end(measured, setup, peak_rss_kb):
    """End-to-end metrics of one run: the median untraced iteration, the
    median set-up, and the measuring process's peak resident set."""
    return {
        "wall_s": median(measured["wall_s"]),
        "setup_s": median(setup["setup_s"]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def traced_layers(t):
    """Per-layer metrics of one traced iteration `t` (raw record from
    `perfbench measure --trace 1`); absent layers read 0."""
    g = lambda k: t.get(k, 0)  # noqa: E731
    solve, verify = g("solve_ms") or [], g("verify_ms") or []
    event, per_second = g("event_cell_ms") or [], g("per_second_cell_ms") or []
    load, store = g("load_us") or [], g("store_us") or []
    append, render = g("append_us") or [], g("render_us") or []
    state_boundaries = sum(s * b for s, b in zip(g("opt_states") or [], g("opt_boundaries") or []))
    cells_cpu_s = (sum(event) + sum(per_second)) / 1e3
    # The event-driven engine's own time: grid cells, or fig5's BML scenario.
    event_ms = sum(event) if event else g("bml_ms")
    scenarios_ms = [g("ub_global_ms"), g("ub_per_day_ms"), g("lower_bound_ms"), g("bml_ms")]
    m = {
        "trace.generate_ms": g("generate_ms"),
        "trace.segments": g("segments"),
        "trace.distinct_loads": g("distinct_loads"),
        "traffic.simulated_s": g("sim_seconds"),
        "core.infra_build_ms": g("infra_ms"),
        "opt.solve_ms": sum(solve),
        "opt.solve_ms_max": max(solve, default=0.0),
        "opt.verify_ms": sum(verify),
        "opt.ns_per_state_boundary": ratio(sum(solve) * 1e6, state_boundaries),
        "opt.solves": len(solve),
        "opt.states": sum(g("opt_states") or []),
        "opt.boundaries": sum(g("opt_boundaries") or []),
        "opt.states_pruned": g("states_pruned"),
        "opt.schedule_records": g("schedule_records"),
        "engine.event_cell_ms_p50": median(event),
        "engine.event_cell_ms_max": max(event, default=0.0),
        "engine.per_second_cell_ms_p50": median(per_second),
        "engine.per_second_cell_ms_max": max(per_second, default=0.0),
        "engine.cells_cpu_s": cells_cpu_s,
        "engine.ns_per_segment": ratio(event_ms * 1e6, g("event_segments")),
        "engine.decision_ratio": decision_ratio(g("event_epochs"), g("event_segments")),
        "engine.event_speedup": ratio(sum(per_second), sum(event)),
        "engine.segments_batched": g("event_segments"),
        "engine.events_skipped": g("events_skipped"),
        "engine.reconfigurations": g("reconfigurations"),
        "scenario.ub_global_ms": scenarios_ms[0],
        "scenario.ub_per_day_ms": scenarios_ms[1],
        "scenario.lower_bound_ms": scenarios_ms[2],
        "scenario.bml_ms": scenarios_ms[3],
        "cache.key_ms": g("key_ms"),
        "cache.load_us_p50": median(load),
        "cache.store_us_p50": median(store),
        "cache.cell_hit_rate": ratio(g("cell_hits"), g("cell_lookups")),
        "cache.opt_hit_rate": ratio(g("opt_hits"), g("opt_lookups")),
        "cache.bytes_per_cell": g("cache_entry_bytes"),
        "journal.append_us_p50": median(append),
        "journal.bytes_per_cell": ratio(g("append_bytes"), len(append)),
        "artifact.render_us_per_cell": ratio(sum(render), len(render)),
        "aggregate.ms": g("aggregate_ms"),
    }
    # Shares of the traced iteration's wall time, by the layer whose calls
    # fill it. Parallel stages (the cell fan-out, fig5's scenario tree)
    # count with their wall time, everything else with its summed calls.
    wall_ms = g("wall_s") * 1e3
    parts = {
        "share.trace": g("generate_ms"),
        "share.core": g("infra_ms"),
        "share.opt": sum(solve) + sum(verify),
        "share.engine": g("cells_wall_ms") or g("comparison_ms"),
        "share.cache": g("key_ms") + g("cache_open_ms") + (sum(load) + sum(store)) / 1e3,
        "share.journal": g("journal_ms") + sum(append) / 1e3,
        "share.artifact": sum(render) / 1e3 + g("artifact_io_ms"),
        "share.aggregate": g("aggregate_ms"),
    }
    for name, ms in parts.items():
        m[name] = ratio(ms, wall_ms)
    m["share.unattributed"] = 1.0 - sum(m[name] for name in parts)
    return m


def per_layer(measured, checked):
    """Per-layer metrics of one traced run: the median over traced
    iterations of each layer metric, plus the untraced run's phase spans,
    pool counters and the tracing overhead."""
    traced = measured["traced"]
    # fig5 runs no cell pool, so it reports no thread count.
    threads = measured.get("threads", 0)
    rows = [traced_layers(t) for t in traced]
    m = {name: median([r[name] for r in rows]) for name in rows[0]}
    phase_cells_ms = median(measured.get("phase_cells_ms", []))
    m.update({
        "loop.iterations": len(measured["wall_s"]),
        "loop.wall_s_p90": percentile(measured["wall_s"], 90),
        "loop.samples_beyond_p90": samples_beyond(measured["wall_s"], 90),
        "phase.opt_solve_ms": median(measured.get("phase_opt_solve_ms", [])),
        "phase.cells_ms": phase_cells_ms,
        "phase.render_ms": median(measured.get("phase_render_ms", [])),
        "pool.tasks": median(measured.get("pool_tasks", [])),
        "pool.steals": median(measured.get("pool_steals", [])),
        "pool.utilization": pool_utilization(m["engine.cells_cpu_s"], phase_cells_ms, threads),
        "tracing.overhead_frac": ratio(median([t["wall_s"] for t in traced]), median(measured["wall_s"])) - 1.0,
        "check.error_rate": ratio(checked["failed"], checked["attempted"]),
        "check.result_max_rel_err": checked["max_rel_err"],
    })
    return m


def render(values, names):
    """The `metrics` object of the result line: every name in `names` with
    its value and unit."""
    return {n: {"value": values[n], "unit": UNITS[n]} for n, _ in names}
