"""Per-layer tracing: which entry points are wrapped, and what they report.

:func:`install` wraps the public entry points of ``netmodel``, ``sources``,
``core``, ``probing``, ``genaddr``, ``serving``, ``addr`` and
``experiments`` with span-recording wrappers and count hooks;
:func:`per_layer_metrics` turns one traced job into the per-layer metrics
named in :data:`PER_LAYER` (the ``per_layer`` list of ``BENCHMARK.json``).

Layer ``*_s`` metrics are self times summed over the traced set-up and job.
A metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import numpy as np

#: Experiment modules, by the first id each implements (registry order).
EXPERIMENT_IDS = (
    "table1", "table2", "fig1", "fig2", "fig3", "table3", "table4", "fig4",
    "fig5", "table5", "murdock", "fig6", "fig7", "fig8", "table7", "fig10",
    "table9", "vantage_bias",
)

_QUERY_KINDS = ("point_hit", "point_miss", "prefix", "as")

#: Layers whose spans wrap a whole unit of their workload (an experiment
#: module's ``run``, one generation request): their self time is whatever the
#: layers under them do not claim, so ``trace.leaf_share`` leaves them out.
CATCH_ALL_LAYERS = frozenset({"experiments", "genaddr.pipeline"})

#: Every per-layer metric name and unit, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("netmodel.build_s", "s"),
    ("netmodel.builds", "count"),
    ("netmodel.probe_batch_s", "s"),
    ("netmodel.probe_batch_calls", "count"),
    ("netmodel.probe_cells", "count"),
    ("sources.assemble_s", "s"),
    ("sources.records", "count"),
    ("core.hitlist.run_day_p50_ms", "ms"),
    ("core.hitlist.run_day_p90_ms", "ms"),
    ("core.hitlist.merge_s", "s"),
    ("core.hitlist.rows_final", "count"),
    ("core.apd_s", "s"),
    ("core.apd.prefixes_probed", "count"),
    ("core.apd.probes_sent", "count"),
    ("core.apd.reprobe_ratio", "ratio"),
    ("core.sliding_window_s", "s"),
    ("core.clustering_s", "s"),
    ("core.clustering.networks", "count"),
    ("probing.scan_s", "s"),
    ("probing.waves", "count"),
    ("probing.targets", "count"),
    ("probing.fingerprint_s", "s"),
    ("probing.fingerprints", "count"),
    ("genaddr.pipeline_s", "s"),
    ("genaddr.entropy_ip_s", "s"),
    ("genaddr.entropy_ip.candidates", "count"),
    ("genaddr.sixgen_s", "s"),
    ("genaddr.sixgen.candidates", "count"),
    ("genaddr.response_rate", "ratio"),
    ("serving.publish_s", "s"),
    ("serving.snapshot_build_p50_ms", "ms"),
    ("serving.snapshot_build_p90_ms", "ms"),
    ("serving.snapshots_held", "count"),
    ("serving.query_s", "s"),
    *(
        (f"serving.{kind}_{q}_us", "us")
        for kind in _QUERY_KINDS
        for q in ("p50", "p90")
    ),
    ("serving.query_p50_us", "us"),
    ("serving.query_p90_us", "us"),
    ("serving.query_p99_us", "us"),
    *((f"serving.{kind}_count", "count") for kind in _QUERY_KINDS),
    ("serving.rows_returned", "count"),
    ("addr.lpm_lookups", "count"),
    ("addr.lpm_lookup_s", "s"),
    ("addr.lpm_rows", "count"),
    ("experiments.self_s", "s"),
    *((f"experiments.{eid}_s", "s") for eid in EXPERIMENT_IDS),
    ("host.kernel_p50_us", "us"),
    ("host.kernel_p90_us", "us"),
    ("host.kernel_inflation", "ratio"),
    ("raw.setup_s", "s"),
    ("raw.job_s", "s"),
    ("raw.unit_p90_ms", "ms"),
    ("raw.items_per_s", "1/s"),
    ("trace.job_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_share", "ratio"),
    ("trace.leaf_share", "ratio"),
    ("trace.spans", "count"),
)


def _add(**increments):
    """An ``on_exit`` hook adding fixed increments to the counts."""

    def hook(counts, result, args, kwargs, span):
        counts.update(increments)

    return hook


def install(tracer) -> None:
    """Wrap every traced entry point (undo with ``tracer.uninstall()``)."""
    import repro.sources.registry as sources_registry
    from repro.addr.batch import FlatLPM
    from repro.core.apd import AliasedPrefixDetector
    from repro.core.clustering import EntropyClustering
    from repro.core.hitlist import Hitlist, HitlistService
    from repro.core.sliding_window import SlidingWindowMerger
    from repro.experiments.runner import EXPERIMENTS
    from repro.genaddr.entropy_ip import EntropyIPGenerator
    from repro.genaddr.pipeline import TOOLS, GenerationPipeline
    from repro.genaddr.sixgen import SixGenGenerator
    from repro.netmodel.internet import SimulatedInternet
    from repro.probing.fingerprint import FingerprintProbe
    from repro.probing.scheduler import ScanScheduler
    from repro.serving.server import HitlistServer
    from repro.serving.snapshot import HitlistSnapshot

    def probe_cells(counts, result, args, kwargs, span):
        counts["netmodel.probe_batch_calls"] += 1
        counts["netmodel.probe_cells"] += int(result.responsive.size)

    def records(counts, result, args, kwargs, span):
        counts["sources.records"] += sum(len(s.record_arrays()[0]) for s in result.sources)

    def run_day(counts, result, args, kwargs, span):
        service, day = args[0], args[1]
        counts["core.apd.reprobed"] += service.apd_probe_counts[day]
        counts["core.apd.candidates"] += len(result.apd_result.outcomes)

    def probed(counts, result, args, kwargs, span):
        counts["core.apd.prefixes_probed"] += len(result)
        counts["core.apd.probes_sent"] += sum(o.probes_sent for o in result.values())

    def scanned(counts, result, args, kwargs, span):
        dynamics = kwargs.get("dynamics")
        active = dynamics is not None and dynamics.active
        counts["probing.waves"] += dynamics.waves_per_day if active else 1
        counts["probing.targets"] += int(result.targets)

    def clustered(counts, result, args, kwargs, span):
        counts["core.clustering.networks"] += result.num_networks

    def generated(key):
        def hook(counts, result, args, kwargs, span):
            counts[key] += len(result)

        return hook

    def pipeline(counts, result, args, kwargs, span):
        counts["genaddr.responsive"] += sum(result.responsive_any_count(t) for t in TOOLS)
        counts["genaddr.generated"] += sum(result.generated_count(t) for t in TOOLS)

    def query(kind):
        def hook(counts, result, args, kwargs, span):
            if kind == "point":
                span.name = "serving.point_hit" if result.in_hitlist else "serving.point_miss"
                counts["serving.rows_returned"] += int(result.in_hitlist)
            else:
                span.name = f"serving.{kind}"
                counts["serving.rows_returned"] += len(result)

        return hook

    def lpm(counts, result, args, kwargs, span):
        counts["addr.lpm_lookups"] += 1
        counts["addr.lpm_rows"] += len(result)

    wrap = tracer.wrap
    wrap(SimulatedInternet, "__init__", "netmodel.build", "netmodel.build",
         _add(**{"netmodel.builds": 1}))
    wrap(SimulatedInternet, "probe_batch", "netmodel.probe_batch", "netmodel.probe", probe_cells)
    wrap(sources_registry, "assemble_all_sources", "sources.assemble", "sources", records)
    wrap(Hitlist, "merge_records", "core.hitlist.merge", "core.hitlist.merge")
    wrap(HitlistService, "run_day", "core.hitlist.run_day", "core.hitlist", run_day)
    wrap(AliasedPrefixDetector, "run", "core.apd.run", "core.apd")
    wrap(AliasedPrefixDetector, "probe_prefixes", "core.apd.probe_prefixes", "core.apd", probed)
    for method in ("run_day", "run_day_batch"):
        wrap(ScanScheduler, method, f"probing.{method}", "probing.scan", scanned)
    for method in ("run_campaign", "run_fixed_campaign"):
        wrap(ScanScheduler, method, f"probing.{method}", "probing.scan")
    for method in ("__init__", "sweep_windows", "window_stats"):
        wrap(SlidingWindowMerger, method, f"core.sliding_window.{method}", "core.sliding_window")
    wrap(EntropyClustering, "cluster", "core.clustering.cluster", "core.clustering", clustered)
    wrap(EntropyIPGenerator, "generate_batch", "genaddr.entropy_ip", "genaddr.entropy_ip",
         generated("genaddr.entropy_ip.candidates"))
    wrap(SixGenGenerator, "generate_batch", "genaddr.sixgen", "genaddr.sixgen",
         generated("genaddr.sixgen.candidates"))
    wrap(GenerationPipeline, "run", "genaddr.pipeline", "genaddr.pipeline", pipeline)
    wrap(HitlistSnapshot, "from_daily", "serving.from_daily", "serving.publish")
    for kind in ("point", "prefix", "as"):
        wrap(HitlistServer, f"{kind}_query", f"serving.{kind}", "serving.query", query(kind))
    wrap(FlatLPM, "lookup_indices", "addr.lpm", "addr.lpm", lpm)
    wrap(FingerprintProbe, "probe", "probing.fingerprint", "probing.fingerprint",
         _add(**{"probing.fingerprints": 1}))
    seen = set()
    for eid, module in EXPERIMENTS.items():
        if module not in seen:
            seen.add(module)
            wrap(module, "run", f"experiments.{eid}", "experiments")


def _pct(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def per_layer_metrics(tracer, job_span, job_wall_s: float, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (set-up and job).

    *job_wall_s* is the wall time of the job's timed units, which the layer
    self times under *job_span* should account for.  *extra* carries the values measured outside the trace: host kernel
    statistics, raw end-to-end values, tracing overhead, final hitlist rows
    and snapshots held.
    """
    counts = tracer.counts
    spans = tracer.spans

    def durations(name: str) -> list[float]:
        return [s.duration for s in spans if s.name == name]

    run_day_self = [s.self_s for s in spans if s.name == "core.hitlist.run_day"]
    builds = durations("serving.from_daily")
    queries = [s.duration for s in spans if s.layer == "serving.query"]
    candidates = counts["core.apd.candidates"]
    generated = counts["genaddr.generated"]
    m: dict[str, float] = {
        "netmodel.build_s": tracer.self_time("netmodel.build"),
        "netmodel.probe_batch_s": tracer.self_time("netmodel.probe"),
        "sources.assemble_s": tracer.self_time("sources"),
        "core.hitlist.run_day_p50_ms": _pct(run_day_self, 50, 1e3),
        "core.hitlist.run_day_p90_ms": _pct(run_day_self, 90, 1e3),
        "core.hitlist.merge_s": tracer.self_time("core.hitlist.merge"),
        "core.apd_s": tracer.self_time("core.apd"),
        "core.apd.reprobe_ratio": counts["core.apd.reprobed"] / candidates if candidates else 0.0,
        "core.sliding_window_s": tracer.self_time("core.sliding_window"),
        "core.clustering_s": tracer.self_time("core.clustering"),
        "probing.scan_s": tracer.self_time("probing.scan"),
        "probing.fingerprint_s": tracer.self_time("probing.fingerprint"),
        "genaddr.pipeline_s": tracer.self_time("genaddr.pipeline"),
        "genaddr.entropy_ip_s": tracer.self_time("genaddr.entropy_ip"),
        "genaddr.sixgen_s": tracer.self_time("genaddr.sixgen"),
        "genaddr.response_rate": counts["genaddr.responsive"] / generated if generated else 0.0,
        "serving.publish_s": tracer.self_time("serving.publish"),
        "serving.snapshot_build_p50_ms": _pct(builds, 50, 1e3),
        "serving.snapshot_build_p90_ms": _pct(builds, 90, 1e3),
        "serving.query_s": tracer.self_time("serving.query"),
        "serving.query_p50_us": _pct(queries, 50, 1e6),
        "serving.query_p90_us": _pct(queries, 90, 1e6),
        "serving.query_p99_us": _pct(queries, 99, 1e6),
        "addr.lpm_lookup_s": tracer.self_time("addr.lpm"),
        "experiments.self_s": tracer.self_time("experiments"),
    }
    for kind in _QUERY_KINDS:
        samples = durations(f"serving.{kind}")
        m[f"serving.{kind}_p50_us"] = _pct(samples, 50, 1e6)
        m[f"serving.{kind}_p90_us"] = _pct(samples, 90, 1e6)
        m[f"serving.{kind}_count"] = len(samples)
    for eid in EXPERIMENT_IDS:
        m[f"experiments.{eid}_s"] = sum(durations(f"experiments.{eid}"))
    job_children = list(tracer.descendants(job_span))
    leaf_s = sum(s.self_s for s in job_children if s.layer not in CATCH_ALL_LAYERS)
    m["trace.job_s"] = job_wall_s
    m["trace.accounted_share"] = sum(s.self_s for s in job_children) / job_wall_s
    m["trace.leaf_share"] = leaf_s / job_wall_s
    m["trace.spans"] = len(spans)
    for name, _unit in PER_LAYER:
        if name not in m:
            m[name] = extra[name] if name in extra else counts.get(name, 0)
    return {name: m[name] for name, _unit in PER_LAYER}
