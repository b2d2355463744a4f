"""The four benchmark workloads: set-up, timed job, output digest, checks.

Every workload uses the default execution policy (batch engine, one worker)
on a fixed simulated world: the paper-default world seed :data:`WORLD_SEED`
(the configuration of ``python -m repro run-all``).  The workload seed drives
the inputs the program receives on that world -- the hitlist service's probe
and scan seed, the query stream and the AS order of AS queries, and the
generation request seeds -- through seeded ``random.Random`` streams.
Nothing reads the clock to decide what to compute.

Why the world is fixed (measured at default scale, world seeds 1-10): the
fig4 claim "de-aliasing flattens the AS distribution" fails at world seeds
4, 5, 8, 9 and 10, and the work of one generation request varies 3.5x
across worlds (1.2-4.2 s), so neither the checks nor any bound within a
quarter could hold with the world drawn from the workload seed.

A job returns its unit intervals (experiments, days, query windows or
requests, each with the reference-kernel correction of
:mod:`perfbench.hostclock`), its item count, one digest per unit and the
indices of units whose checks failed.  Checks run outside the timed
intervals.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from hostclock import FAILED_INTERVAL, OBJECTS, DriftMeter, Interval
from oracles import PrefixVerdicts, batch_keys, digest
from tracing import untraced

#: Seed of the simulated world every workload runs on.
WORLD_SEED = 2018
#: Rows of the longitudinal service: six months of daily publishes.
LONGITUDINAL_DAYS = range(181)
#: Queries per timed serve window.
SERVE_WINDOW = 5000
#: Queries between two reference-kernel bursts inside a serve window, so
#: each window is scaled by the host speed during that window.
SERVE_BURST_EVERY = 200
#: serve ``job_s`` is the time to answer this many queries.
SERVE_JOB_QUERIES = 10_000
#: Fewest generation requests per run.
GENERATE_MIN_REQUESTS = 2
GENERATE_BUDGET_PER_AS = 3_000
GENERATE_MIN_SEEDS_PER_AS = 20


@dataclass
class JobResult:
    units: list[Interval] = field(default_factory=list)
    unit_items: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    rows_final: int = 0
    extra: dict = field(default_factory=dict)
    #: The meter that timed the units, when it is not the caller's.
    meter: DriftMeter | None = None

    def add(self, interval: Interval, items: int) -> None:
        self.units.append(interval)
        self.unit_items.append(items)

    def measure(self, meter: DriftMeter, count, fn, *args, **kwargs):
        """Time one unit and record it with ``count(result)`` items.

        A unit that raises is recorded as a failed operation with no time and
        no items, and returns None.
        """
        try:
            result, interval = meter.measure(fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 -- counted, not hidden
            self.failed.add(len(self.units))
            self.add(FAILED_INTERVAL, 0)
            self.digests.append(f"raised:{type(exc).__name__}")
            return None
        self.add(interval, count(result))
        return result

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def items(self) -> int:
        return sum(self.unit_items)

    def times(self, normalised: bool = True) -> list[float]:
        return [u.normalised_s if normalised else u.raw_s for u in self.units]

    def busy_s(self, normalised: bool = True) -> float:
        return sum(self.times(normalised))


def p90(values: list[float]) -> float:
    """90th percentile as an observed value (no interpolation between units)."""
    return float(np.percentile(values, 90, method="higher")) if values else 0.0


class Workload:
    name = ""
    #: Sample the reference kernel on the interval timer during the job too
    #: (off where the job runs in a client thread with its own samples).
    timer_in_job = True
    #: Units of this many make up the job when units are interchangeable
    #: (query windows, requests) and the run repeats them for ``--seconds``:
    #: then ``job_s`` is this many mean units.  None: the units are the
    #: distinct steps of one job and add up.
    units_per_job: int | None = None

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def run(self, state, meter: DriftMeter, seconds: float, tracer=None) -> JobResult:
        raise NotImplementedError

    def metrics(self, result: JobResult, normalised: bool = True) -> dict[str, float]:
        """``job_s``, ``unit_p90_ms`` and ``items_per_s`` of one job."""
        # Units that raised carry no time and are left out (they are failures).
        pairs = [(n, t) for n, t in zip(result.unit_items, result.times(normalised)) if t > 0]
        times = [t for _, t in pairs]
        if not pairs:
            return {"job_s": 0.0, "unit_p90_ms": 0.0, "items_per_s": 0.0}
        busy_s = sum(times)
        job_s = busy_s if self.units_per_job is None else busy_s / len(times) * self.units_per_job
        items_per_s = sum(n for n, _ in pairs) / busy_s
        return {"job_s": job_s, "unit_p90_ms": p90(times) * 1e3, "items_per_s": items_per_s}


def _one(result) -> int:
    return 1


def _candidates(report) -> int:
    return sum(report.generated_count(t) for t in ("entropy_ip", "6gen"))


def apd_verdicts(apd_result) -> PrefixVerdicts:
    return PrefixVerdicts({p: o.is_aliased for p, o in apd_result.outcomes.items()})


# -- reproduce ---------------------------------------------------------------


def _claims(eid: str, result, ctx) -> bool:
    """The headline-claim properties ``tests/test_experiments.py`` asserts."""
    from repro.netmodel.services import Protocol

    r = result
    if eid == "table1":
        return r.this_work_addresses == len(ctx.hitlist) and r.is_only_full_apd
    if eid == "table2":
        return (
            len(r.rows) == 7
            and r.total.total_ips == len(ctx.hitlist)
            and r.top_as_share_ct > r.top_as_share_ripeatlas
        )
    if eid == "fig1":
        return (
            all(series == sorted(series) for series in r.runup.values())
            and r.growth_factor("scamper") > 1.5
            and 0.1 < r.coverage_share <= 1.0
            and bool(r.zesplot.items)
        )
    if eid == "fig2":
        return 2 <= r.full_k <= 10 and 2 <= r.iid_k <= 10 and r.has_popular_low_entropy_cluster
    if eid == "fig3":
        return (
            r.dns_k >= 1
            and r.dns_clusters_are_low_entropy
            and len(r.zesplot.items) == r.bgp_clustering.num_networks
        )
    if eid == "table3":
        return len(r.targets) == 16 and r.covers_all_branches and r.all_inside_prefix
    if eid == "table4":
        unstable = [s.unstable_prefixes for s in r.stats]
        return unstable[0] >= unstable[-1]
    if eid == "fig4":
        return (
            r.aliased_more_concentrated
            and r.dealiasing_flattens_as_distribution
            and 0 <= r.as_coverage_loss < 30
            and 0.2 < r.aliased_share < 0.85
        )
    if eid == "fig5":
        return (
            r.aliased_prefix_share < 0.8
            and r.aliased_response_share > 0.3
            and r.responses_unfiltered > r.responses_in_aliased
        )
    if eid == "table5":
        return (
            len(r.aliased_report) > 5
            and r.aliased_shares["inconsistent"] < 0.3
            and (r.aliased_less_inconsistent or r.aliased_more_timestamp_consistent)
        )
    if eid == "murdock":
        return r.apd_finds_at_least_as_many and r.comparison.apd_aliased_addresses > 0
    if eid == "fig6":
        return (
            r.responsive_addresses > 100
            and 0 < r.covered_prefixes <= r.announced_prefixes
            and r.covered_ases > 10
        )
    if eid == "fig7":
        return (
            r.icmp_dominates
            and r.quic_implies_https
            and r.https_to_quic_weaker
            and r.icmp_given_any_responsive > 0.8
            and all(0.0 <= r.probability(y, x) <= 1.0 for y in Protocol for x in Protocol)
        )
    if eid == "fig8":
        return (
            r.stable_sources_stay_responsive
            and r.scamper_decays_fastest
            and all(
                0.0 <= v <= 1.0 for t in r.timelines.values() for v in t.retention
            )
        )
    if eid == "table7":
        return (
            r.report.generated_count("entropy_ip") > 0
            and r.report.generated_count("6gen") > 0
            and r.low_overall_response_rate
            and r.tools_mostly_disjoint
        )
    if eid == "fig10":
        return (
            r.mostly_new
            and r.rdns_no_more_concentrated
            and r.rdns_is_server_population
            and r.unrouted_filtered > 0
        )
    if eid == "table9":
        return (
            r.mturk_has_more_participants
            and 0.1 < r.ipv6_rate_mturk < 0.6
            and r.clients_less_responsive_than_atlas
            and r.clients_churn_quickly
        )
    if eid == "vantage_bias":
        return r.responsiveness_is_vantage_dependent and r.filtered_region_needs_inside_vantage
    raise KeyError(eid)


def experiment_groups() -> list[list[str]]:
    """Experiment ids grouped by implementing module, in registry order."""
    from repro.experiments.runner import EXPERIMENTS

    groups: dict[object, list[str]] = {}
    for eid, module in EXPERIMENTS.items():
        groups.setdefault(module, []).append(eid)
    return list(groups.values())


class Reproduce(Workload):
    """``run_all`` over a fresh default context, one experiment module per unit."""

    name = "reproduce"

    def setup(self):
        from repro.experiments.context import ExperimentConfig, ExperimentContext

        ctx = ExperimentContext(ExperimentConfig(seed=WORLD_SEED))
        ctx.internet
        return ctx

    def run(self, ctx, meter, seconds, tracer=None) -> JobResult:
        from repro.experiments.runner import run_all

        out = JobResult()
        for i, group in enumerate(experiment_groups()):
            if tracer is not None:
                tracer.set_request(f"experiment:{group[0]}")
            outcomes = out.measure(meter, _one, run_all, ctx, experiment_ids=group)
            if outcomes is None:
                continue
            with untraced(tracer):
                out.digests.append(digest(*(outcomes[eid].report for eid in group)))
                if not _claims(group[0], outcomes[group[0]].result, ctx):
                    out.failed.add(i)
        out.rows_final = len(ctx.hitlist)
        return out


# -- longitudinal ------------------------------------------------------------


def seeded_service(scenario, seed: int):
    """The scenario's batch HitlistService on the fixed world, probing with *seed*.

    Wired exactly as ``repro.scenarios.build("service", ...)`` wires it, except
    that the service seed (APD fan-out and scan randomness) is the workload
    seed while the world and its sources stay at :data:`WORLD_SEED`.
    """
    from repro.core.apd import APDConfig
    from repro.core.hitlist import HitlistService

    config = scenario.experiment_config(seed=WORLD_SEED)
    internet, assembly = scenario.build_substrate(seed=WORLD_SEED)
    return HitlistService(
        internet,
        assembly,
        apd_config=APDConfig(min_targets_per_prefix=config.apd_min_targets),
        seed=seed,
    )


def longitudinal_scenario():
    """The multi-vantage routed preset with the subday-churn layers on top."""
    from repro.scenarios.presets import SUBDAY_CHURN
    from repro.scenarios.registry import get_scenario

    scenario = get_scenario("multi-vantage")
    for layer in SUBDAY_CHURN.layers:
        scenario = scenario.with_layer(layer)
    return scenario


def _snapshot_digest(snapshot) -> str:
    d = snapshot.download()
    return digest(
        d.day, d.addresses.hi, d.addresses.lo, d.source_masks, d.first_seen_days,
        d.responsive, d.unaliased, d.source_names,
    )


class Longitudinal(Workload):
    """``publish_day`` for days 0-180 over the batch service, one day per unit."""

    name = "longitudinal"

    def setup(self):
        from repro.serving.server import HitlistServer

        return HitlistServer(seeded_service(longitudinal_scenario(), self.seed))

    def run(self, server, meter, seconds, tracer=None) -> JobResult:
        out = JobResult()
        for day in LONGITUDINAL_DAYS:
            if tracer is not None:
                tracer.set_request(f"day:{day}")
            if out.measure(meter, len, server.publish_day, day) is None:
                break  # later days build on this one
        with untraced(tracer):
            for generation in server.published_generations:
                snapshot = server.snapshot(generation)
                day = snapshot.day
                out.digests.append(_snapshot_digest(snapshot))
                try:
                    ok = self.check_day(server, snapshot)
                except (ValueError, KeyError):  # e.g. a source missing from the rebuild
                    ok = False
                if not ok:
                    out.failed.add(day)
        out.rows_final = len(server.current)
        out.extra["snapshots_held"] = len(server.published_generations)
        return out

    @staticmethod
    def check_day(server, snapshot) -> bool:
        """Rows equal an independent rebuild; the scan's targets are the rows
        outside the day's aliased prefixes; served responders are the scan's."""
        from repro.core.hitlist import Hitlist

        service = server.service
        day = snapshot.day
        d = snapshot.download()
        rebuilt = Hitlist.from_assembly(service.assembly, day=day)
        batch, masks, first, names = rebuilt.snapshot_arrays()
        if len(batch) != len(d.addresses):
            return False
        keys = batch_keys(d.addresses)
        if not np.array_equal(keys, batch_keys(batch)) or not np.array_equal(first, d.first_seen_days):
            return False
        rename = {names.index(n): d.source_names.index(n) for n in names}
        remapped = np.zeros_like(d.source_masks)
        for old, new in rename.items():
            remapped |= ((masks >> np.uint64(old)) & np.uint64(1)) << np.uint64(new)
        if not np.array_equal(remapped, d.source_masks):
            return False
        daily = service.history[day]
        aliased = apd_verdicts(daily.apd_result).lookup_batch(d.addresses)
        if not np.array_equal(~aliased, d.unaliased):
            return False
        # The day's scan probed exactly the rows outside aliased prefixes, so
        # its responders are a subset of them, and the snapshot serves
        # exactly those responders.
        scan = daily.scan_result
        scanned = batch_keys(scan.targets_batch)
        if not np.array_equal(np.sort(scanned), np.sort(keys[~aliased])):
            return False
        responders = np.sort(scanned[scan.responsive_mask()])
        return np.array_equal(responders, np.sort(keys[d.responsive.any(axis=1)]))


# -- serve -------------------------------------------------------------------

_LO64 = (1 << 64) - 1


class ServeOracle:
    """Brute-force answers over ``snapshot.download()``."""

    def __init__(self, server, snapshot):
        d = snapshot.download()
        self.d = d
        self.values = d.addresses.to_ints()
        self.row_of = {v: i for i, v in enumerate(self.values)}
        self.hi = np.asarray(d.addresses.hi)
        self.lo = np.asarray(d.addresses.lo)
        internet = server.internet
        self.asn = np.array(
            [internet.asn_of(a) or -1 for a in d.addresses.to_addresses()], dtype=np.int64
        )
        self.verdicts = apd_verdicts(server.service.history[snapshot.day].apd_result)

    def _sources(self, mask: int) -> tuple[str, ...]:
        return tuple(n for bit, n in enumerate(self.d.source_names) if mask >> bit & 1)

    def points(self, values: list[int]) -> list[tuple]:
        """Expected point answers; misses resolved in one vectorised pass."""
        misses = [v for v in values if v not in self.row_of]
        hi = np.array([v >> 64 for v in misses], dtype=np.uint64)
        lo = np.array([v & _LO64 for v in misses], dtype=np.uint64)
        aliased = dict(zip(misses, self.verdicts.lookup(hi, lo).tolist()))
        unanswered = tuple(False for _ in self.d.protocols)
        return [
            self._hit(self.row_of[v]) if v in self.row_of
            else (False, aliased[v], (), None, unanswered)
            for v in values
        ]

    def _hit(self, row: int) -> tuple:
        d = self.d
        return (
            True,
            not bool(d.unaliased[row]),
            self._sources(int(d.source_masks[row])),
            int(d.first_seen_days[row]),
            tuple(bool(x) for x in d.responsive[row]),
        )

    def rows_key(self, rows: np.ndarray) -> tuple:
        d = self.d
        return (
            self.hi[rows].tobytes(),
            self.lo[rows].tobytes(),
            d.responsive[rows].tobytes(),
            d.source_masks[rows].tobytes(),
            d.first_seen_days[rows].tobytes(),
        )

    def prefix(self, prefix) -> tuple:
        """Every row compared against the prefix's first and last address."""
        first, last = prefix.network, prefix.network | prefix.hostmask
        hi, lo = self.hi, self.lo
        f_hi, f_lo = np.uint64(first >> 64), np.uint64(first & _LO64)
        l_hi, l_lo = np.uint64(last >> 64), np.uint64(last & _LO64)
        inside = ((hi > f_hi) | ((hi == f_hi) & (lo >= f_lo))) & (
            (hi < l_hi) | ((hi == l_hi) & (lo <= l_lo))
        )
        return self.rows_key(np.flatnonzero(inside & self.d.unaliased))

    def as_rows(self, asn: int) -> tuple:
        return self.rows_key(np.flatnonzero(self.asn == asn))


def answer_key(kind: str, answer) -> tuple:
    if kind == "point":
        return (
            answer.in_hitlist,
            answer.aliased,
            answer.sources,
            answer.first_seen_day,
            answer.responsive,
        )
    return (
        np.asarray(answer.addresses.hi).tobytes(),
        np.asarray(answer.addresses.lo).tobytes(),
        np.asarray(answer.responsive).tobytes(),
        np.asarray(answer.source_masks).tobytes(),
        np.asarray(answer.first_seen_days).tobytes(),
    )


class QueryStream:
    """Seeded query mix: 60 % point hits, 25 % misses, 12 % prefix, 3 % AS."""

    def __init__(self, seed: int, values: list[int], asns: list[int]):
        self._rng = random.Random(seed * 1_000_003 + 0x5E7E)
        self._values = values
        self._members = set(values)
        self._asns = asns

    def window(self, n: int) -> list[tuple[str, object]]:
        from repro.addr.prefix import IPv6Prefix

        rng = self._rng
        values = self._values
        out: list[tuple[str, object]] = []
        for _ in range(n):
            u = rng.random()
            row = values[rng.randrange(len(values))]
            if u < 0.60:
                out.append(("point", row))
            elif u < 0.85:
                miss = row ^ rng.randrange(1, 1 << 20)
                while miss in self._members:
                    miss = row ^ rng.randrange(1, 1 << 20)
                out.append(("point", miss))
            elif u < 0.97:
                length = rng.choice((32, 48, 64))
                network = row & ~((1 << (128 - length)) - 1)
                out.append(("prefix", IPv6Prefix(network, length)))
            else:
                out.append(("as", rng.choice(self._asns)))
        return out


@dataclass
class ServeState:
    server: object
    snapshot: object
    oracle: ServeOracle | None = None


class Serve(Workload):
    """One closed-loop client thread querying one snapshot; ``job_s`` is the
    time to answer :data:`SERVE_JOB_QUERIES` queries of the seeded mix."""

    name = "serve"
    timer_in_job = False
    units_per_job = SERVE_JOB_QUERIES // SERVE_WINDOW

    def setup(self):
        from repro.addr.prefix import IPv6Prefix
        from repro.scenarios.registry import get_scenario
        from repro.serving.server import HitlistServer

        baseline = get_scenario("baseline")
        server = HitlistServer(seeded_service(baseline, self.seed))
        snapshot = server.publish_day(baseline.experiment_config(seed=WORLD_SEED).runup_days)
        # Build every lazy index the first query of each kind would build.
        values = snapshot.download().addresses.to_ints()
        members = set(values)
        server.point_query(values[0])
        server.point_query(next(v for v in range(values[0] + 1, values[0] + 64) if v not in members))
        server.prefix_query(IPv6Prefix(values[0] >> 80 << 80, 48))
        server.as_query(0)
        return ServeState(server=server, snapshot=snapshot)

    def run(self, state, meter, seconds, tracer=None) -> JobResult:
        if state.oracle is None:
            state.oracle = ServeOracle(state.server, state.snapshot)
        oracle = state.oracle
        asns = sorted({int(a) for a in oracle.asn.tolist() if a >= 0})
        stream = QueryStream(self.seed, oracle.values, asns)
        out = JobResult()
        parent = tracer.current() if tracer is not None else None
        errors: list[BaseException] = []

        def client():
            try:
                self._client(state, stream, seconds, out, tracer, parent)
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        thread = threading.Thread(target=client, name="serve-client")
        thread.start()
        thread.join()
        if errors:
            raise errors[0]
        out.rows_final = len(state.snapshot)
        out.extra["snapshots_held"] = len(state.server.published_generations)
        return out

    def _client(self, state, stream, seconds, out, tracer, parent):
        server = state.server
        oracle = state.oracle
        meter = out.meter = DriftMeter(OBJECTS)
        meter.calibrate()
        if tracer is not None:
            tracer.adopt(parent)
        handlers = {"point": server.point_query, "prefix": server.prefix_query, "as": server.as_query}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            w = out.attempted
            queries = stream.window(SERVE_WINDOW)
            if tracer is not None:
                tracer.set_request(f"window:{w}")

            def answer_all(queries=queries):
                answers = []
                for i in range(0, len(queries), SERVE_BURST_EVERY):
                    if i:
                        meter.burst()
                    answers += [handlers[kind](arg) for kind, arg in queries[i:i + SERVE_BURST_EVERY]]
                return answers

            answers = out.measure(meter, len, answer_all)
            if answers is None:
                continue
            with untraced(tracer):
                keys = [answer_key(kind, a) for (kind, _), a in zip(queries, answers)]
                points = iter(oracle.points([arg for kind, arg in queries if kind == "point"]))
                expected = [
                    next(points) if kind == "point"
                    else oracle.prefix(arg) if kind == "prefix"
                    else oracle.as_rows(arg)
                    for kind, arg in queries
                ]
                if keys != expected:
                    out.failed.add(w)
                out.digests.append(digest(*keys))


# -- generate ----------------------------------------------------------------


@dataclass
class GenerateState:
    ctx: object
    seeds: list
    known: list


class Generate(Workload):
    """Repeated ``GenerationPipeline.run`` requests; ``job_s`` is one request."""

    name = "generate"
    units_per_job = 1

    def setup(self):
        from repro.experiments.context import ExperimentConfig, ExperimentContext

        ctx = ExperimentContext(ExperimentConfig(seed=WORLD_SEED))
        ctx.internet
        ctx.apd_result
        return GenerateState(ctx=ctx, seeds=ctx.non_aliased_addresses, known=ctx.hitlist.addresses)

    def run(self, state, meter, seconds, tracer=None) -> JobResult:
        from repro.genaddr.pipeline import GenerationPipeline

        ctx = state.ctx
        rng = random.Random(self.seed * 1_000_003 + 0x6E4)
        out = JobResult()
        start = time.perf_counter()
        while out.attempted < GENERATE_MIN_REQUESTS or time.perf_counter() - start < seconds:
            i = out.attempted
            if tracer is not None:
                tracer.set_request(f"request:{i}")
            pipeline = GenerationPipeline(
                ctx.internet,
                min_seeds_per_as=GENERATE_MIN_SEEDS_PER_AS,
                generation_budget_per_as=GENERATE_BUDGET_PER_AS,
                seed=rng.getrandbits(32),
            )
            report = out.measure(
                meter,
                _candidates,
                pipeline.run,
                state.seeds,
                known_addresses=state.known,
                day=0,
                probe=True,
                apd_result=ctx.apd_result,
            )
            if report is None:
                continue
            with untraced(tracer):
                out.digests.append(self.report_digest(report))
                if not self.check(ctx, report):
                    out.failed.add(i)
        out.rows_final = len(ctx.hitlist)
        return out

    @staticmethod
    def report_digest(report) -> str:
        parts = []
        for tool in ("entropy_ip", "6gen"):
            batch = report.candidate_batch(tool)
            parts += [batch.hi, batch.lo, report.responsive_matrix(tool)]
        return digest(*parts)

    @staticmethod
    def check(ctx, report) -> bool:
        """Candidates unique, new, outside day-0 aliased prefixes, within budget."""
        known = batch_keys(ctx.hitlist.address_batch)
        verdicts = apd_verdicts(ctx.apd_result)
        for tool in ("entropy_ip", "6gen"):
            batch = report.candidate_batch(tool)
            keys = batch_keys(batch)
            if len(np.unique(keys)) != len(keys):
                return False
            if np.isin(keys, known).any():
                return False
            if verdicts.lookup_batch(batch).any():
                return False
        return all(g.generated_count <= GENERATE_BUDGET_PER_AS for g in report.per_as)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Reproduce, Longitudinal, Serve, Generate)
}
