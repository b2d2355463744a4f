"""End-to-end benchmark of the hitlist reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 2018 --seconds 8 --trace 0

Workloads (see README.md): ``reproduce``, ``longitudinal``, ``serve`` and
``generate``.  With ``--trace 0`` the last line of standard output is a JSON
object with every end-to-end metric; with ``--trace 1`` the run sets up and
runs the job once untraced and once traced, checks that both produce the same
output digest, writes the spans to ``.perfbench/`` and reports every
per-layer metric instead.  Timings are host-normalised seconds (see
``hostclock.py``); raw wall values go to the summary line and to ``raw.*``.

Exits 2 without a result when the program's sources are not under ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: String-hash seed every run executes under.  With randomised hashing the
#: same serve job read up to 18 % apart from one process to the next (the
#: interpreter's attribute caches and dict layouts depend on the hash seed);
#: a fixed seed measures one layout, so a change that only moves that
#: layout reads as a real change.
HASH_SEED = "0"

#: End-to-end metric name -> unit (the ``end_to_end`` list of BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "unit_p90_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_sampling(workload, meter):
    """Interval-timer sampling during the job, where the workload wants it."""
    return meter.sampling() if workload.timer_in_job else nullcontext()


def setup_and_run(workload, meter, seconds):
    """Set up SETUP_REPEATS times, then run the job once on the last set-up."""
    setups = []
    state = None
    with meter.sampling():
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            state, interval = meter.measure(workload.setup)
            setups.append(interval)
    with job_sampling(workload, meter):
        job = workload.run(state, meter, seconds)
    return setups, job


def plain_run(workload, meter, seconds) -> tuple[dict, int, int, dict]:
    from oracles import digest

    setups, job = setup_and_run(workload, meter, seconds)
    metrics = {
        "setup_s": statistics.median(iv.normalised_s for iv in setups),
        **workload.metrics(job),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "setup_s": statistics.median(iv.raw_s for iv in setups),
        **workload.metrics(job, normalised=False),
    }
    kernel = (job.meter or meter).kernel_stats()
    print(
        f"{workload.name} seed={workload.seed}: units={job.attempted} "
        f"failed={len(job.failed)} items={job.items} digest={digest(*job.digests)} "
        f"raw={json.dumps(raw)} kernel_p50_us={kernel['p50_us']:.1f} "
        f"kernel_inflation={kernel['inflation']:.3f}",
        flush=True,
    )
    return metrics, job.attempted, len(job.failed), END_TO_END


def traced_run(workload, meter, seconds) -> tuple[dict, int, int, dict]:
    import layers
    from oracles import common_prefix_equal
    from tracing import Tracer

    with meter.sampling():
        state, setup_iv = meter.measure(workload.setup)
    with job_sampling(workload, meter):
        plain = workload.run(state, meter, seconds)
    state = None
    gc.collect()

    tracer = Tracer()
    layers.install(tracer)
    try:
        with meter.sampling():
            setup_span = tracer.open("setup", "bench")
            state = workload.setup()
            tracer.close(setup_span)
        with job_sampling(workload, meter):
            job_span = tracer.open("job", "bench")
            traced = workload.run(state, meter, seconds, tracer)
            tracer.close(job_span)
    finally:
        tracer.uninstall()

    same_output = common_prefix_equal(plain.digests, traced.digests)
    plain_per_item = plain.busy_s() / max(plain.items, 1)
    traced_per_item = traced.busy_s() / max(traced.items, 1)
    kernel = (traced.meter or meter).kernel_stats()
    raw = workload.metrics(plain, normalised=False)
    extra = {
        "host.kernel_p50_us": kernel["p50_us"],
        "host.kernel_p90_us": kernel["p90_us"],
        "host.kernel_inflation": kernel["inflation"],
        "raw.setup_s": setup_iv.raw_s,
        **{f"raw.{k}": v for k, v in raw.items()},
        "trace.overhead_pct": (traced_per_item / plain_per_item - 1.0) * 100.0,
        "core.hitlist.rows_final": traced.rows_final,
        "serving.snapshots_held": traced.extra.get("snapshots_held", 0),
    }
    job_wall_s = sum(u.wall_s for u in traced.units)
    metrics = layers.per_layer_metrics(tracer, job_span, job_wall_s, extra)
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    tracer.dump(str(out_dir / f"trace-{workload.name}-{workload.seed}.json"))
    print(
        f"{workload.name} seed={workload.seed}: traced units={traced.attempted} "
        f"same_output={same_output} overhead_pct={extra['trace.overhead_pct']:.1f} "
        f"accounted_share={metrics['trace.accounted_share']:.4f} "
        f"leaf_share={metrics['trace.leaf_share']:.4f}",
        flush=True,
    )
    attempted = plain.attempted + traced.attempted + 1
    failed = len(plain.failed) + len(traced.failed) + (0 if same_output else 1)
    return metrics, attempted, failed, dict(layers.PER_LAYER)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    src = Path.cwd() / "src"
    if not (src / "repro" / "experiments").is_dir():
        print(f"perfbench: no program sources at {src}/repro; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]

    from hostclock import DriftMeter
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (expected one of "
              f"{sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    meter = DriftMeter()
    meter.calibrate()
    runner = traced_run if args.trace else plain_run
    metrics, attempted, failed, units = runner(workload, meter, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
