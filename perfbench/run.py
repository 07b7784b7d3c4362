"""Run one benchmark workload against the package in ``src/`` and report it.

    python3 perfbench/run.py --workload protocol-k3 --seed 1 --seconds 20 --trace 0

The workload is set up several times (the median is ``setup_s``), then its
operations run back to back, one caller in a closed loop, until
``--seconds`` have passed; every output is then checked against the
oracle in ``perfbench/oracle.py`` or a property the paper proves.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and the object holds the per-layer metrics and the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  Result and
span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
PHASE_RATES = ("lattice.selftest_trials_per_s", "lattice.mbqc_runs_per_s",
               "lattice.exact_ceilings_per_s", "lattice.pattern_laws_per_s")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package() -> float:
    """Import numpy and the package from ``src/``; return the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/artifact; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import artifact  # noqa: F401
    return time.perf_counter() - start


def clear_package_caches():
    """Empty the package's memo caches so each set-up pays for them again."""
    for name, mod in list(sys.modules.items()):
        if name == "artifact" or name.startswith("artifact."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_ops(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds of operations until ``seconds`` have passed.

    With a tracer, odd rounds run traced and even rounds untraced, and the
    loop goes on until it has at least one round of each.
    """
    times = {False: [], True: []}
    indices = {False: [], True: []}
    work = 0.0
    i = rounds = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        calls = [wl.prepare(i + j) for j in range(wl.round_len)]
        outputs = []
        if traced:
            tracer.install(wl.trace_per_trial)
        try:
            for fn in calls:
                t0 = time.perf_counter()
                out = tracer.op(fn) if traced else fn()
                times[traced].append(time.perf_counter() - t0)
                outputs.append(out)
        finally:
            if traced:
                tracer.uninstall()
        for out in outputs:
            work += wl.record(i, out)
            indices[traced].append(i)
            i += 1
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            return {"ops": i, "work": work, "untraced": times[False], "traced": times[True],
                    "untraced_ops": indices[False]}


def end_to_end(run: dict, setup_s: float) -> dict:
    times = run["untraced"]
    return {"setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_s_p50": statistics.median(times),
            "work_per_s": run["work"] / sum(times)}


def per_layer(tracer, wl, run: dict, traced_fns: dict) -> tuple[dict, list[str]]:
    totals = tracer.totals()
    ops = len(run["traced"])
    out = {}
    for name, sized in traced_fns.items():
        row = totals[name]
        out[f"{name}.calls"] = row["calls"] / ops
        out[f"{name}.self_s"] = row["self_s"] / ops
        if sized:
            out[f"{name}.ns_per_amp"] = 1e9 * row["self_s"] / row["amps"] if row["amps"] else 0.0
    rounds = totals["protocol.run_round"]["calls"]
    decisions = totals["protocol.run_amplified"]["calls"]
    out["protocol.rounds_per_decision"] = rounds / decisions if decisions else 0.0
    out["protocol.calculate_share"] = (
        tracer.calls_under("mbqc.run_pattern", "protocol.run_round") / rounds if rounds else 0.0)
    out["isometry.fallback_share"] = wl.fallback_share() if hasattr(wl, "fallback_share") else 0.0
    out.update(dict.fromkeys(PHASE_RATES, 0.0))
    if hasattr(wl, "phase_rates"):
        out.update(wl.phase_rates(run["untraced_ops"]))
    untraced = statistics.median(run["untraced"])
    traced = statistics.median(run["traced"])
    out["trace.op_s_p50_untraced"] = untraced
    out["trace.op_s_p50_traced"] = traced
    out["trace.overhead_pct"] = 100 * (traced / untraced - 1)
    missing = [f"{name} recorded no calls" for name in wl.required
               if totals[name]["calls"] == 0]
    return out, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    import_s = import_package()
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPS):
        clear_package_caches()
        start = time.perf_counter()
        wl = cls(args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    run = run_ops(wl, args.seconds, tracer)
    failed, errors = wl.check()

    if args.trace:
        values, missing = per_layer(tracer, wl, run, tracing.TRACED)
        errors += missing
        wanted = spec["per_layer"]
    else:
        values = end_to_end(run, setup_s)
        wanted = spec["end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json lists metrics the run does not produce: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not errors, "attempted": run["ops"], "failed": int(failed),
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "result": result, "errors": errors, "import_s": import_s,
              "setup_reps_s": setup_times, "op_s_untraced": run["untraced"],
              "op_s_traced": run["traced"], "work": run["work"],
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "blas_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer:
        tracer.write(stem + ".spans.tsv.gz")

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {run['ops']}, failed = {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
