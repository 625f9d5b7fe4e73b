"""Wall-clock benchmark of declare -> compile -> run on real backends.

Run from the repository root::

    python3 perfbench/run.py --workload fig3-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` is the separate traced run: it alternates untraced rounds
with rounds in which the library's public calls are wrapped in spans
(``tracing.py``), then probes the public calls the ops need not make,
among them the variant enumeration and strategy search of a fissionable
sweep and a skewable stencil.  A per-layer metric that could not be
measured ends the traced run with an error and no result.
It reports the per-layer metrics, the layer self times of the
workload's primary op, and the tracing overhead (traced minus untraced
median of that op).  Every op, traced or not, is checked bit
for bit against the benchmark's own oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit, the plain-Python (and,
where importable, scipy) baselines and each ratio with its base.
Details, the Chrome trace and the layer table go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: End-to-end metrics: name -> (unit, op kind, statistic, scale).  The
#: statistic is a percentile, or ``TMEAN`` for the trimmed mean.
TMEAN = "tmean"
END_TO_END = {
    "setup_s": ("s", "setup", 50, 1.0),
    "setup_s_p90": ("s", "setup", 90, 1.0),
    "exec_ms_tmean": ("ms", "serial", TMEAN, 1e3),
    "exec_ms_p50": ("ms", "serial", 50, 1e3),
    "exec_ms_p90": ("ms", "serial", 90, 1e3),
    "threads_exec_ms_tmean": ("ms", "threads", TMEAN, 1e3),
    "threads_exec_ms_p50": ("ms", "threads", 50, 1e3),
    "processes_exec_ms_p50": ("ms", "processes", 50, 1e3),
    "warm_compile_ms_tmean": ("ms", "warm_compile", TMEAN, 1e3),
    "warm_compile_ms_p50": ("ms", "warm_compile", 50, 1e3),
    "spec_setup_s": ("s", "spec_setup", TMEAN, 1.0),
    "spec_exec_ms_tmean": ("ms", "spec", TMEAN, 1e3),
    "spec_exec_ms_p50": ("ms", "spec", 50, 1e3),
}
#: Share of samples cut from each end before ``TMEAN`` averages them,
#: so a rare host stall does not move the figure.
TRIM = 0.05
#: Measured and printed, but left out of the JSON result.  The host's
#: speed switches between a fast and a slow mode every few seconds, and
#: the median of a run jumps between the modes with the share of slow
#: time in it: over ten seeds the medians spread up to 0.39, against
#: 0.19 for the trimmed means of the same samples.  On top of that the
#: ``processes`` solve's busy-waits between two worker processes shift
#: by up to 2.5x between ten-minute windows (25 vs 63 ms on ilu-krylov).
UNGATED = ("exec_ms_p50", "threads_exec_ms_p50", "warm_compile_ms_p50",
           "spec_exec_ms_p50", "processes_exec_ms_p50")


def statistic(values, stat) -> float:
    if stat != TMEAN:
        return float(np.percentile(values, stat))
    values = np.sort(values)
    cut = int(TRIM * len(values))
    return float(values[cut:len(values) - cut].mean())

#: Per-layer metrics of the traced run, with units, in report order.
PER_LAYER = {
    "program.extract_ms": "ms", "program.edges": "count",
    "program.rebind_ms": "ms", "program.variants_ms": "ms",
    "program.variants": "count",
    "core.wavefronts_ms": "ms", "core.num_wavefronts": "count",
    "core.max_width": "count", "core.schedule_ms": "ms",
    "core.inspect_ms": "ms", "core.price_ms": "ms", "core.order_ms": "ms",
    "core.replay_ms": "ms",
    "runtime.compile_cold_ms": "ms", "runtime.key_ms": "ms",
    "runtime.cache_get_ms": "ms", "runtime.cache_hit_rate": "ratio",
    "runtime.call_overhead_ms": "ms",
    "machine.sim_ms": "ms", "machine.threads_ms": "ms",
    "machine.processes_setup_ms": "ms", "machine.processes_solve_ms": "ms",
    "speculate.compile_ms": "ms", "speculate.attempts": "count",
    "speculate.conflict_rate": "ratio", "speculate.reexecuted": "count",
    "speculate.fell_back": "ratio", "speculate.useful_frac": "ratio",
    "tuning.search_ms": "ms", "tuning.store_hit_ms": "ms",
    "self.program_ms": "ms", "self.core_ms": "ms", "self.runtime_ms": "ms",
    "self.machine_ms": "ms", "self.unattributed_ms": "ms", "trace.op_ms": "ms",
    "trace.unattributed_frac": "ratio", "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}

#: Layers whose self time in the primary op is a per-layer metric.  The
#: transform, tuning and speculate layers take no part in any listed
#: workload's primary op; their self times are in the layer table only.
SELF_LAYERS = ("program", "core", "runtime", "machine")

#: Probe ops that run the strategy search.
TUNING_PROBES = ("probe.tune_cold", "probe.tune_warm")


def _load_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {src / 'repro'}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def run_rounds(wl, rec, seconds: float) -> None:
    deadline = perf_counter() + seconds
    wl.round(rec)
    while perf_counter() < deadline:
        wl.round(rec)


# ----------------------------------------------------------------------
def untraced(wl, seconds: float):
    from workloads import Recorder

    rec = Recorder()
    wl.rec = rec
    wl.prepare()
    run_rounds(wl, rec, seconds)
    metrics = {}
    for name, (unit, kind, stat, scale) in END_TO_END.items():
        values = rec.samples.get(kind)
        if not values:
            raise RuntimeError(f"no successful {kind!r} op to measure "
                               f"{name} (see the errors above)")
        metrics[name] = (scale * statistic(values, stat), unit)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics, [rec]


def traced(wl, seconds: float):
    from tracing import Tracer
    from workloads import (NPROC, AutoMixed, Recorder, transform_programs,
                           tuning_label)

    import repro.program.transform as transform
    from repro import Runtime

    plain = Recorder()
    wl.rec = plain
    wl.prepare()
    tracer = Tracer()
    rec = Recorder(tracer)
    # Untraced and traced rounds alternate, so both see the same host
    # speed and their difference is the tracing overhead.
    deadline = perf_counter() + seconds
    while True:
        wl.rec = plain
        wl.round(plain)
        wl.rec = rec
        with tracer.installed():
            wl.round(rec)
        if perf_counter() >= deadline:
            break
    probe = {}
    # The transform and tuning layers have work to do only on programs
    # with more than one statement or a grid shape.
    shaped = transform_programs(wl.seed)
    checks = [check for _, check in shaped.values()]

    def tuned_ok(loops):
        # Run each tuned loop (untimed) against its oracle.
        return all(check(lp()) for lp, check in zip(loops, checks))

    with tracer.installed():
        # Probes: public calls the ops above need not make.
        for _ in range(3):
            prog = wl.probe_program()
            dep = rec.op("probe.extract", prog.dependence_graph,
                         lambda d: d.num_edges > 0)
            rt = Runtime(nproc=NPROC)
            loop = rec.op("probe.compile", lambda: rt.compile(prog),
                          lambda lp: not lp.cache_hit)
            if loop is not None:
                rec.op("probe.simulate", loop.simulate, lambda s: True)
            progs = [declare() for declare, _ in shaped.values()]
            variants = rec.op(
                "probe.variants",
                lambda: [transform.enumerate_variants(p) for p in progs],
                lambda vs: all(len(v) > 1 for v in vs))
            tuned = Runtime(nproc=NPROC,
                            expected_executions=AutoMixed.expected_executions)
            auto = rec.op(TUNING_PROBES[0],
                          lambda: [tuned.compile(p, strategy="auto")
                                   for p in progs],
                          tuned_ok)
            rec.op(TUNING_PROBES[1],
                   lambda: [tuned.compile(p, strategy="auto")
                            for p in progs],
                   lambda loops: all(lp.cache_hit for lp in loops))
    # A probe that raised was counted as a failed op; its values stay
    # unmeasured.
    if dep is not None:
        probe["edges"] = dep.num_edges
    if variants is not None:
        probe["variants"] = sum(len(v) for v in variants)
    if loop is not None:
        probe["num_wavefronts"] = loop.inspection.num_wavefronts
        probe["max_width"] = int(np.bincount(loop.inspection.wavefronts).max())
    if auto is not None:
        for name, lp in zip(shaped, auto):
            wl.labels[f"tuning.choice.{name}"] = tuning_label(lp)

    def ms(name, tag=None):
        # The tuner's search makes many inspections and simulations of
        # candidates; they must not dilute the workload's own calls.
        values = tracer.durations(name, tag, skip_kinds=TUNING_PROBES)
        return 1e3 * float(np.median(values)) if values else None

    def sample_ms(r, kind):
        values = r.samples.get(kind)
        return 1e3 * float(np.median(values)) if values else None

    spec = rec.notes.get("speculation", []) + plain.notes.get(
        "speculation", [])

    def spec_mean(fn):
        return float(np.mean([fn(c, n) for c, n in spec])) if spec else None

    table = tracer.layer_table()
    row = table.get(wl.primary, {})
    untraced_ms = sample_ms(plain, wl.primary)
    traced_ms = sample_ms(rec, wl.primary)
    overhead = (traced_ms - untraced_ms
                if None not in (traced_ms, untraced_ms) else None)
    stats = wl.rt.cache_stats
    values = {
        "program.extract_ms": ms("program.extract", "cold"),
        "program.edges": probe.get("edges"),
        "program.rebind_ms": ms("program.rebind"),
        "program.variants_ms": sample_ms(rec, "probe.variants"),
        "program.variants": probe.get("variants"),
        "core.wavefronts_ms": ms("core.wavefronts"),
        "core.num_wavefronts": probe.get("num_wavefronts"),
        "core.max_width": probe.get("max_width"),
        "core.schedule_ms": ms("core.schedule"),
        "core.inspect_ms": ms("core.inspect"),
        "core.price_ms": ms("core.price"),
        "core.order_ms": ms("core.order"),
        "core.replay_ms": ms("core.replay"),
        "runtime.compile_cold_ms": ms("runtime.compile", "cold"),
        "runtime.key_ms": ms("runtime.key"),
        "runtime.cache_get_ms": ms("runtime.cache_get"),
        "runtime.cache_hit_rate": stats.hit_rate,
        "runtime.call_overhead_ms": (
            1e3 * float(np.median(rec.notes["call_overhead"]))
            if rec.notes.get("call_overhead") else None),
        "machine.sim_ms": ms("machine.sim"),
        "machine.threads_ms": ms("machine.threads"),
        "machine.processes_setup_ms": ms("machine.processes_setup"),
        "machine.processes_solve_ms": ms("machine.processes_solve"),
        "speculate.compile_ms": ms("speculate.compile"),
        "speculate.attempts": spec_mean(lambda c, n: c.attempts),
        "speculate.conflict_rate": spec_mean(lambda c, n: c.conflict_rate),
        "speculate.reexecuted": spec_mean(lambda c, n: c.re_executed),
        "speculate.fell_back": spec_mean(lambda c, n: float(c.fell_back)),
        "speculate.useful_frac": spec_mean(
            lambda c, n: c.committed_optimistically / n),
        "tuning.search_ms": sample_ms(rec, TUNING_PROBES[0]),
        "tuning.store_hit_ms": sample_ms(rec, TUNING_PROBES[1]),
        "self.unattributed_ms": row.get("bench"),
        "trace.op_ms": row.get("op_ms"),
        "trace.unattributed_frac": (row["bench"] / row["op_ms"]
                                    if row.get("op_ms") else None),
        "trace.overhead_ms": overhead,
        "trace.overhead_frac": (overhead / untraced_ms
                                if overhead is not None else None),
        "trace.spans": len(tracer.spans),
    }
    for layer in SELF_LAYERS:
        values[f"self.{layer}_ms"] = row.get(layer)
    missing = [k for k in PER_LAYER if values.get(k) is None]
    if missing:
        # Reporting an unmeasured timing as 0 would read as a speed-up.
        raise SystemExit(
            f"perfbench: not measured on {wl.name}: {', '.join(missing)}"
            + (f" (calls the library no longer has: "
               f"{', '.join(tracer.missing)})" if tracer.missing else ""))
    metrics = {k: (float(values[k]), PER_LAYER[k]) for k in PER_LAYER}

    stem = OUT_DIR / f"{wl.name}-seed{wl.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_chrome_trace(f"{stem}-chrome-trace.json")
    write_layer_table(f"{stem}-layers.md", wl, table, untraced_ms,
                      traced_ms, plain)
    print(f"chrome trace: {stem}-chrome-trace.json ({len(tracer.spans)} spans, "
          f"{len(tracer.ops)} ops, one track per op)")
    print(f"layer table : {stem}-layers.md")
    return metrics, [plain, rec]


def write_layer_table(path, wl, table, untraced_ms, traced_ms, plain):
    from tracing import LAYERS

    cols = LAYERS + ("bench",)
    lines = [
        f"# {wl.name} (seed {wl.seed}): mean self ms per op, by layer",
        "",
        "`bench` is the op's own span: time no wrapped library call "
        "accounts for. Each row's layers plus `bench` add up to `op_ms`.",
        "",
        "| op kind | ops | op_ms | " + " | ".join(cols)
        + " | unattributed share |",
        "|---" * (len(cols) + 4) + "|",
    ]
    for kind, row in sorted(table.items()):
        share = row["bench"] / row["op_ms"] if row["op_ms"] else 0.0
        lines.append(
            f"| {kind} | {int(row['ops'])} | {row['op_ms']:.3f} | "
            + " | ".join(f"{row[c]:.3f}" for c in cols)
            + f" | {share:.3f} |")
    lines += ["", f"Tracing overhead on the primary op `{wl.primary}`: "
              f"untraced median {untraced_ms:.3f} ms, traced median "
              f"{traced_ms:.3f} ms, difference "
              f"{traced_ms - untraced_ms:+.3f} ms "
              f"({len(plain.samples.get(wl.primary, []))} untraced ops)."]
    for key, label in sorted(wl.labels.items()):
        lines.append(f"- {key}: `{label}`")
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
def report(wl, metrics, recs, trace: bool) -> dict:
    attempted = sum(sum(r.attempted.values()) for r in recs)
    failed = sum(sum(r.failed.values()) for r in recs)
    for name, (value, unit) in metrics.items():
        note = " (reference, not gated)" if name in UNGATED else ""
        print(f"{name:28s} {value:14.4f} {unit}{note}")
    frac = failed / attempted if attempted else 0.0
    print(f"{'failed_frac':28s} {frac:14.4f} ratio "
          f"({failed} of {attempted} ops)")
    for rec in recs:
        for kind in sorted(rec.attempted):
            print(f"  ops {kind:18s} attempted {rec.attempted[kind]:5d}"
                  f"  failed {rec.failed[kind]:5d}"
                  f"  timed {len(rec.samples.get(kind, [])):5d}")
    for name, value in sorted(wl.baselines.items()):
        print(f"{name:28s} {value:14.4f} ms (reference, not gated)")
    if "baseline.scipy_ms" not in wl.baselines and wl.name == "ilu-krylov":
        print(f"{'baseline.scipy_ms':28s} {'absent':>14s} (scipy not "
              "importable)")
    if not trace:
        for base in sorted(wl.baselines):
            for name in ("exec_ms_tmean", "threads_exec_ms_tmean"):
                value = metrics[name][0]
                ratio = value / wl.baselines[base]
                print(f"ratio {name} / {base} = {value:.3f} ms / "
                      f"{wl.baselines[base]:.3f} ms = {ratio:.3f}")
    for key, label in sorted(wl.labels.items()):
        print(f"label {key} = {label}")
    for rec in recs:
        for err in rec.errors[:5]:
            print("op error:", err.strip().splitlines()[-1])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k not in UNGATED},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run(args, WORKLOADS[args.workload])
    finally:
        stop_children()


def stop_children() -> None:
    """Stop and wait for every process the run started.

    The ``processes`` backend's pools are joined by the library; its
    shared memory also starts multiprocessing's resource tracker, which
    would otherwise outlive this process until it noticed the exit.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def run(args, workload) -> int:
    t0 = perf_counter()
    wl = workload(args.seed)
    print(f"{wl.name}: seed {args.seed}, inputs built in "
          f"{perf_counter() - t0:.2f} s; {wl.why}")
    if args.trace:
        metrics, recs = traced(wl, args.seconds)
    else:
        metrics, recs = untraced(wl, args.seconds)
    stop_children()
    wl.baselines_after_run()
    result = report(wl, metrics, recs, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    details = dict(result, workload=wl.name, seed=args.seed,
                   trace=args.trace, baselines=wl.baselines,
                   labels=wl.labels,
                   samples=[r.samples for r in recs])
    suffix = "-traced" if args.trace else ""
    (OUT_DIR / f"{wl.name}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
