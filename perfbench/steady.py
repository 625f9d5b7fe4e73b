"""Steadiness mode: repeat workloads and compare each metric's spread.

Run from the repository root::

    python3 perfbench/steady.py --workload fig3-steady --runs 10 --seconds 20

Each run is a fresh untraced ``run.py`` process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  For every end-to-end
metric the script prints the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and the spread, ``(q3 - q1) / median``,
against the metric's bound from ``BENCHMARK.json``: ``steady`` below a
third of the bound, ``in bound`` up to the bound, ``NOT STEADY``
otherwise.  ``--sets 2`` repeats the whole set and also checks that the
second median is not worse than the first by more than the bound.
Results are saved under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                result = one_run(workload, seed, seconds)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
                runs.append(result)
                seed += 1
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds:g} s each")
        print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        summary = {}
        for name in sets[0][0]["metrics"]:
            unit = sets[0][0]["metrics"][name]["unit"]
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(values)
                medians.append(med)
                bound = bounds.get(name, {}).get("bound")
                if bound is None:
                    verdict = ""
                elif spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "in bound"
                else:
                    verdict = "NOT STEADY"
                    ok = False
                print(f"{name:28s} {unit:6s} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:8.4f} "
                      f"{bound if bound is not None else '':>6}  {verdict}")
                summary.setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "values": values})
            if len(medians) > 1 and name in bounds:
                b = bounds[name]
                worse = ((medians[-1] - medians[0]) / medians[0]
                         if b["better"] == "lower"
                         else (medians[0] - medians[-1]) / medians[0])
                verdict = "ok" if worse <= b["bound"] else "DRIFTED"
                ok &= verdict == "ok"
                print(f"{'':28s} second median vs first: {worse:+.4f} "
                      f"(bound {b['bound']})  {verdict}")
        (out_dir / f"steady-{workload}.json").write_text(
            json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
