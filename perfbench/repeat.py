#!/usr/bin/env python3
"""Run one perfbench workload several times and summarise the spread.

    python3 perfbench/repeat.py --workload paper-readheavy --runs 10 [--first-seed 1]
        [--seconds N]

Each run uses the next seed. For every metric the script prints the
median, the first and third quartile (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and whether the spread fits the metric's bound
in BENCHMARK.json. It also prints the share of failed operations of every
run, which must be the same in all.
Run it from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares, tails = {}, [], {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        detail = json.loads(lines[-2])
        for cls, st in detail["latency_us"].items():
            tails.setdefault(cls, []).append((st["samples"], st["p99"]))
        shares.append((res["failed"], res["attempted"]))
        failed_kinds = {k: c["failed"] for k, c in detail["ops"].items() if c["failed"]}
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"
              f" {failed_kinds or ''}", file=sys.stderr)
        for e in detail.get("errors", []):
            if not e.startswith("ryw_probe:"):
                print(f"  {e}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    ok = True
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            fits = spread <= bound
            ok = ok and fits
            verdict = "ok" if fits else "TOO WIDE"
            if fits and spread > bound / 3:
                verdict = "ok (above a third of the bound)"
        print(f"{name:36} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound if bound is not None else '':>6} {verdict}")
    print("latency samples and p99 per run (medians), by class and operation kind:")
    for cls in sorted(tails):
        samples = statistics.median(s for s, _ in tails[cls])
        p99 = statistics.median(p for _, p in tails[cls])
        print(f"  {cls:28} samples {samples:9.0f}  p99 {p99:10.1f} us")
    fractions = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(set(f'{f}/{a}' for f, a in shares))}"
          f" -> {'identical' if len(fractions) == 1 else 'DIFFERS'}")
    return 0 if ok and len(fractions) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
