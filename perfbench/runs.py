#!/usr/bin/env python3
"""Record repeated perfbench runs, report their spread, and compare two sets.

Run from the repository root:

    python3 perfbench/runs.py record --workload mainnet --seeds 1-10 --out base.jsonl
    python3 perfbench/runs.py spread base.jsonl
    python3 perfbench/runs.py compare base.jsonl change.jsonl

record writes one JSON line per run: {"stamp": ..., "result": ...}.
spread prints, per end-to-end metric, the median and the distance between the
first and third quartile as a share of the median, next to the metric's bound
in BENCHMARK.json. compare refuses (exit 2) when the two sets were measured in
different environments: toolchain, CPUs, GOMAXPROCS, workload parameters, run
length or trace mode. Revision and source digest may differ; they name the
code being compared.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ("go_version", "goos", "goarch", "gomaxprocs", "num_cpu", "workload", "params",
            "seconds", "trace")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def record(args):
    with open(args.out, "a") as f:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                print(f"seed {seed}: run failed (exit {p.returncode})", file=sys.stderr)
                return 1
            row = {"stamp": json.loads(lines[-2])["stamp"], "result": json.loads(lines[-1])}
            f.write(json.dumps(row) + "\n")
            f.flush()
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(row["result"]["metrics"].items())))
    return 0


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    spec = benchmark()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(rows, path):
    envs = {json.dumps({k: r["stamp"][k] for k in ENV_KEYS}, sort_keys=True) for r in rows}
    if len(envs) != 1:
        print(f"{path}: runs from {len(envs)} different environments", file=sys.stderr)
        return None
    return json.loads(envs.pop())


def by_metric(rows):
    out = {}
    for r in rows:
        for name, m in r["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def spread(args):
    rows = load(args.file)
    if environment(rows, args.file) is None:
        return 2
    meta = bounds()
    worst = 0
    for name, values in sorted(by_metric(rows).items()):
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / med if med else float("inf")
        bound = meta.get(name, {}).get("bound")
        note = ""
        if bound is not None:
            note = "ok" if share < bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            if share > bound:
                worst = 1
        print(f"{name:34s} n={len(values):2d} median={med:12.4f} iqr/median={share:7.4f}"
              + (f" bound={bound} {note}" if bound is not None else ""))
    return worst


def compare(args):
    base, change = load(args.base), load(args.change)
    eb, ec = environment(base, args.base), environment(change, args.change)
    if eb is None or ec is None:
        return 2
    if eb != ec:
        diff = [k for k in ENV_KEYS if eb[k] != ec[k]]
        print("refusing to compare: environments differ in " + ", ".join(diff), file=sys.stderr)
        return 2
    meta = bounds()
    mb, mc = by_metric(base), by_metric(change)
    verdict = 0
    for name in sorted(set(mb) & set(mc)):
        b, c = statistics.median(mb[name]), statistics.median(mc[name])
        info = meta.get(name, {})
        delta = (c - b) / b if b else float("inf")
        worse = delta if info.get("better") == "lower" else -delta
        line = f"{name:34s} base={b:12.4f} change={c:12.4f} delta={delta:+8.2%}"
        if "bound" in info:
            bad = worse > info["bound"]
            verdict |= bad
            line += f" bound={info['bound']} " + ("REGRESSION" if bad else "ok")
        print(line)
    return verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=benchmark()["run_seconds"])
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    args = ap.parse_args()
    return {"record": record, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
