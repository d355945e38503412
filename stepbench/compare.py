#!/usr/bin/env python3
"""Records and compares runs of the data-plane step benchmark.

Subcommands (run from the repository root):

  record --workload W --seeds 1-10 --out runs.jsonl
      Runs the benchmark (end-to-end metrics) once per seed in this checkout
      and appends one JSON line per run: {"workload", "seed", "result"}.

  pairs --parent DIR --change DIR --workload W --seeds 1-10 --out-dir D
      Runs parent and change on each seed, alternating which side runs first,
      into D/parent.jsonl and D/change.jsonl.

  spread runs.jsonl
      Per workload and end-to-end metric: median, quartiles and the
      interquartile range as a share of the median, against the bound.
      setup_s is shown but not flagged: only its median is bounded.

  compare parent.jsonl change.jsonl
      Per workload and end-to-end metric, classifies the change as improved,
      unchanged, worse or unresolved. Runs are paired in file order. A gain
      needs the change to win at least 9 of 10 pairs (ties count for
      neither side) and the medians to differ by more than the parent's
      interquartile range. Worse means the change's median is worse than the
      parent's by more than the metric's bound. Unresolved means the
      parent's own spread exceeds the bound and not every change run beats
      every parent run.

Bounds and directions come from BENCHMARK.json at the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("stepbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"run failed in {checkout}: {' '.join(cmd)}")
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1])}


def append(path, row):
    with open(path, "a") as fh:
        fh.write(json.dumps(row) + "\n")


def read_runs(path):
    """Runs grouped by workload, in file order."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def gain(parent, change, better):
    """Signed improvement from parent to change (positive is better)."""
    return change - parent if better == "higher" else parent - change


def classify(pv, cv, metric):
    """One compare row for a metric's parent and change values."""
    bound, better = metric["bound"], metric["better"]
    p_q1, p_med, p_q3 = quartiles(pv)
    c_med = statistics.median(cv)
    iqr = p_q3 - p_q1
    pairs = list(zip(pv, cv))
    wins = sum(1 for p, c in pairs if gain(p, c, better) > 0)
    g = gain(p_med, c_med, better)
    spread = iqr / abs(p_med) if p_med else float("inf")
    all_better = all(gain(p, c, better) > 0 for p in pv for c in cv)
    if pairs and wins >= 0.9 * len(pairs) and g > iqr:
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif -g > bound * abs(p_med):
        verdict = "worse"
    else:
        verdict = "unchanged"
    return {"parent_median": p_med, "change_median": c_med, "parent_iqr": iqr,
            "wins": wins, "pairs": len(pairs), "verdict": verdict}


def cmd_record(a):
    spec, _ = load_spec()
    for seed in parse_seeds(a.seeds):
        append(a.out, run_once(ROOT, a.workload, seed, spec["run_seconds"]))


def cmd_pairs(a):
    spec, _ = load_spec()
    os.makedirs(a.out_dir, exist_ok=True)
    sides = [("parent", a.parent), ("change", a.change)]
    for i, seed in enumerate(parse_seeds(a.seeds)):
        for name, checkout in (sides if i % 2 == 0 else sides[::-1]):
            row = run_once(checkout, a.workload, seed, spec["run_seconds"])
            append(os.path.join(a.out_dir, f"{name}.jsonl"), row)


def cmd_spread(a):
    _, metrics = load_spec()
    ok = True
    for workload, results in sorted(read_runs(a.runs).items()):
        for name, m in metrics.items():
            vals = values_of(results, name)
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / abs(med) if med else float("inf")
            # Acceptance bounds the spread of every metric but setup_s, whose
            # median alone is compared between runs of the same code.
            flag = "" if share <= m["bound"] or name == "setup_s" else "  OVER BOUND"
            ok = ok and not flag
            print(f"{workload:16} {name:24} n={len(vals):2} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={share:.4f} bound={m['bound']}{flag}")
    sys.exit(0 if ok else 1)


def cmd_compare(a):
    _, metrics = load_spec()
    parent, change = read_runs(a.parent), read_runs(a.change)
    for workload in sorted(set(parent) & set(change)):
        for name, m in metrics.items():
            row = classify(values_of(parent[workload], name), values_of(change[workload], name), m)
            print(f"{workload:16} {name:24} {row['verdict']:10} parent={row['parent_median']:.6g} "
                  f"change={row['change_median']:.6g} parent_iqr={row['parent_iqr']:.4g} "
                  f"wins={row['wins']}/{row['pairs']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--out", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out-dir", required=True)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    a = ap.parse_args()
    {"record": cmd_record, "pairs": cmd_pairs, "spread": cmd_spread, "compare": cmd_compare}[a.cmd](a)


if __name__ == "__main__":
    main()
