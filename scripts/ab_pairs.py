#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: a base revision against
the working tree, in alternating pairs.

Usage (from anywhere inside the repository):

    python3 scripts/ab_pairs.py --rev HEAD~1
    python3 scripts/ab_pairs.py --rev main --workload hotspot_rw --pairs 10 \\
        --seconds 10 --seed 1 --scratch /tmp/ab

REV's tree is exported with `git archive` (local, no network) into a fresh
directory under --scratch (default: a new temporary directory), and the
export is removed when the script ends.  Each pair runs REV's and the
working tree's `perfbench/run.py --trace 0` once per workload, the order
flipped every pair, so slow and fast spells of a shared host fall on both
sides alike.  Each tree builds its own perfbench on its first run.

Printed per workload: every run's end-to-end metrics, then per metric
both medians, each side's quartiles and "change better in k of n" pairs,
with direction and bound from the working tree's BENCHMARK.json.  A
metric whose quartile spread exceeds its bound on either side is marked
unresolved: the host noise is then too large to call it either way.

Exit status: 0 when every run succeeded and every epoch both sides
reached agrees in digest, sim_lookups, sim_hops, sim_messages and failed;
1 when any of them differs; 2 when a run or the export failed.  The
script edits nothing: not perfbench/, not BENCHMARK.json.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest_large_ring", "range_scan", "hotspot_rw")
# Epoch fields that depend on the seed alone: both sides must agree.
SIMULATED = ("digest", "sim_lookups", "sim_hops", "sim_messages", "failed")


def log(msg):
    print(f"ab_pairs: {msg}", file=sys.stderr, flush=True)


def export_rev(rev, dest):
    """Writes REV's tree into `dest`; returns REV's full commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          sha], check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return sha


def run_once(tree, workload, args):
    """One perfbench run: (epoch dicts, metrics dict, failed ops)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    epochs = []
    for line in lines:
        if line.startswith("epoch "):
            fields = dict(f.split("=", 1) for f in line.split()[2:]
                          if "=" in f)
            epochs.append(fields)
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()
               if v.get("value") is not None}
    return epochs, metrics, result.get("failed", 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def report(workload, runs, spec):
    """Prints one workload's table; returns its unresolved/worse names."""
    print(f"\n== {workload}: {len(runs)} pairs")
    names = [m["name"] for m in spec]
    print("pair side   " + " ".join(f"{n:>14}" for n in names))
    for i, pair in enumerate(runs):
        for side in ("base", "change"):
            vals = pair[side]
            print(f"{i:>4} {side:<6} " + " ".join(
                f"{vals[n]:>14.6g}" if n in vals else f"{'n/a':>14}"
                for n in names))
    print(f"{'metric':<16}{'base med':>12}{'base q1-q3':>24}"
          f"{'change med':>12}{'change q1-q3':>24}{'delta':>9}  verdict")
    flagged = []
    for m in spec:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        pairs = [(p["base"][name], p["change"][name]) for p in runs
                 if name in p["base"] and name in p["change"]]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        chg = [c for _, c in pairs]
        bmed, cmed = statistics.median(base), statistics.median(chg)
        better = sum(1 for b, c in pairs if (c < b if lower else c > b))
        delta = (cmed - bmed) / abs(bmed) if bmed else 0.0
        worse_by = delta if lower else -delta
        if max(spread(base), spread(chg)) > bound:
            verdict = "unresolved (quartile spread > bound)"
            flagged.append(f"{workload}.{name} unresolved")
        elif worse_by > bound:
            verdict = f"WORSE than bound {bound:.0%}"
            flagged.append(f"{workload}.{name} worse")
        else:
            verdict = f"within bound {bound:.0%}"
        bq, cq = quartiles(base), quartiles(chg)
        print(f"{name:<16}{bmed:>12.6g}{bq[0]:>12.6g}{bq[1]:>12.6g}"
              f"{cmed:>12.6g}{cq[0]:>12.6g}{cq[1]:>12.6g}{delta:>+9.1%}"
              f"  change better in {better} of {len(pairs)}; {verdict}")
    return flagged


def compare_epochs(workload, pair, side_epochs):
    """Mismatches of the seed-determined epoch fields, as messages."""
    base, chg = side_epochs
    out = []
    for e, (b, c) in enumerate(zip(base, chg)):
        for field in SIMULATED:
            if b.get(field) != c.get(field):
                out.append(f"{workload} pair {pair} epoch {e}: {field} "
                           f"{b.get(field)} (base) != {c.get(field)} (change)")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="base revision")
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scratch", type=Path,
                        help="directory for the base export "
                             "(default: a new temporary directory)")
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in WORKLOADS for w in workloads) or args.pairs < 1:
        parser.error("unknown workload or --pairs < 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    scratch.mkdir(parents=True, exist_ok=True)
    base_tree = Path(tempfile.mkdtemp(prefix="base-", dir=scratch))
    base_tree.rmdir()
    try:
        sha = export_rev(args.rev, base_tree)
        log(f"base {args.rev} = {sha[:12]} exported to {base_tree}")
        runs = {w: [] for w in workloads}
        mismatches = []
        failed_ops = 0
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                epochs, metrics = {}, {}
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    log(f"pair {i} {w} {side}")
                    epochs[side], metrics[side], failed = run_once(tree, w,
                                                                   args)
                    failed_ops += failed
                runs[w].append(metrics)
                mismatches += compare_epochs(
                    w, i, (epochs["base"], epochs["change"]))
        print(f"# ab_pairs base={sha[:12]} change=working-tree "
              f"seed={args.seed} seconds={args.seconds} pairs={args.pairs}")
        flagged = []
        for w in workloads:
            flagged += report(w, runs[w], spec)
        print(f"\nfailed ops over all runs: {failed_ops}")
        print("flagged: " + (", ".join(flagged) if flagged else "none"))
        for m in mismatches:
            print(f"MISMATCH {m}")
        print("simulated epochs: " +
              ("DIFFER" if mismatches else "identical in every pair"))
        return 1 if mismatches else 0
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        log(f"error: {err}")
        return 2
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
