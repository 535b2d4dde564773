#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark on two git revisions.

    python3 scripts/ab_pairs.py REV_A REV_B [--pairs 10] [--seconds 20]

Both revisions are extracted with ``git archive`` into temporary
directories.  Pair i (seed i, from 1) runs ``python3 perfbench/run.py
--workload all --seed i --seconds S`` in each tree, one at a time; A runs
first in odd pairs and B in even ones, so drift of the host falls on both
sides alike.  The script reads nothing of the package: only the last line
that ``perfbench/run.py`` prints, its JSON result.

It prints one Markdown row per workload metric: the median [Q1, Q3] of
each side, the ratio B/A of the medians and the pairs that B won (every
metric is lower-is-better).  It exits with 1 when a run exits nonzero, at
once, or when a run reports failed operations, after the table.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_result(stdout):
    """The JSON result of a ``perfbench/run.py`` run: the last line of its output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(results_a, results_b):
    """Rows ``(workload, metric, (med, q1, q3) of A, (med, q1, q3) of B, ratio, wins)``.

    ``results_a[i]`` and ``results_b[i]`` are the JSON results of pair i;
    metric keys are ``workload.metric``, in A's order.  B wins a pair on a
    metric when its value is lower.
    """
    rows = []
    for key in results_a[0]["metrics"]:
        a = [r["metrics"][key]["value"] for r in results_a]
        b = [r["metrics"][key]["value"] for r in results_b]
        stats_a, stats_b = _quartiles(a), _quartiles(b)
        ratio = stats_b[0] / stats_a[0] if stats_a[0] else float("nan")
        wins = sum(y < x for x, y in zip(a, b))
        workload, _, metric = key.partition(".")
        rows.append((workload, metric, stats_a, stats_b, ratio, wins))
    return rows


def format_table(rows, pairs, label_a="parent", label_b="change"):
    """The rows as the Markdown table that CHANGES.md entries use."""
    def cell(stats):
        return f"{stats[0]:.4g} [{stats[1]:.4g}, {stats[2]:.4g}]"

    lines = [f"| workload | metric | {label_a} median [q1, q3] | {label_b} median [q1, q3] "
             f"| ratio | {label_b} wins |",
             "|---|---|---|---|---|---|"]
    for workload, metric, stats_a, stats_b, ratio, wins in rows:
        lines.append(f"| {workload} | {metric} | {cell(stats_a)} | {cell(stats_b)} "
                     f"| {ratio:.3f} | {wins}/{pairs} |")
    return "\n".join(lines)


def extract(rev, dest):
    """The tree of ``rev`` in ``dest``, by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(tree, seed, seconds):
    """The JSON result of one ``--workload all`` run in ``tree``; exits on a nonzero status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} in {tree} exited with {proc.returncode}")
    return parse_result(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    results = {"a": [], "b": []}
    failed = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {"a": extract(args.rev_a, Path(tmp) / "a"),
                 "b": extract(args.rev_b, Path(tmp) / "b")}
        for seed in range(1, args.pairs + 1):
            for side in ("a", "b") if seed % 2 else ("b", "a"):
                result = run_once(trees[side], seed, args.seconds)
                results[side].append(result)
                rev = args.rev_a if side == "a" else args.rev_b
                print(f"pair {seed} {rev}: failed {result['failed']} of {result['attempted']}",
                      file=sys.stderr, flush=True)
                if result["failed"]:
                    failed.append(f"{rev} seed {seed}")
    print(format_table(summarize(results["a"], results["b"]), args.pairs,
                       args.rev_a, args.rev_b))
    if failed:
        print(f"ab_pairs: failed operations in {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
