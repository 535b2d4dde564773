#!/usr/bin/env python3
"""Layered benchmark of the dhkrylov package.

    python3 perfbench/run.py --workload stokes-pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
invocation runs one workload in this process (``all`` runs each workload in
a fresh child process, so peak memory is per workload).  The load is a
closed loop with one caller: each pass starts when the previous one has
returned, and passes repeat until ``--seconds`` have elapsed.

With ``--trace 0`` the end-to-end metrics are measured with no hooks
installed; with ``--trace 1`` one untraced pass is followed by traced passes,
and the per-layer metrics come from the spans (see ``spans.py``).  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, the output checks and the
environment.  A fuller record is written to ``perfbench/out/``.

The BLAS thread count is fixed before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("stokes-pipeline", "hs-iterate", "mech-integrate", "stokes-schur")

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "widlund_ms": "ms",
    "rapoport_ms": "ms",
    "gmres_ms": "ms",
    "peak_rss_mb": "MB",
}

#: BLAS threads.  One thread was the steadiest setting on a 2-core VM: with
#: two, small LAPACK calls stall now and then for 0.1-0.2 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Set-up is timed at least SETUP_REPEATS times and for at least SETUP_MIN_S.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fix_blas_threads():
    """Pin every BLAS/OpenMP pool to BLAS_THREADS threads; numpy is not loaded yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def git_revision():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed, threads):
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def import_package():
    """Put ``src/`` first on the path; fail cleanly when the package is missing."""
    src = ROOT / "src"
    if not (src / "dhkrylov" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dhkrylov package under {src}")
    sys.path.insert(0, str(src))
    import dhkrylov

    if Path(dhkrylov.__file__).resolve().parent != (src / "dhkrylov").resolve():
        raise SystemExit(f"perfbench: imported dhkrylov from {dhkrylov.__file__}, not {src}")


def median(values):
    """Median of the samples; 0 when every sample failed (the run is then not correct)."""
    return float(statistics.median(values)) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """Run one workload in this process; return (result line, full record)."""
    from spans import (LAYER_UNITS, ROOT as ROOT_SPAN, Hooks, Tracer, layer_metrics,
                       self_time_table)
    from workloads import WORKLOADS, Checker, floor_probe

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    checker = Checker()
    wl = WORKLOADS[name](seed, work_dir, checker)
    samples = {"total_s": []}
    record = {}

    def one_pass(index):
        c0 = checker.seconds
        t0 = time.perf_counter()
        try:
            wl.run_pass(index)
        except Exception as exc:  # counted as a failed solve, the run goes on
            checker.record_error(f"pass {index}", exc)
        return time.perf_counter() - t0 - (checker.seconds - c0)

    try:
        wl.warm_up()
        if not trace:
            t_setup = time.perf_counter()
            while (len(wl.samples["setup_s"]) < SETUP_REPEATS
                   or (time.perf_counter() - t_setup < SETUP_MIN_S
                       and len(wl.samples["setup_s"]) < 50)):
                wl.timed_setup()
            start = time.perf_counter()
            index = 0
            while index == 0 or time.perf_counter() - start < seconds:
                samples["total_s"].append(one_pass(index))
                index += 1
            samples.update(wl.samples)
            metrics = {k: median(samples[k]) for k in END_TO_END if k in samples}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            samples["peak_rss_mb"] = [metrics["peak_rss_mb"]]
            units = END_TO_END
        else:
            start = time.perf_counter()
            untraced = one_pass(0)
            tracer = Tracer()
            checker.tracer = tracer
            passes, artifact_bytes = 0, 0
            with Hooks(tracer) as hooks:
                while passes == 0 or time.perf_counter() - start < seconds:
                    with tracer.span(ROOT_SPAN):
                        one_pass(passes + 1)
                    artifact_bytes += wl.artifact_bytes()
                    passes += 1
            checker.tracer = None
            try:
                floor = floor_probe(*wl.operator())
            except Exception as exc:  # a later operator type the probe cannot factor
                record["floor_error"] = repr(exc)
                floor = 0.0
            metrics = layer_metrics(tracer.spans, passes, floor, artifact_bytes, untraced)
            units = LAYER_UNITS
            tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
            record["hooks"] = hooks.status
            record["self_times"] = self_time_table(tracer.spans, passes)
            record["traced_passes"] = passes
            record["untraced_pass_s"] = untraced
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record.update({
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "samples": {k: samples.get(k, []) for k in units} if not trace else {},
        "fail_ratio": checker.failed / max(checker.attempted, 1),
        "check_messages": checker.messages,
        "check_seconds": checker.seconds,
    })
    return result, record


def print_report(name, result, record, env):
    from spans import CHECK, ROOT as ROOT_SPAN

    print(f"perfbench {name} seed={env['seed']} trace={record['trace']} "
          f"seconds={record['seconds']}")
    print("environment " + json.dumps(env))
    print(f"{'metric':<36}{'value':>16}  {'unit':<6}{'samples':>8}")
    for key, m in result["metrics"].items():
        n = len(record["samples"][key]) if not record["trace"] else record["traced_passes"]
        print(f"{key:<36}{m['value']:>16.6g}  {m['unit']:<6}{n:>8}")
    if record["trace"]:
        print(f"hooks: {json.dumps(record['hooks'])}")
        print(f"{'span':<28}{'calls/pass':>12}{'total_s':>12}{'self_s':>12}")
        for span, row in record["self_times"].items():
            print(f"{span:<28}{row['calls']:>12.6g}{row['total_s']:>12.6g}{row['self_s']:>12.6g}")
        layers = sum(row["self_s"] for span, row in record["self_times"].items()
                     if span not in (ROOT_SPAN, CHECK))
        metrics = result["metrics"]
        print(f"layer self times {layers:.6g} s + untraced remainder "
              f"{metrics['trace.untraced_s']['value']:.6g} s = traced total "
              f"{metrics['trace.total_s']['value']:.6g} s per pass (output checks excluded)")
    print(f"checks: attempted {result['attempted']}, failed {result['failed']}, "
          f"fail_ratio {record['fail_ratio']:.6g}")
    for msg in record["check_messages"]:
        print("  " + msg.replace("\n", "\n  "))


def run_all(args):
    """Each workload in a fresh child process; print a combined table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print()
    keys = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"{'metric':<36}" + "".join(f"{n:>18}" for n in WORKLOAD_NAMES))
    for key in keys:
        print(f"{key:<36}" + "".join(f"{results[n]['metrics'][key]['value']:>18.6g}"
                                     for n in WORKLOAD_NAMES))
    print(f"{'fail_ratio':<36}" + "".join(
        f"{results[n]['failed'] / max(results[n]['attempted'], 1):>18.6g}"
        for n in WORKLOAD_NAMES))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    threads = fix_blas_threads()
    import_package()
    env = environment(args.seed, threads)
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    record["environment"] = env
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print_report(args.workload, result, record, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
