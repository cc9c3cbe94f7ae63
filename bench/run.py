"""carev benchmark: seeded workloads driven through the command line.

    python3 bench/run.py --workload invert_reverse --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  One client runs a closed loop: each op is one in-process
``carev.cli.main([...])`` call on generated files, and the next op starts when
the previous one returns.  Ops come from the workload's seeded stream in
whole cycles until their summed wall time reaches ``--seconds``.  Every
output is then checked (see ``checks.py``); a wrong output aborts the run
with exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same ops
twice, first untraced and then with per-layer spans (see ``spans.py``), and
prints the per-layer metrics, the tracing overhead and the span coverage.
The last line of standard output is the result object; the line before it
holds machine facts and the input-property shares of the ops run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
COVERAGE_FLOOR = 0.9  # top-level spans must cover 90% of the op wall time
MIN_OPS = 100  # so that at least ten latencies lie beyond the p90
LAYERS = ("cli", "serialize", "spectral", "field", "charpoly", "oracle", "structmat",
          "ca", "kernels")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMBA_NUM_THREADS", "CAREV_BACKEND")


def per_layer_names():
    """(name, unit) of every metric a traced run prints, in order."""
    import spans

    extra = [("trace.ops", "count"), ("trace.coverage", "ratio"),
             ("trace.untraced_s", "s"), ("trace.overhead_share", "ratio"),
             ("import.numpy.cum_s", "s"), ("import.sympy.cum_s", "s"),
             ("import.carev.cum_s", "s")]
    extra += [(f"import.carev.{layer}.self_s", "s") for layer in LAYERS]
    return spans.metric_names() + extra


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def cold_start(argv, importtime=False):
    """Seconds for import plus one op in a fresh interpreter (and the
    -X importtime log when asked)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "setup_probe.py"), str(SRC), json.dumps(argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip()), proc.stderr


def import_times(log):
    """Per-module import times from a -X importtime log."""
    self_us, cum_us = {}, {}
    for line in log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            name = m.group(4)
            self_us[name] = int(m.group(1))
            cum_us.setdefault(name, int(m.group(2)))
    out = {f"import.{top}.cum_s": cum_us.get(top, 0) / 1e6 for top in ("numpy", "sympy", "carev")}
    for layer in LAYERS:
        out[f"import.carev.{layer}.self_s"] = self_us.get(f"carev.{layer}", 0) / 1e6
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_op(cli, argv):
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return code, wall


def run_loop(cli, cycles, seconds, min_ops=MIN_OPS):
    """Run whole cycles of ops, in order, until their summed wall time
    reaches ``seconds`` and at least ``min_ops`` ops have run.
    Returns [(op, exit code, wall, outcome)]."""
    import checks

    records = []
    busy = 0.0
    for cycle in cycles:
        if busy >= seconds and len(records) >= min_ops:
            break
        for op in cycle:
            code, wall = run_op(cli, op.argv)
            busy += wall
            records.append((op, code, wall, checks.outcome(code)))
    return records


def e2e_metrics(records, setup, rss_mb):
    walls = [r[2] for r in records if r[3] == "answered"]
    busy = math.fsum(r[2] for r in records)
    deciles = statistics.quantiles(walls, n=10)
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(walls) / busy, "ops/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (deciles[8], "s"),
        "answered_share": (len(walls) / len(records), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def shares(records):
    """Share of the attempted ops with each input property and outcome."""
    counts = {}

    def bump(key, value):
        counts.setdefault(key, {}).setdefault(str(value), 0)
        counts[key][str(value)] += 1

    for op, code, _wall, kind in records:
        for key, value in op.props.items():
            if key == "N":
                lo = 2 ** int(math.log2(value))
                value = f"{lo}-{2 * lo - 1}"
            bump(key, value)
        bump("outcome", kind)
        if kind == "answered":
            bump("reversible", code == 0)
    n = len(records)
    return {key: {v: round(c / n, 4) for v, c in sorted(vals.items())}
            for key, vals in counts.items()}


def machine_facts(carev):
    import numpy
    import sympy

    digest = hashlib.sha256()
    for path in sorted((SRC / "carev").rglob("*.py")):
        digest.update(path.read_bytes())
    commit = None  # a source checkout without git history has no commit
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=False).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "backend": carev.kernels.backend(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python_threads": threading.active_count(),
    }


def emit(info, attempted, failed, metrics):
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "carev" / "__init__.py").is_file():
        print(f"error: no carev sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.STREAMS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.STREAMS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ops").mkdir(parents=True)
    try:
        return measure(args, work, checks, workloads)
    except checks.Mismatch as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()


def measure(args, work, checks, workloads):
    warm = workloads.warmup_argv(args.workload, str(work))
    if not args.trace:
        setup = statistics.median(cold_start(warm)[0] for _ in range(SETUP_REPEATS))

    import carev.cli
    import carev.field
    import carev.kernels

    cli = carev.cli
    if run_op(cli, warm)[0] != 0:
        raise RuntimeError("warm-up op failed")
    stream = workloads.STREAMS[args.workload](random.Random(args.seed),
                                             workloads.Writer(str(work / "ops")))
    records = run_loop(cli, stream, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"workload": args.workload, "seed": args.seed, "machine": machine_facts(carev),
            "shares": shares(records)}

    if args.trace:
        import spans

        carev.field.canonical_modulus.cache_clear()
        run_op(cli, warm)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_loop(cli, [[r[0] for r in records]], math.inf, 0)
        finally:
            tracer.remove()
        for a, b in zip(records, traced):
            if a[1] != b[1]:
                raise checks.Mismatch(a[0], f"exit code {a[1]} untraced, {b[1]} traced")
        checks.check_all(records, args.seed)
        busy = math.fsum(r[2] for r in records)
        busy_traced = math.fsum(r[2] for r in traced)
        coverage = tracer.top_s / busy_traced
        metrics = tracer.metrics()
        metrics.update({
            "trace.ops": (len(traced), "count"),
            "trace.coverage": (coverage, "ratio"),
            "trace.untraced_s": (busy_traced - tracer.top_s, "s"),
            "trace.overhead_share": (busy_traced / busy - 1.0, "ratio"),
        })
        for name, value in import_times(cold_start(warm, importtime=True)[1]).items():
            metrics[name] = (value, "s")
        metrics = {name: metrics[name] for name, _ in per_layer_names()}
        info["trace"] = {"coverage": coverage, "untraced_busy_s": busy,
                         "traced_busy_s": busy_traced}
        if coverage < COVERAGE_FLOOR:
            print(f"error: spans cover {coverage:.3f} of the op wall time", file=sys.stderr)
            return 1
    else:
        checks.check_all(records, args.seed)
        metrics = e2e_metrics(records, setup, rss_mb)
        answered = sum(1 for r in records if r[3] == "answered")
        info["op_p90_s_samples"] = {"answered": answered,
                                    "beyond_p90": answered - math.ceil(0.9 * answered)}
    failed = sum(1 for r in records if r[3] == "failed")
    emit(info, len(records), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
