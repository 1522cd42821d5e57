"""Closed-loop benchmark of the bicyclic package.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 20 --trace 0

One client in one process calls bicyclic's public functions back to back
(a closed loop) and checks every result against ground truth built from
how the input was made.  Run it from the repository root: the package is
imported from ./src, nothing is installed.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups in the run), operations per second, median latency and peak RSS.
--trace 1 times the same blocks of operations untraced and then traced,
and prints per-layer call counts, self times, work counts and the tracing
overhead; spans are written to perfbench/out/.

The last line of standard output is the result as one JSON object; the line
before it is a detail record (environment fingerprint, sample counts,
failure shares, per-kind medians).  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100   # so that at least ten samples lie beyond the p90
NO_WAIT = ("not measured: one client in a closed loop and no layer has a "
           "queue, so no operation waits")

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fingerprint(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": seed,
        "tuning": "none: no pinning, no frequency or cache control, "
                  "thread settings left as found",
    }


def import_bicyclic():
    """Import the package afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "bicyclic" or m.startswith("bicyclic.")]:
        del sys.modules[name]
    bc = importlib.import_module("bicyclic")
    cli = importlib.import_module("bicyclic.cli")
    return bc, cli


def set_up(workload_cls, seed: int, workdir: str, tracer=None):
    """Import, generate the seeded inputs and warm up; traced if asked."""
    bc, cli = import_bicyclic()
    if tracer is not None:
        tracer.install()
        span = tracer.begin_op(-1)
    wl = workload_cls(bc, cli, seed, workdir)
    wl.warm_up()
    if tracer is not None:
        tracer.end_op(span)
        tracer.restore()
    return wl


class Outcomes:
    """Latency and outcome of every attempted operation."""

    def __init__(self):
        self.latency_s: list[float] = []
        self.kinds: list[str] = []
        self.raised = 0          # the call raised
        self.wrong = 0           # the call returned a result that failed its check
        self.known_defect = 0    # of those two, the documented seed behaviour

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    @property
    def unexpected(self) -> int:
        return self.raised + self.wrong - self.known_defect


def run_op(op, out: Outcomes, tracer=None, op_id: int = 0) -> None:
    if op.prepare is not None:
        op.prepare()
    exc = result = None
    span = tracer.begin_op(op_id) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as e:  # an op that raises is a failed op, not a crash
        exc = e
    elapsed = time.perf_counter() - t0
    if span is not None:
        tracer.end_op(span)
    out.latency_s.append(elapsed)
    out.kinds.append(op.kind)
    if exc is None:
        try:
            ok = bool(op.check(result))
        except (KeyError, IndexError, TypeError, ValueError, OSError):
            ok = False
        if ok:
            return
        out.wrong += 1
    else:
        out.raised += 1
    if op.known_defect is not None and op.known_defect(result, exc):
        out.known_defect += 1


def run_blocks(wl, out: Outcomes, *, seconds: float | None = None, blocks: int | None = None,
               tracer=None) -> tuple[float, int]:
    """Run `blocks` whole blocks, or as many as fit in `seconds` (at least one)."""
    t0 = time.perf_counter()
    b = 0
    while True:
        for op in wl.block(b):
            run_op(op, out, tracer, out.attempted)
        b += 1
        elapsed = time.perf_counter() - t0
        if blocks is not None and b >= blocks:
            return elapsed, b
        if seconds is not None and elapsed * (b + 1) / b > seconds:
            return elapsed, b


def detail_record(args, env, out: Outcomes, elapsed: float, nblocks: int) -> dict:
    n = out.attempted
    lat_ms = [x * 1e3 for x in out.latency_s]
    per_kind = {}
    for kind in sorted(set(out.kinds)):
        xs = [x for x, k in zip(lat_ms, out.kinds) if k == kind]
        per_kind[kind] = {"ops": len(xs), "p50_ms": statistics.median(xs)}
    rec = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": n, "blocks": nblocks, "measured_s": elapsed,
        "failed_share": (out.raised + out.wrong) / n,
        "known_defect_share": out.known_defect / n,
        "unexpected_failures": out.unexpected,
        "latency_samples": n,
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if n >= P90_MIN_SAMPLES else
        f"not reported: {n} samples, fewer than {P90_MIN_SAMPLES}",
        "wait_ms": NO_WAIT,
        "per_kind": per_kind,
    }
    env["loadavg_1m_end"] = os.getloadavg()[0]
    rec["env"] = env
    return rec


def result_line(parts: list[Outcomes], metrics: dict) -> str:
    failed = sum(p.unexpected for p in parts)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in parts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure(args, wl_cls, workdir: str, env: dict) -> list[str]:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = set_up(wl_cls, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    out = Outcomes()
    elapsed, nblocks = run_blocks(wl, out, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = detail_record(args, env, out, elapsed, nblocks)
    detail["setup_samples_s"] = setup_s
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (out.attempted / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(out.latency_s) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return [json.dumps(detail), result_line([out], metrics)]


def measure_traced(args, wl_cls, workdir: str, env: dict) -> list[str]:
    # a fixed number of blocks, so that every count repeats exactly per seed
    nblocks = max(1, round(args.seconds / (2 * wl_cls.block_seconds)))
    tracer = Tracer()
    wl = set_up(wl_cls, args.seed, workdir, tracer)

    untraced = Outcomes()
    t_plain, _ = run_blocks(wl, untraced, blocks=nblocks)
    traced = Outcomes()
    tracer.install()
    try:
        t_traced, _ = run_blocks(wl, traced, blocks=nblocks, tracer=tracer)
    finally:
        tracer.restore()

    metrics = tracer.layer_metrics()
    metrics["classifier.failed"] = (traced.raised, "count")
    metrics["classifier.wrong"] = (traced.wrong, "count")
    metrics["trace.overhead"] = (t_plain / t_traced, "ratio")
    metrics["trace.spans"] = (len(tracer.name), "count")

    detail = detail_record(args, env, traced, t_traced, nblocks)
    detail["untraced_s"] = t_plain
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(spans)
    detail["spans_file"] = str(spans.relative_to(ROOT))
    return [json.dumps(detail), result_line([untraced, traced], metrics)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bicyclic" / "__init__.py").is_file():
        print(f"error: no bicyclic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = fingerprint(args.seed)
    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_parent)
    try:
        run = measure_traced if args.trace else measure
        lines = run(args, WORKLOADS[args.workload], workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
