"""Benchmark of tensim: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-sparse --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: tensim is imported from ``src/`` next to
this directory, and nothing is installed.  The workload's fixed operation
list is built from ``--seed`` (see README.md), then timed in whole passes
until ``--seconds`` are used up.  Every output is checked by ``checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones of
``tracing.py``, from passes that alternate with untraced passes so that the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread everywhere, the timed process and the set-up interpreters alike.
# Must be set before numpy loads: OpenBLAS reads it once, at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Passes every run makes, whatever ``--seconds`` says; the per-operation
#: median needs several.
MIN_PASSES = 3

#: Fresh interpreters timed for ``setup_s``; their median is reported.
MIN_SETUP_SAMPLES = 5

#: Operations beyond the tail percentile.
TAIL_BEYOND = 10

SETUP_CODE = "import tensim, tensim.cli"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_tensim():
    """tensim from this checkout's ``src/``, or ``None`` when it is missing."""
    if not (SRC / "tensim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import tensim
    import tensim.cli  # noqa: F401  (every traced module must be loaded)

    if Path(tensim.__file__).resolve().parent != SRC / "tensim":
        return None
    return tensim


def time_setup() -> float:
    """Seconds a fresh interpreter takes to import tensim and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                   timeout=60)
    return time.perf_counter() - start


class Run:
    """The passes of one run and what they measured."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.op_ns = {op.key: [] for op in ops}  # untraced passes only
        self.pass_ns = {False: [], True: []}  # summed op time, by traced
        self.layer_passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: set[str] = set()

    def one_pass(self, traced: bool) -> None:
        outputs, times = {}, {}
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            for op in self.ops:
                gc.collect()
                start = time.perf_counter_ns()
                try:
                    out = op.run()
                except Exception as exc:  # a crash is a failed operation
                    out = exc
                times[op.key] = time.perf_counter_ns() - start
                outputs[op.key] = out
        finally:
            if traced:
                self.tracer.uninstall()
        for op in self.ops:
            self.attempted += 1
            if not self.passes(op, outputs):
                self.failed += 1
                if not op.known_fault:
                    self.unexpected.add(op.key)
        self.pass_ns[traced].append(sum(times.values()))
        if traced:
            layers = self.tracer.snapshot()
            layers["cli.stdout_bytes"] = sum(
                len(outputs[op.key][1].encode()) for op in self.ops
                if op.argv and isinstance(outputs[op.key], tuple)
            )
            self.layer_passes.append(layers)
        else:
            for key, ns in times.items():
                self.op_ns[key].append(ns)

    @staticmethod
    def passes(op, outputs) -> bool:
        out = outputs[op.key]
        if isinstance(out, Exception):
            return False
        try:
            return bool(op.check(out, outputs))
        except Exception:  # a malformed output fails its check
            return False


def end_to_end(run: Run, setup_samples: list[float]) -> dict:
    per_op_ms = sorted(statistics.median(ns) / 1e6 for ns in run.op_ns.values())
    n_ops = len(per_op_ms)
    failed_per_pass = run.failed / (run.attempted // n_ops)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": ((n_ops - failed_per_pass) / (sum(per_op_ms) / 1e3), "ops/s"),
        "latency_p50_ms": (statistics.median(per_op_ms), "ms"),
        # nearest rank with exactly TAIL_BEYOND operations above it
        "latency_tail_ms": (per_op_ms[n_ops - TAIL_BEYOND - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    import tracing

    units = tracing.metric_units()
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_pct":
            continue
        values = [layers[name] for layers in run.layer_passes]
        out[name] = (statistics.median(values), unit)
    overhead = statistics.median(run.pass_ns[True]) / statistics.median(run.pass_ns[False])
    out["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    tensim = import_tensim()
    if tensim is None:
        print(f"error: no tensim package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        for name in tracer.skipped:
            print(f"trace: {name} not found, reported as 0", file=sys.stderr)

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = workloads.WORKLOADS[args.workload](tensim, args.seed, workdir)
        order = workloads.rng_for(args.seed, "order").permutation(len(ops))
        ops = [ops[i] for i in order]
        run = Run(ops, tracer)
        if not args.trace:
            time_setup()  # the first import may compile bytecode; not counted
        setup_samples = []

        gc.collect()
        gc.freeze()  # the inputs are long-lived; keep them out of every collection
        gc.disable()
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            run.one_pass(traced=bool(args.trace) and passes % 2 == 1)
            if not args.trace:
                setup_samples.append(time_setup())
            passes += 1
            elapsed = time.perf_counter() - start
            per_pass = time.perf_counter() - pass_start
            if passes >= MIN_PASSES + args.trace and elapsed + per_pass > args.seconds:
                break
        gc.enable()
        while not args.trace and len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(time_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(run) if args.trace else end_to_end(run, setup_samples)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations x {passes} passes, "
          f"tail percentile p{100 * (len(ops) - TAIL_BEYOND) / len(ops):.1f}",
          file=sys.stderr)
    for key in sorted(run.unexpected):
        print(f"failed: {key}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
