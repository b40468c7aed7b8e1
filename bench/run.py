"""riskgate benchmark: one command for every workload, end to end or traced.

    python3 bench/run.py --workload generate-pool --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``; it exits with code 2, printing no result, when there is none.
One process drives one workload as a closed loop with one client, with
BLAS/OpenMP pools pinned to one thread.  Set-up runs the workload's
``setup_repeats`` times (``setup_s`` is their median), then ops run for
``--seconds`` (and at least the workload's minimum op count); each op's
output is checked outside the timed region.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones in BENCHMARK.json; ``ok_frac`` is ``1 - failed_frac``.
With ``--trace 1`` each input runs twice, traced and untraced in
alternating order, and the metrics are the per-layer ones, per traced
op, plus the traced and untraced cycle medians (the tracing overhead
and its base).  The traced run fails loudly if a layer the workload
predicts idle (the ``idle:`` list in its BENCHMARK.json ``why``)
records a call, if another layer records none, or if a wrapped entry
point is gone.  Spans are written to ``.bench_work/``.

End-to-end times are machine-normalised.  On a shared VM the speed of
identical work swings by up to 2x over seconds to minutes, so raw times
of runs minutes apart scatter by 20-40%.  A ``SpeedProbe`` times a fixed
reference computation (``reference_work``, independent of the package)
on a timer every ``PROBE_PERIOD_S`` throughout set-up and ops.  Probe
time is subtracted from what it interrupts, and each op's and set-up's
time is scaled by ``REFERENCE_MS / mean(reference time)`` over the
samples taken during it (at least the latest ``MIN_PROBE_SAMPLES``):
the time on a machine where the reference takes ``REFERENCE_MS``.  In
six runs of generate-pool on a 2-vCPU VM this cut the quartile spread of
cycle_ms_p50 from 0.29 (raw) to 0.10.  The raw median and the mean
reference time are on the ``info`` line.  Traced runs are not probed,
so spans hold raw times.
"""

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MAX_MEASURE_S = 100.0  # stop waiting for the minimum op count after this
PROBE_PERIOD_S = 0.1
MIN_PROBE_SAMPLES = 5
REFERENCE_MS = 4.0


def reference_work():
    """Fixed work in the package's mix: tableau row operations, a Bland-style scan, cumulative sums."""
    import numpy as np

    base = np.arange(1.0, 601.0).reshape(20, 30) / 600.0 + 1.0
    w = np.linspace(0.0, 1.0, 300)
    total = 0.0
    for it in range(100):
        t = base * (1.0 + 0.001 * it)
        row, piv = t[it % 20], t[(it + 7) % 20]
        row = row - (row[3] / piv[3]) * piv
        low = row.min()
        j = next(k for k in range(30) if row[k] <= low + 1e-12)
        total += float(np.cumsum(w[:, None] * row[None, :8], axis=0)[-1, j % 8])
    return total


class SpeedProbe:
    """Times ``reference_work`` on every SIGALRM tick once started; ``spent`` is its total time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first):
        """REFERENCE_MS over the mean reference time since sample ``first``."""
        window = self.samples[min(first, max(0, len(self.samples) - MIN_PROBE_SAMPLES)):]
        return REFERENCE_MS / (1000 * statistics.mean(window)) if window else 1.0




def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "riskgate" / "__init__.py").is_file():
        fail(f"no package source at {src / 'riskgate'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import riskgate

    if Path(riskgate.__file__).resolve().parent != (src / "riskgate").resolve():
        fail(f"imported riskgate from {riskgate.__file__}, not from the checkout")
    return time.perf_counter() - t0


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def idle_layers(spec, workload):
    for w in spec["workloads"]:
        if w["name"] == workload:
            match = re.search(r"idle: ([\w., ]+)$", w["why"])
            return [p.strip() for p in match.group(1).split(",")] if match else []
    fail(f"workload {workload!r} is not in BENCHMARK.json")


def run_op(w, k, records, probe, tracer=None):
    """One op, timed without the probe's time; its check runs after the clock stops.

    Appends (ok, seconds, traced, scale), ``scale`` from the probe samples
    taken during the op (at least ``MIN_PROBE_SAMPLES``, the latest ones).
    """
    if tracer:
        tracer.install()
        tracer.begin_op(len(records))
    ok = True
    spent, first = probe.spent, len(probe.samples)
    t0 = time.perf_counter()
    try:
        out = w.op(k)
    except Exception:
        traceback.print_exc()
        ok = False
    elapsed = time.perf_counter() - t0 - (probe.spent - spent)
    scale = probe.scale(first)
    if tracer:
        tracer.end_op()
        tracer.uninstall()
    if ok:
        try:
            w.check(k, out)
        except Exception:
            traceback.print_exc()
            ok = False
    records.append((ok, elapsed, tracer is not None, scale))


def measure(w, seconds, n_inputs, probe, tracer=None):
    """Ops until ``seconds`` have passed; returns the op records."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        k = i % n_inputs
        if tracer is None:
            run_op(w, k, records, probe)
        else:  # same input traced and untraced, alternating which goes first
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                run_op(w, k, records, probe, tracer if traced else None)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(records) >= w.min_ops or elapsed >= MAX_MEASURE_S):
            return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed; seed 1 also checks digests")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    idle = idle_layers(spec, args.workload)
    import_s = import_package()

    import numpy
    import scipy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:  # fail before set-up if an entry point is gone
        try:
            tracer.install()
        except tracing.EntryPointMissing as exc:
            fail(str(exc))
        tracer.uninstall()
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    probe = SpeedProbe()  # left unstarted in traced runs: no samples, scale 1
    try:
        if not tracer:
            probe.start()
        setup_times = []
        w = None
        for r in range(workloads.WORKLOADS[args.workload].setup_repeats):
            if w is not None:
                w.close()
            rep_dir = work / f"setup{r}"
            rep_dir.mkdir(parents=True)
            w = workloads.WORKLOADS[args.workload](args.seed)
            spent, first = probe.spent, len(probe.samples)
            t0 = time.perf_counter()
            w.setup(rep_dir)
            setup_times.append((time.perf_counter() - t0 - (probe.spent - spent), probe.scale(first)))
        try:
            records = measure(w, args.seconds, workloads.N_INPUTS, probe, tracer)
        finally:
            w.close()
    finally:
        if not tracer:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for ok, _, _, _ in records if not ok)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": attempted, "failed_frac": failed / attempted,
        "raw_setup_s_each": [t for t, _ in setup_times],
        "import_s": import_s, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "threads": THREADS,
        **w.notes,
    }

    if args.trace:
        summary = tracer.summary()
        problems = tracing.check_layer_predictions(summary, idle)
        if problems:
            fail("; ".join(problems))
        tracer.write(work_root / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics_values = tracing.layer_metrics(summary, tracer.ops)
        for traced, key in ((True, "trace.cycle_ms_p50"), (False, "trace.untraced_cycle_ms_p50")):
            ms = [1000 * t for ok, t, tr, _ in records if ok and tr == traced]
            metrics_values[key] = statistics.median(ms) if ms else 0.0
        wanted = spec["per_layer"]
    else:
        ok_ms = [1000 * scale * t for ok, t, _, scale in records if ok]
        total_s = sum(scale * t for _, t, _, scale in records)
        info.update({
            "raw_cycle_ms_p50": percentile([1000 * t for ok, t, _, _ in records if ok], 50),
            "reference_ms": 1000 * statistics.mean(probe.samples), "probe_samples": len(probe.samples),
        })
        metrics_values = {
            "setup_s": statistics.median(scale * t for t, scale in setup_times),
            "conditions_per_s": w.items * len(ok_ms) / total_s,
            "cycle_ms_p50": percentile(ok_ms, 50),
            "cycle_ms_p90": percentile(ok_ms, 90),
            "ok_frac": len(ok_ms) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if args.workload == "train-models":
            info["models_per_s"] = len(workloads.ALL_LINES) * len(ok_ms) / total_s
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics_values):
        fail(f"metrics {sorted(metrics_values)} do not match BENCHMARK.json {sorted(names)}")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics_values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
