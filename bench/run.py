"""peskin-lab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload relax-n128 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  `--trace 0` repeats the workload body
for `--seconds` and reports the end-to-end metrics; `--trace 1` alternates
untraced bodies with a traced replay, then probes each module, and reports
the per-layer metrics.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
when any output check failed, 2 when the benchmark could not run at all.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import os

# One process, one thread: pin the library's pool and every BLAS before
# numpy is imported here or in a set-up child.
THREAD_PINS = {"PESKIN_LAB_THREADS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 7
SETUP_TIMEOUT_S = 120
PROBE_REPS = 3
# Median HostClock sample on the reference host (2-vCPU Xeon, 107520 KB LLC)
# when it is not slowed by its neighbours; see HostClock.
CALIB_REF_S = 0.035
CALIB_SAMPLES = 3
# Median loader-clock sample on the same host, quiet; see _setup_times.
CALIB_LOADER_REF_S = 0.025


def _metric_units() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = _metric_units()

# Per-layer metric -> (span name, statistic); "ms" is the median duration.
SPAN_METRICS = {name: (name.rsplit(".", 1)[0], "ms")
                for name in PER_LAYER if name.endswith(".ms")}
SPAN_METRICS.update({
    "evolution.step.ms_p50": ("evolution.step", "ms"),
    "evolution.step.ms_p90": ("evolution.step", "p90"),
    "operators.symbol.cold_ms": ("operators.symbol.cold", "ms"),
    "besov.besov_diff.inf_ms": ("besov.besov_diff.inf", "ms"),
    "kernels.kernel_K.split_ms": ("kernels.kernel_K.split", "ms"),
    "evolution.step.calls": ("evolution.step", "calls"),
    "curve.arc_chord.calls": ("curve.arc_chord", "calls"),
    "besov.besov_diff.calls": ("besov.besov_diff", "calls"),
})


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


def _import_library():
    src = ROOT / "src"
    if not (src / "peskin_lab" / "__init__.py").is_file():
        raise BenchError(f"no peskin_lab sources under {src}")
    sys.path.insert(0, str(src))
    import peskin_lab

    if Path(peskin_lab.__file__).resolve().parent != (src / "peskin_lab").resolve():
        raise BenchError(f"imported peskin_lab from {peskin_lab.__file__}, not {src}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mini", action="store_true",
                   help="n=32 miniature of the workload (self-tests)")
    p.add_argument("--reference", type=Path,
                   help="reference outputs to compare against (default: the "
                        "stored one for seed 0 at full size)")
    p.add_argument("--write-reference", type=Path,
                   help="write the first body's outputs as a reference")
    p.add_argument("--inject-abort", action="store_true",
                   help="set rho.floor above the initial arc-chord (self-tests)")
    p.add_argument("--setup-child", type=float, metavar="T0",
                   help=argparse.SUPPRESS)
    p.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Ledger:
    """Operations attempted and failed; a failure is an abort, an exception,
    a non-finite value or a missed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def record(self, label: str, checks: dict):
        self.attempted += 1
        missed = [k for k, ok in checks.items() if not ok]
        if missed:
            self.failed += 1
            self.misses.append(f"{label}: {', '.join(missed)}")

    def crash(self, label: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        self.misses.append(f"{label}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


class HostClock:
    """Fixed numpy work, timed before and after each timed interval of a run.

    The shared host runs the same code up to 1.5x slower for seconds to
    minutes at a time, and CPU time stretches with wall time.  Each interval
    is therefore reported at the host's reference speed: multiplied by
    CALIB_REF_S over the median of the samples taken just before and just
    after it.  The work is the kind the alpha frame needs, an FFT along
    theta of an (m, n, 2) = (1024, 512, 2) frame, which tracked the bodies
    of both simulate workloads more closely than interpreter loops or
    streaming passes did.  It is the benchmark's own; no change to the
    library can alter it.  Its frames take about 40 MB, which is why
    `peak_rss_mb` comes from a process without it (`_peak_rss_mb`).
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._frame = np.random.default_rng(0).standard_normal((1024, 512, 2))
        self.gaps: list[tuple[list[float], list[float]]] = []

    def _work(self):
        np = self._np
        c = np.fft.fft(self._frame, axis=1)
        float(np.hypot(c.real, c.imag).sum())

    def between(self) -> int:
        """Sample the host between two intervals; returns the gap's index."""
        self._work()  # refill the caches the interval evicted; not recorded
        walls, cpus = [], []
        for _ in range(CALIB_SAMPLES):
            w0, c0 = time.perf_counter(), time.process_time()
            self._work()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        self.gaps.append((walls, cpus))
        return len(self.gaps) - 1

    def rescale(self, seconds: float, before: int, cpu: bool = False) -> float:
        """An interval that ran between gaps `before` and `before + 1`."""
        k = 1 if cpu else 0
        samples = self.gaps[before][k] + self.gaps[before + 1][k]
        return seconds * CALIB_REF_S / statistics.median(samples)


LOADER_FUNCS = 300
LOADER_SOURCE = "\n".join(
    f"def f{i}(x):\n    return [x * {i} + j for j in range(400) if j % 3]"
    for i in range(LOADER_FUNCS))


def _loader_work():
    """Fixed interpreter work of the kind set-up does: compile a module's
    worth of source and run its bytecode.  The loading phase of set-up
    follows this clock, not HostClock's FFT."""
    namespace = {}
    exec(compile(LOADER_SOURCE, "<loader-clock>", "exec"), namespace)
    sum(namespace[f"f{i}"](i)[-1] for i in range(LOADER_FUNCS))


def _loader_clock() -> list[float]:
    _loader_work()  # warm-up; not recorded
    samples = []
    for _ in range(CALIB_SAMPLES):
        t0 = time.perf_counter()
        _loader_work()
        samples.append(time.perf_counter() - t0)
    return samples


def _child(args, work: Path, *extra) -> dict | None:
    """This script again, in a fresh process, on the same workload and seed;
    returns the JSON object it printed last, or None when it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), *extra]
    if args.mini:
        cmd.append("--mini")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        out = None
    if proc.returncode != 0 or out is None:
        sys.stderr.write(proc.stderr)
        return None
    return out


def _setup_times(args, work: Path, ledger: Ledger,
                 clock: HostClock) -> tuple[float, dict] | None:
    """Set-up in fresh processes: interpreter start to the first step.

    A set-up process spends its time in two phases that slow down with
    different parts of the host.  Loading code (interpreter start and
    imports) follows the loader clock, which each process samples just
    before it imports the library and just after its set-up.  Building the
    workload (initial curve, `SimState.make`, the first record, the symbol)
    is array work and follows HostClock, sampled here before and after each
    process.  Each phase of each process is reported at reference speed
    against the samples of its own clock around it, and `setup_s` is the
    median of the processes' sums.  Returns that median and the raw
    figures; None when no process succeeded."""
    gap = clock.between()
    runs, times = [], []
    for i in range(SETUP_REPS):
        out = _child(args, work, "--setup-child", repr(time.monotonic()))
        after = clock.between()
        ledger.record(f"setup[{i}]", {"child_ok": out is not None})
        if out is not None:
            runs.append(out)
            times.append(out["load_s"] * CALIB_LOADER_REF_S
                         / statistics.median(out["loader_clock_s"])
                         + clock.rescale(out["build_s"], gap))
        gap = after
    if not runs:
        return None
    return statistics.median(times), {
        "setup_s": [r["load_s"] + r["build_s"] for r in runs],
        "load_s": [r["load_s"] for r in runs],
        "build_s": [r["build_s"] for r in runs],
        "loader_clock_s": [statistics.median(r["loader_clock_s"]) for r in runs]}


def _setup_child(args, loader_before: list[float], clock_s: float) -> int:
    """Set-up, timed from the parent's launch: loading up to the library's
    import (less the `clock_s` seconds spent on the loader clock before
    it), then building the workload."""
    import workloads
    from spans import Tracer

    loaded = time.monotonic()
    wl = workloads.make(ROOT, args.workload, args.seed, args.work, args.mini)
    wl.setup(Tracer(enabled=False))
    built = time.monotonic()
    print(json.dumps({"load_s": loaded - args.setup_child - clock_s,
                      "build_s": built - loaded,
                      "loader_clock_s": loader_before + _loader_clock()}))
    return 0


def _peak_rss_mb(args, work: Path, reference: Path | None,
                 ledger: Ledger) -> float | None:
    """Peak resident memory of one body in a process that runs nothing
    else: neither HostClock's frames nor the harness's bookkeeping of
    earlier bodies can set it."""
    extra = ["--rss-child"]
    if reference is not None:
        extra += ["--reference", str(reference)]
    if args.inject_abort:
        extra.append("--inject-abort")
    out = _child(args, work, *extra)
    if out is None:
        ledger.record("rss", {"child_ok": False})
        return None
    ledger.attempted += out["attempted"]
    ledger.failed += out["failed"]
    ledger.misses += out["misses"]
    return out["peak_rss_mb"]


def _rss_child(args) -> int:
    import workloads
    from spans import Tracer

    reference = json.loads(args.reference.read_text()) if args.reference else None
    wl = workloads.make(ROOT, args.workload, args.seed, args.work, args.mini,
                        args.inject_abort)
    ledger = Ledger()
    _run_body(wl, "rss", Tracer(enabled=False), reference, ledger)
    # VmHWM, not ru_maxrss: the kernel carries the parent's resident size
    # into ru_maxrss across the exec that started this process.
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:")) / 1024.0
    print(json.dumps({"peak_rss_mb": peak, "attempted": ledger.attempted,
                      "failed": ledger.failed, "misses": ledger.misses}))
    return 0


def _run_body(wl, tag, tr, reference, ledger, replay=False):
    """One body, timed; returns (wall_s, cpu_s, checks, payload, info) or None."""
    fn = wl.replay if replay else wl.body
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn(tag, tr)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        checks, payload, info = wl.check(result, reference)
    except Exception as exc:  # a crashing body is a failed operation, not a crash
        ledger.crash(tag, exc)
        return None
    finally:
        for path in wl.work.glob(f"*-{tag}"):
            shutil.rmtree(path)
    if wl.name == "lab-audit-n128":
        for name, ok in checks.items():
            ledger.record(f"{tag}:{name}", {name: ok})
    else:
        ledger.record(tag, checks)
    return wall, cpu, checks, payload, info


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def _provenance(args, wl) -> dict:
    import numpy
    import scipy

    cpu = _cpuinfo()
    frame_samples = wl.m * wl.n
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mini": args.mini,
        "nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu_model": cpu.get("model name", "unknown"),
        "llc": cpu.get("cache size", "unknown"), "thread_pins": THREAD_PINS,
        "git_commit": _git_commit(), "source_sha256_16": _source_digest(),
        "working_set_computed": {
            "n": wl.n, "m": wl.m, "frame_samples_per_rhs": frame_samples,
            "bytes_per_frame": frame_samples * 2 * 8,
        },
    }


def _untraced(args, wl, reference, ledger):
    clock = HostClock()
    setup = _setup_times(args, wl.work, ledger, clock)
    start = time.perf_counter()
    peak_rss = _peak_rss_mb(args, wl.work, args.reference, ledger)
    from spans import Tracer

    tr = Tracer(enabled=False)
    walls, cpus, raw_walls, raw_cpus, drifts = [], [], [], [], []
    gap = clock.between()
    i = 0
    while True:
        res = _run_body(wl, f"b{i}", tr, reference, ledger)
        after = clock.between()
        if res is not None:
            raw_walls.append(res[0])
            raw_cpus.append(res[1])
            walls.append(clock.rescale(res[0], gap))
            cpus.append(clock.rescale(res[1], gap, cpu=True))
            if "area_drift_rel" in res[4]:
                drifts.append(res[4]["area_drift_rel"])
            if i == 0 and args.write_reference and res[3] is not None:
                args.write_reference.write_text(json.dumps(res[3]))
        gap = after
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    if not walls or setup is None or peak_rss is None:
        return {}, {}
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup[0],
        "peak_rss_mb": peak_rss,
    }
    extra = {"bodies": len(walls),
             "raw_medians": {"wall_s": statistics.median(raw_walls),
                             "cpu_s": statistics.median(raw_cpus),
                             "setup_s": statistics.median(setup[1]["setup_s"])},
             "wall_s_raw": raw_walls, "setup_raw": setup[1],
             "clock_gaps_s": [g[0] for g in clock.gaps]}
    if drifts:
        extra["area_drift_rel"] = statistics.median(drifts)
    return metrics, extra


def _traced(args, wl, reference, ledger):
    import workloads
    from spans import Tracer

    tr = Tracer()
    off = Tracer(enabled=False)
    ratios, drifts, written = [], [], []
    # warm-up so neither side of the overhead ratio pays first-call costs
    _run_body(wl, "warm", off, reference, ledger)
    start = time.perf_counter()
    i = 0
    while True:
        plain = _run_body(wl, f"u{i}", off, reference, ledger)
        with tr.span("body"):
            res = _run_body(wl, f"r{i}", tr, reference, ledger, replay=True)
        if res is not None:
            drifts.append(res[4].get("area_drift_rel"))
            written.append(res[4].get("snapshot_bytes"))
            if plain is not None:
                # adjacent pairs share the host's state better than two medians
                ratios.append(res[0] / plain[0])
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    bodies = tr.roots("body")
    with tr.span("probes"):
        try:
            info = workloads.probes(wl, tr, PROBE_REPS)
        except Exception as exc:
            ledger.crash("probes", exc)
            info = {}
    errors = tr.nesting_errors()
    ledger.record("trace.nesting", {"spans_nest": not errors})
    for err in errors[:10]:
        print("trace:", err, file=sys.stderr)
    if not ratios:
        return {}, {}

    body_spans = [s for r in bodies for s in tr.under(r)]
    probe_spans = [s for r in tr.roots("probes") for s in tr.under(r)]
    metrics = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        if stat == "calls":
            metrics[metric] = sum(s.name == span for s in body_spans) / len(bodies)
            continue
        values = [s.ns / 1e6 for s in body_spans if s.name == span] \
            or [s.ns / 1e6 for s in probe_spans if s.name == span]
        if not values:
            raise BenchError(f"no spans named {span!r}")
        metrics[metric] = _p90(values) if stat == "p90" \
            else statistics.median(values)
    roots_ms = [tr.spans[r].ns / 1e6 for r in bodies]
    diag_ms = [sum(s.ns for s in tr.under(r)
                   if s.name in wl.diag_spans and tr.spans[s.parent].name == "body")
               / 1e6 for r in bodies]
    metrics["evolution.diag_share"] = statistics.median(
        d / t for d, t in zip(diag_ms, roots_ms))
    metrics["evolution.frame_samples"] = float(wl.m * wl.n)
    if any(w is not None for w in written):
        metrics["curve.write_curve.bytes"] = float(statistics.median(
            w for w in written if w is not None))
    else:
        metrics["curve.write_curve.bytes"] = float(
            (wl.work / "probe.curve").stat().st_size)
    metrics["bench.trace_overhead_frac"] = statistics.median(ratios) - 1.0
    metrics["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    drifts = [d for d in drifts if d is not None]
    metrics["area_drift_rel"] = statistics.median(drifts) if drifts \
        else info.get("area_drift_rel", 0.0)  # 0 only when the probes failed
    extra = {"pairs": len(ratios), "replays": len(bodies),
             "self_time_ms": {k: [c, round(ms, 3)]
                              for k, (c, ms) in tr.self_time_table().items()}}
    return metrics, extra


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_child is not None:
            c0 = time.monotonic()
            clock = _loader_clock()
            clock_s = time.monotonic() - c0
            _import_library()
            return _setup_child(args, clock, clock_s)
        _import_library()
        if args.rss_child:
            return _rss_child(args)
        return _main(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _main(args) -> int:
    import workloads

    if args.workload not in workloads.NAMES:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    if args.reference is None and args.seed == 0 and not args.mini \
            and not args.write_reference:
        args.reference = BENCH / "reference" / f"{args.workload}.json"
        if not args.reference.is_file():
            raise BenchError(f"missing stored reference {args.reference}")
    reference = json.loads(args.reference.read_text()) if args.reference else None

    # One CPU for the whole run, set-up processes included: the host's
    # slowdowns differ between its CPUs, and HostClock must sample the CPU
    # the bodies run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        wl = workloads.make(ROOT, args.workload, args.seed, work, args.mini,
                            args.inject_abort)
        runner = _traced if args.trace else _untraced
        metrics, extra = runner(args, wl, reference, ledger)
        provenance = _provenance(args, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    units = PER_LAYER if args.trace else END_TO_END
    measured = bool(metrics)
    if not measured:
        metrics = {name: 0.0 for name in units}
    for miss in ledger.misses:
        print("miss:", miss, file=sys.stderr)
    print(json.dumps({"provenance": provenance, "detail": extra}))
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    summary = dict(metrics)
    summary.setdefault("failed_frac", failed_frac)
    if "area_drift_rel" in extra:
        summary.setdefault("area_drift_rel", extra["area_drift_rel"])
    all_units = {**END_TO_END, **PER_LAYER}
    for name, value in summary.items():
        print(f"{name} = {value!r} {all_units[name]}")
    ok = measured and ledger.failed == 0 and all(v == v for v in metrics.values())
    print(json.dumps({
        "correct": ok, "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
