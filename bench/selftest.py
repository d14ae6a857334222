"""Self-tests of the benchmark harness.

    python3 bench/selftest.py            # or: python3 -m pytest -q bench/selftest.py

They run bench/run.py on n=32 miniatures of the workloads, so they take
about two minutes and stay out of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")

sys.path.insert(0, str(BENCH))
from spans import Span, Tracer  # noqa: E402


def _scratch() -> Path:
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _drop(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    printed = {m.group(1): (float(m.group(2)), m.group(3))
               for m in map(METRIC_LINE.match, lines) if m}
    return proc, result, printed


def _mini(workload, *extra, trace=0, seed=1):
    return _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--mini", *extra)


def test_miniatures_print_every_metric_with_its_unit():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result, printed = _mini(workload, trace=trace)
            assert proc.returncode == 0, proc.stderr
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            for name, unit in want.items():
                assert printed[name][1] == unit, (workload, name)
            assert printed["failed_frac"] == (0.0, "frac")
            if trace == 0 and workload != "lab-audit-n128":
                assert printed["area_drift_rel"][1] == "rel"


def test_peak_rss_excludes_the_harness_clock():
    # a process that only imports the library and samples HostClock once
    probe = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads, run; "
             "run.HostClock().between(); "
             "print([l.split()[1] for l in open('/proc/self/status') "
             "if l.startswith('VmHWM:')][0])").format(src=str(ROOT / "src"),
                                                      bench=str(BENCH))
    clock_only = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=60, check=True)
    clock_only_mb = int(clock_only.stdout) / 1024.0
    proc, result, _ = _mini("relax-n128")
    assert proc.returncode == 0, proc.stderr
    assert result["metrics"]["peak_rss_mb"]["value"] < clock_only_mb


def test_forced_abort_counts_as_failure():
    proc, result, printed = _mini("relax-n128", "--inject-abort", seed=0)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert printed["failed_frac"][0] > 0


def test_tampered_reference_counts_as_failure():
    work = _scratch()
    try:
        for workload, path in (("relax-n128", ("records", -1, "l2")),
                               ("lab-audit-n128", ("cl_norm.B",))):
            ref = work / f"{workload}.json"
            proc, result, _ = _mini(workload, "--write-reference", str(ref), seed=0)
            assert proc.returncode == 0, proc.stderr
            proc, result, _ = _mini(workload, "--reference", str(ref), seed=0)
            assert proc.returncode == 0 and result["correct"], proc.stderr

            data = json.loads(ref.read_text())
            holder = data
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] *= 1.0 + 1e-6  # a truncation-sized change
            ref.write_text(json.dumps(data))
            proc, result, printed = _mini(workload, "--reference", str(ref), seed=0)
            assert proc.returncode == 1
            assert not result["correct"] and result["failed"] > 0
            assert printed["failed_frac"][0] > 0
    finally:
        _drop(work)


def test_spans_nest_and_self_time_is_non_negative():
    tr = Tracer()
    with tr.span("body"):
        with tr.span("evolution.step"):
            sum(range(1000))
        with tr.span("diag.record"):
            with tr.span("curve.arc_chord"):
                sum(range(1000))
    assert tr.nesting_errors() == []
    own = tr.self_ns()
    assert all(v >= 0 for v in own)
    assert own[0] == tr.spans[0].ns - tr.spans[1].ns - tr.spans[2].ns
    assert [s.name for s in tr.under(0)] == ["evolution.step", "diag.record",
                                             "curve.arc_chord"]

    outside = Tracer()  # child starts before its parent; self time stays >= 0
    outside.spans = [Span("body", -1, 10, 30), Span("child", 0, 5, 15)]
    assert any("outside parent" in e for e in outside.nesting_errors())
    overlap = Tracer()  # children inside the parent but overlapping each other
    overlap.spans = [Span("body", -1, 0, 10), Span("a", 0, 0, 6), Span("b", 0, 4, 10)]
    assert any("self time" in e for e in overlap.nesting_errors())

    # the traced miniature checks its own spans and reports self times
    proc, result, _ = _mini("relax-n128", trace=1)
    assert proc.returncode == 0 and result["correct"], proc.stderr
    detail = json.loads(proc.stdout.splitlines()[0])["detail"]
    assert all(ms >= 0 for _, ms in detail["self_time_ms"].values())


def test_fails_without_the_library():
    work = _scratch()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", work)
        shutil.copytree(BENCH, work / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result, _ = _run("--workload", WORKLOADS[0], "--seed", "0",
                               "--seconds", "1", "--trace", "0",
                               cwd=work, script=work / "bench" / "run.py")
        assert proc.returncode != 0 and result is None
    finally:
        _drop(work)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
