"""The charzero benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare BASE.json [NEW.json]

A run writes the workload's inputs in a fresh child process several times
(`setup_s` is the median), runs one untimed warm-up pass, then runs passes,
one fresh child process at a time, until S seconds have gone.  A verify pass
is `python -m charzero.cli verify CORPUS`; a build-explore pass is `child.py
explore`.  Every pass, the warm-up too, is checked by the workload's gate.
The last stdout line is one JSON object: with `--trace 0` the end-to-end
metrics (medians over the run), with `--trace 1` the per-layer metrics of one
traced set-up and pass, the micro-figures, and the tracing overhead against
the untraced median.

Host speed.  On a shared host a CPU runs 20-40% slower while its neighbours
are busy, in spells of seconds to minutes, so raw wall times of the same code
spread across runs by more than any useful bound.  The run therefore pins
itself and its children to one CPU and times a fixed stdlib-only Fraction
loop (`reference`) on that CPU right before and right after every set-up and
pass.  `setup_s` and `pass_s` are wall seconds scaled to a host that runs
that loop in REF_S seconds: wall * REF_S / reference.  The loop is not code
of charzero, so every change to charzero shows in full; the raw wall times
and reference times are kept in the results file, and the traced run reports
their medians as `pass.wall_s`, `setup.wall_s` and `host.reference_s`.

`--out FILE` appends the run, its per-pass values and the machine to FILE.
`--compare` prints, per workload and end-to-end metric, the median and
quartiles of each file's runs and the ratio NEW/BASE; a metric whose
run-to-run spread is wider than its bound is marked unresolved.  Given one
file, it prints each spread against a third of the metric's bound.

Everything the benchmark writes goes under `.bench_work/` in the checkout
and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads
from workloads import BENCH, ROOT, SRC

CHILD = BENCH / "child.py"
SETUP_REPEATS = 7
# the scale of setup_s and pass_s: near reference() on an idle core of a 2.1 GHz Xeon
REF_S = 0.06
DEADLINE_S = 170.0  # a run must end within 180 s


def spec_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference() -> float:
    """Seconds for a fixed loop of Fraction arithmetic: the host's speed."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 12000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


class Runner:
    """Starts children one at a time and records wall time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        # a fixed hash seed makes set and dict order, and so the work done,
        # the same in every child
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, int, float]:
        """Run argv to completion; returns (wall s, exit code, peak RSS MB)."""
        left = int(self.deadline - time.monotonic())
        if left < 1:
            raise TimeoutError("run deadline reached")
        with stdout.open("wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, env=self.env, cwd=ROOT)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(left)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise TimeoutError(f"{argv[1:3]} killed at the run deadline")
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def timed(self, argv: list[str], stdout: Path) -> tuple[float, int, float, float]:
        """spawn() between two runs of the reference loop; returns (wall s,
        exit code, peak RSS MB, mean reference s)."""
        before = reference()
        wall, code, rss = self.spawn(argv, stdout)
        return wall, code, rss, (before + reference()) / 2

    def child(self, *args: str) -> tuple[float, int, float, str]:
        out = self.work / "child.out"
        wall, code, rss = self.spawn([sys.executable, str(CHILD), *args], out)
        return wall, code, rss, out.read_text()


def run_setup(runner: Runner, workload: str, seed: int, corpus: Path) -> tuple[float, float]:
    """One set-up; returns (wall s, reference s)."""
    shutil.rmtree(corpus, ignore_errors=True)
    argv = [sys.executable, str(CHILD), "setup", workload, str(seed), str(corpus)]
    wall, code, _, ref = runner.timed(argv, runner.work / "child.out")
    if code != 0:
        raise RuntimeError(f"set-up of {workload} exited {code}")
    return wall, ref


def run_pass(runner: Runner, workload: str, seed: int, corpus: Path, expected: list[str]):
    """One untraced pass; returns (wall s, peak RSS MB, failures, reference s)."""
    if workload == "build-explore":
        results = runner.work / "explore.json"
        results.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), "explore", str(seed), str(corpus / "explore"), str(results)]
        wall, _, rss, ref = runner.timed(argv, runner.work / "pass.out")
        got = json.loads(results.read_text()) if results.exists() else {}
        return wall, rss, workloads.explore_gate(expected, got, workloads.load_golden()), ref
    argv = [sys.executable, "-m", "charzero.cli", "verify", str(corpus)]
    out = runner.work / "pass.out"
    wall, code, rss, ref = runner.timed(argv, out)
    return wall, rss, workloads.verify_gate(expected, code, out.read_text()), ref


def traced(runner: Runner, workload: str, seed: int, corpus: Path, expected: list[str]):
    """Traced set-up (verify workloads) and traced pass, then micro-figures.
    Returns (per-layer metrics, traced pass s scaled as pass_s, failures, spans)."""
    dumps = []
    phases = ["setup", "pass"] if workload != "build-explore" else ["pass"]
    for phase in phases:
        out = runner.work / f"trace_{phase}.json"
        target = corpus if phase == "pass" else runner.work / "traced_corpus"
        argv = [sys.executable, str(CHILD), "trace", phase, workload, str(seed), str(target), str(out)]
        wall, code, _, ref = runner.timed(argv, runner.work / "child.out")
        if code != 0:
            raise RuntimeError(f"traced {phase} of {workload} exited {code}")
        dumps.append(json.loads(out.read_text()))
    result = json.loads(Path(str(out) + ".result").read_text())
    if workload == "build-explore":
        failures = workloads.explore_gate(expected, result["results"], workloads.load_golden())
    else:
        failures = workloads.verify_gate(expected, result["exit_code"], result["stdout"])
    layer = tracer.metrics(dumps)
    for n in (12, 13, 14):
        layer[f"partitions.mn_table_s.n{n}"] = float(runner.child("mn-table", str(n))[3])
    for key, us in json.loads(runner.child("mul", str(seed))[3]).items():
        layer[f"cyclotomic.mul_us.{key}"] = us
    return layer, wall * REF_S / ref, failures, [d["spans"] for d in dumps]


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the children inherit it
    runner = Runner(work)
    expected = workloads.ops(workload, seed)
    corpus = work / "corpus"
    reference()
    run_setup(runner, workload, seed, corpus)  # fills the page cache; not timed
    setups = [run_setup(runner, workload, seed, corpus) for _ in range(SETUP_REPEATS)]

    passes, rss, failures = [], [], {}
    _, _, fails, _ = run_pass(runner, workload, seed, corpus, expected)  # warm-up
    for f in fails:
        failures.setdefault(f["op"], f)
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        wall, peak, fails, ref = run_pass(runner, workload, seed, corpus, expected)
        passes.append((wall, ref))
        rss.append(peak)
        for f in fails:
            failures.setdefault(f["op"], f)
        if time.monotonic() + wall > runner.deadline:
            break

    def scaled(samples):
        return [wall * REF_S / ref for wall, ref in samples]

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu": cpu,
        "samples": {
            "pass_s": scaled(passes),
            "setup_s": scaled(setups),
            "peak_rss_mb": rss,
            "pass_wall_s": [wall for wall, _ in passes],
            "setup_wall_s": [wall for wall, _ in setups],
            "reference_s": [ref for _, ref in setups + passes],
        },
    }
    record["metrics"] = {name: statistics.median(record["samples"][name]) for name in ("pass_s", "setup_s", "peak_rss_mb")}
    if trace:
        layer, wall, fails, spans = traced(runner, workload, seed, corpus, expected)
        for f in fails:
            failures.setdefault(f["op"], f)
        layer["trace.pass_s"] = wall
        layer["trace.overhead_s"] = wall - record["metrics"]["pass_s"]
        raw = {"pass.wall_s": "pass_wall_s", "setup.wall_s": "setup_wall_s", "host.reference_s": "reference_s"}
        for name, samples in raw.items():
            layer[name] = statistics.median(record["samples"][samples])
        record["metrics"].update(layer)
        record["spans"] = spans
    record["attempted"] = len(expected)
    record["failures"] = list(failures.values())
    return record


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def report(record: dict, spec: dict) -> dict:
    """Print the run for a reader, then return the JSON result line."""
    group = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    missing = set(units) - set(record["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    n = len(record["samples"]["pass_s"])
    print(f"{record['workload']} seed={record['seed']}: {n} passes, {len(record['samples']['setup_s'])} set-ups")
    for name, unit in units.items():
        print(f"  {name} = {record['metrics'][name]:.6g} {unit}")
    print(f"  ops attempted = {record['attempted']}, failed = {len(record['failures'])}")
    for f in record["failures"]:
        print(f"  failed op {f['op']} ({f['kind']}): {f['detail']}")
    return {
        "correct": all(f["kind"] == "raised" for f in record["failures"]),
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


# ---------------------------------------------------------------------------
# compare


def _stats(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(paths: list[str]) -> int:
    spec = spec_file()
    sides = [json.loads(Path(p).read_text())["runs"] for p in paths]
    names = sorted({r["workload"] for runs in sides for r in runs})
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in names:
            cols, stats = [], []
            for runs in sides:
                values = [r["metrics"][name] for r in runs if r["workload"] == workload and name in r["metrics"]]
                if not values:
                    cols.append("no runs")
                    stats.append(None)
                    continue
                med, q1, q3 = _stats(values)
                spread = (q3 - q1) / med if med else float("inf")
                stats.append((values, med, spread))
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)} spread={spread:.3f}")
            line = f"{workload:18s} {name:12s} " + " | ".join(cols)
            if len(stats) == 2 and None not in stats:
                (va, ma, sa), (vb, mb, sb) = stats
                ratio = mb / ma
                worse = ratio - 1 if lower else 1 - ratio
                if max(sa, sb) > bound:
                    better_all = max(vb) < min(va) if lower else min(vb) > max(va)
                    verdict = "better on every run" if better_all else "unresolved"
                elif worse > bound:
                    verdict = f"worse than the bound {bound}"
                else:
                    verdict = f"within the bound {bound}"
                line += f" | ratio {ratio:.4f} (new/base, base {ma:.6g} {metric['unit']}) {verdict}"
            elif len(stats) == 1 and stats[0] is not None:
                ok = "below" if stats[0][2] < bound / 3 else "NOT below"
                line += f" | spread {ok} bound/3 = {bound / 3:.3f}"
            print(line)
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this results file")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS", help="BASE.json [NEW.json]")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two results files")
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    workloads.use_source()
    spec = spec_file()
    seconds = args.seconds or spec["run_seconds"]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    line = report(record, spec)
    if args.out:
        record["provenance"] = provenance(args.seed)
        record["correct"] = line["correct"]
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
        doc["runs"].append(record)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
