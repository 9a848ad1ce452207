"""Child processes of the benchmark; `run.py` starts one per measurement.

    child.py setup WORKLOAD SEED DIR          write the workload's inputs
    child.py explore SEED WORKDIR OUT         one build-explore pass
    child.py trace PHASE WORKLOAD SEED DIR OUT   one traced set-up or pass
    child.py mn-table N                       print seconds for all MN values of S_N
    child.py mul SEED                         print microseconds per Cyclotomic mul

Each imports charzero from the checkout's `src/` only.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

import workloads


def setup(workload: str, seed: str, corpus: str) -> None:
    import charzero  # noqa: F401  (build-explore's set-up is the import)

    if workload != "build-explore":
        workloads.write_corpus(workloads.specs(workload, int(seed)), Path(corpus))


def explore(seed: str, workdir: str, out: str) -> None:
    table_specs = workloads.specs("build-explore", int(seed))
    results = workloads.explore(table_specs, Path(workdir))
    Path(out).write_text(json.dumps(results))


def trace(phase: str, workload: str, seed: str, corpus: str, out: str) -> None:
    """Run one set-up or pass with the tracer installed; dump the spans and,
    for a pass, its output for the gate."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    corpus_dir = Path(corpus)
    result = {}
    if phase == "setup":
        tracer.run("setup", setup, workload, seed, corpus)
    elif workload == "build-explore":
        table_specs = workloads.specs(workload, int(seed))
        result["results"] = tracer.run("pass", workloads.explore, table_specs, corpus_dir / "explore")
    else:
        import charzero.cli

        buf = corpus_dir.parent / "traced_verify.csv"
        with buf.open("w") as fh, contextlib.redirect_stdout(fh):
            result["exit_code"] = tracer.run("pass", charzero.cli.main, ["verify", corpus])
        result["stdout"] = buf.read_text()
    tracer.dump(Path(out))
    Path(out + ".result").write_text(json.dumps(result))


def mn_table(n: str) -> None:
    from charzero.partitions import mn_value, partitions_of

    parts = partitions_of(int(n))
    t0 = time.perf_counter()
    for lam in parts:
        for mu in parts:
            mn_value(lam, mu)
    print(time.perf_counter() - t0)


def mul(seed: str) -> None:
    """Microseconds per multiply of two dense operands (every power-basis
    coefficient nonzero) at conductors 1, 8, 60 and 64; median of 5 repeats."""
    from charzero.cyclotomic import Cyclotomic, euler_phi

    rng = random.Random(int(seed))

    def dense(n: int) -> Cyclotomic:
        return Cyclotomic(n, [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(euler_phi(n))])

    out = {}
    for n in (1, 8, 60, 64):
        a, b = dense(n), dense(n)
        repeats = []
        for _ in range(5):
            done = 0
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.05:
                for _ in range(50):
                    a * b
                done += 50
            repeats.append((time.perf_counter() - t0) / done * 1e6)
        out[f"c{n}"] = statistics.median(repeats)
    print(json.dumps(out))


if __name__ == "__main__":
    workloads.use_source()
    commands = {"setup": setup, "explore": explore, "trace": trace, "mn-table": mn_table, "mul": mul}
    commands[sys.argv[1]](*sys.argv[2:])
