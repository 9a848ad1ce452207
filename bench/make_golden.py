"""Regenerate bench/golden.json, the expected build-explore results.

    python3 bench/make_golden.py

Covers both orientations of every product, so any seed finds its tables.
The exact-solver vertex cap is lifted here (and only here), so the tables
the program refuses today still get their true values; those of S_13 and
S_14 are checked against independently known independence numbers.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import workloads

# alpha(Gamma_v), alpha(Delta_v) of the tables above the vertex cap
KNOWN = {"S13": (2, 3), "S14": (2, 4)}


def main() -> None:
    workloads.use_source()
    from charzero import zerographs

    zerographs.independence_number = functools.partial(zerographs.independence_number, limit=10**6)
    table_specs = [s for s in workloads.specs("build-explore", 0) if s[0] != "product"]
    for a, b in workloads.EXPLORE_PAIRS:
        table_specs += [("product", a, b), ("product", b, a)]
    with tempfile.TemporaryDirectory() as tmp:
        results = workloads.explore(table_specs, Path(tmp))
    errors = {k: v for k, v in results.items() if "error" in v}
    if errors:
        raise SystemExit(f"golden tables raised: {errors}")
    for name, alphas in KNOWN.items():
        got = (results[name]["gamma_v_independence"], results[name]["delta_v_independence"])
        if got != alphas:
            raise SystemExit(f"{name}: independence numbers {got}, expected {alphas}")
    workloads.GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} tables to {workloads.GOLDEN}")


if __name__ == "__main__":
    main()
