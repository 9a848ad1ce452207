"""Spans and counters around the calls into each charzero layer.

`install()` replaces the public functions of every layer, at every name a
caller uses, with wrappers that record a span: name, start, end, parent and
the time its children covered.  Arithmetic and other leaf calls that run
millions of times (`Cyclotomic` mul/add/embed, `root_of_unity`, `mn_value`)
are counted and timed in aggregate instead, and their time is charged to
the enclosing span as child time.  Everything stays in memory until
`dump()`; `metrics()` turns a dump into the per-layer figures.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter

# Functions that get a span, by module.
SPAN_FUNCTIONS = {
    "chartable": (
        "validate", "build_symmetric", "build_dihedral", "build_cyclic",
        "build_abelian", "direct_product", "save_table", "load_table",
    ),
    "vanishing": (
        "zero_pattern", "burnside_check", "prime_power_check",
        "camina_classes", "central_type_characters",
    ),
    "hcover": ("min_cover", "check_cover"),
    "zerographs": (
        "gamma_v", "delta_v", "theta", "components", "independence_number",
        "bound_checks",
    ),
    "cli": ("main",),
}
LEAF_FUNCTIONS = {"cyclotomic": ("root_of_unity",), "partitions": ("mn_value",)}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, child seconds, error]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def run(self, name: str, fn, *args):
        """Call fn inside a root-level span of its own."""
        return self._span(name, fn)(*args)

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, _perf(), 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = _perf()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn, calls_key=None):
        """Count and time fn in aggregate; calls_key(result) names the
        counter a call goes to (default `<name>.calls`)."""
        spans, stack, counts = self.spans, self.stack, self.counts
        secs = f"{name}.s"
        if calls_key is None:
            calls_key = lambda _result, key=f"{name}.calls": key  # noqa: E731

        def wrapper(*args, **kwargs):
            t0 = _perf()
            result = fn(*args, **kwargs)
            dt = _perf() - t0
            counts[calls_key(result)] += 1
            counts[secs] += dt
            if stack:
                spans[stack[-1]][4] += dt
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every name charzero code calls it by."""
        import charzero
        from charzero import chartable, cli, cyclotomic, hcover, partitions, vanishing, zerographs

        modules = {
            "chartable": chartable, "cli": cli, "cyclotomic": cyclotomic,
            "hcover": hcover, "partitions": partitions, "vanishing": vanishing,
            "zerographs": zerographs,
        }
        counts = self.counts

        def nodes(args, result):
            counts["hcover.min_cover.nodes"] += result.explored_nodes
            counts["hcover.proof_gap"] += result.k_min - result.proof_lb

        def saved(args, result):
            counts["chartable.save_table.bytes"] += Path(args[1]).stat().st_size

        def loaded(args, result):
            counts["chartable.load_table.bytes"] += Path(args[0]).stat().st_size

        after = {"min_cover": nodes, "save_table": saved, "load_table": loaded}
        replaced = {}
        for mod_name, names in SPAN_FUNCTIONS.items():
            for fn_name in names:
                orig = getattr(modules[mod_name], fn_name)
                replaced[orig] = self._span(f"{mod_name}.{fn_name}", orig, after.get(fn_name))
        for mod_name, names in LEAF_FUNCTIONS.items():
            for fn_name in names:
                orig = getattr(modules[mod_name], fn_name)
                replaced[orig] = self._leaf(f"{mod_name}.{fn_name}", orig)
        for mod in (charzero, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

        def by_conductor(result):
            c1 = getattr(result, "conductor", 1) == 1
            return "cyclotomic.mul.calls.c1" if c1 else "cyclotomic.mul.calls.cN"

        cyc = cyclotomic.Cyclotomic
        for attr in ("__mul__", "__rmul__"):
            setattr(cyc, attr, self._leaf("cyclotomic.mul", getattr(cyc, attr), by_conductor))
        for attr in ("__add__", "__radd__"):
            setattr(cyc, attr, self._leaf("cyclotomic.add", getattr(cyc, attr)))
        embed = cyc.embed

        def counted_embed(self_, target):
            if target != self_.conductor:
                counts["cyclotomic.embed.calls"] += 1
            return embed(self_, target)

        cyc.embed = counted_embed

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


# ---------------------------------------------------------------------------
# per-layer figures from one or more dumps

_VANISHING_CHECKS = (
    "vanishing.burnside_check", "vanishing.prime_power_check",
    "vanishing.camina_classes", "vanishing.central_type_characters",
)
_GRAPHS = ("zerographs.gamma_v", "zerographs.delta_v", "zerographs.theta")

# Counters that are zero when their function is never called.
COUNTERS = (
    "cyclotomic.mul.calls.c1", "cyclotomic.mul.calls.cN", "cyclotomic.mul.s",
    "cyclotomic.add.calls", "cyclotomic.add.s", "cyclotomic.embed.calls",
    "cyclotomic.root_of_unity.calls", "cyclotomic.root_of_unity.s",
    "partitions.mn_value.calls", "partitions.mn_value.s",
    "chartable.save_table.bytes", "chartable.load_table.bytes",
    "hcover.min_cover.nodes", "hcover.proof_gap",
)


def metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer figures summed over the dumps.  Times are inclusive wall
    seconds summed over calls; `cli.self.s` is `cli.main` minus the time its
    child spans and leaf calls covered; the validate share is taken of the
    root span named "pass"."""
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    cli_self = 0.0
    pass_s = 0.0
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] += value
        for name, start, end, _parent, child, error in dump["spans"]:
            calls[name] += 1
            secs[name] += end - start
            failed[name] += error is not None
            if name == "cli.main":
                cli_self += end - start - child
            if name == "pass":
                pass_s += end - start
    out = {key: counts[key] for key in COUNTERS}
    for name in ("chartable.build_symmetric", "chartable.build_dihedral",
                 "chartable.direct_product", "chartable.save_table",
                 "chartable.load_table", "vanishing.zero_pattern",
                 "hcover.min_cover", "zerographs.independence_number",
                 "zerographs.bound_checks", "chartable.validate", "cli.main"):
        out[f"{name}.s"] = secs[name]
    out["chartable.validate.calls"] = calls["chartable.validate"]
    out["chartable.validate.share"] = secs["chartable.validate"] / pass_s if pass_s else 0.0
    out["vanishing.checks.s"] = sum(secs[n] for n in _VANISHING_CHECKS)
    out["hcover.min_cover.calls"] = calls["hcover.min_cover"]
    out["zerographs.graphs.s"] = sum(secs[n] for n in _GRAPHS)
    out["zerographs.gamma_v.calls"] = calls["zerographs.gamma_v"]
    out["zerographs.independence_number.calls"] = calls["zerographs.independence_number"]
    out["zerographs.independence_number.failed"] = failed["zerographs.independence_number"]
    out["cli.self.s"] = cli_self
    return out
