"""Command-line front end.

Exit codes: 0 = clean, 1 = flags/counterexamples found, 2 = input/usage
errors.  A failure is one stderr line: `error: <file>: <Type>: <message>`
when a table file fails to load or validate, else `error: <Type>: <message>`.
All data output is exact; reports are deterministic for identical inputs
(fixed orderings, no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .analysis import ALL_CHECKS, TableAnalysis
from .chartable import (
    CharacterTable,
    SchemaError,
    build_abelian,
    build_cyclic,
    build_dihedral,
    build_symmetric,
    direct_product,
    load_table,
    save_table,
    validate,
)
from .vanishing import pattern_to_json
from .zerographs import bipartite_to_dot, to_dot

_BUILDERS = {"sym": build_symmetric, "dihedral": build_dihedral, "cyclic": build_cyclic}


def _cmd_gen(args) -> int:
    params = args.params
    if args.family == "abelian":
        table = build_abelian([int(p) for p in params])
    elif args.family == "product":
        if len(params) != 2:
            raise ValueError("product takes exactly two table files")
        table = direct_product(*(_load(p).table for p in params))
    else:
        if len(params) != 1:
            raise ValueError(f"{args.family} takes exactly one integer")
        table = _BUILDERS[args.family](int(params[0]))
    save_table(table, args.output)
    return 0


class LoadError(Exception):
    """A table file failed to load or validate: `<file>: <Type>: <message>`."""


def _load(path) -> TableAnalysis:
    try:
        table = load_table(path)
        fails = validate(table)
        if fails:
            raise SchemaError(f"validation failed: {'; '.join(fails)}")
    except Exception as exc:
        # an OSError's text repeats the file name; its strerror does not
        text = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise LoadError(f"{path}: {type(exc).__name__}: {text}") from exc
    return TableAnalysis(table)


def _cmd_analyze(args) -> int:
    a = _load(args.file)
    t = a.table
    names = lambda ixs: sorted(t.classes[c].name for c in ixs)
    info = {
        "group": t.group_name,
        "order": t.order,
        "n_classes": len(t.classes),
        "n_characters": len(t.characters),
        "n_nonlinear": a.pattern.n_rows,
        "vanishing_classes": names(a.vanishing_classes),
        "nonvanishing_classes": names(a.nonvanishing_classes),
        "camina_classes": names(a.camina_classes),
        "central_type_characters": sorted(t.characters[r].name for r in a.central_type_characters),
        "k_min": a.cover.k_min,
        "witness": [t.classes[c].name for c in a.cover.witness],
        "gamma_v_components": a.gamma_components,
        "delta_v_components": a.delta_components,
        "gamma_v_independence": a.gamma_alpha,
        "delta_v_independence": a.delta_alpha,
    }
    if args.format == "json":
        print(json.dumps(info, indent=1))
    else:
        print(f"group {info['group']} of order {info['order']}")
        print(f"  classes: {info['n_classes']}, characters: {info['n_characters']}")
        if info["n_nonlinear"] == 0:
            print("  no nonlinear characters; H_0 (vacuous cover)")
        else:
            print(f"  nonlinear characters: {info['n_nonlinear']}")
        print(f"  vanishing classes: {', '.join(info['vanishing_classes']) or '-'}")
        print(f"  non-vanishing classes: {', '.join(info['nonvanishing_classes']) or '-'}")
        print(f"  Camina classes: {', '.join(info['camina_classes']) or '-'}")
        print(f"  central-type characters: {', '.join(info['central_type_characters']) or '-'}")
        print(f"  k_min = {info['k_min']}, witness: {', '.join(info['witness']) or '-'}")
        for g in ("gamma_v", "delta_v"):
            ncomp, alpha = info[f"{g}_components"], info[f"{g}_independence"]
            print(f"  {g.capitalize()}: {ncomp} component(s), independence number {alpha}")
    return 0


def _cmd_cover(args) -> int:
    a = _load(args.file)
    result = a.cover
    print(
        json.dumps(
            {
                "group": a.table.group_name,
                "k_min": result.k_min,
                "witness": [a.table.classes[c].name for c in result.witness],
                "explored_nodes": result.explored_nodes,
                "proof_lb": result.proof_lb,
            },
            indent=1,
        )
    )
    return int(args.max_k is not None and result.k_min > args.max_k)


def _cmd_graphs(args) -> int:
    a = _load(args.file)
    t = a.table
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "pattern.json").write_text(
        json.dumps(pattern_to_json(a.pattern), indent=1) + "\n", encoding="utf-8"
    )
    if args.dot:
        degrees = {ch.name: f"deg={ch.degree}" for ch in t.characters}
        orders = {c.name: f"ord={c.element_order}" for c in t.classes}
        (outdir / "gamma_v.dot").write_text(to_dot(a.gamma, "gamma_v", degrees), encoding="utf-8")
        (outdir / "delta_v.dot").write_text(to_dot(a.delta, "delta_v", orders), encoding="utf-8")
        (outdir / "theta.dot").write_text(
            bipartite_to_dot(a.theta, "theta", {**degrees, **orders}), encoding="utf-8"
        )
    return 0


def _collect_paths(paths) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(f for f in p.glob("*.json") if f.is_file())
        else:
            files.append(p)
    return sorted(set(files))


def _table_rows(files, row, error_row) -> tuple[list[dict], int]:
    """row(file, analysis) per file, or error_row(file, table or None, flag)
    with one `error: <file>: <Type>: <message>` line when the table fails to
    load or validate ("load-error", the LoadError's text) or its row raises
    ("analysis-error").  Returns the rows and the exit code: 2 if any table
    failed, else 1 if any row has flags, else 0."""
    rows, failed = [], False
    for f in files:
        table = None
        try:
            a = _load(f)
            table = a.table
            rows.append(row(f, a))
        except Exception as exc:  # one table's failure must not hide the other rows
            text = exc if table is None else f"{f}: {type(exc).__name__}: {exc}"
            print(f"error: {text}", file=sys.stderr)
            rows.append(error_row(f, table, "load-error" if table is None else "analysis-error"))
            failed = True
    return rows, 2 if failed else int(any(r["flags"] for r in rows))


def _report_row(f, a: TableAnalysis) -> dict:
    t = a.table
    return {
        "group": t.group_name,
        "order": t.order,
        "n_classes": len(t.classes),
        "n_nonlinear": a.pattern.n_rows,
        "k_min": a.cover.k_min,
        "witness_names": ";".join(t.classes[c].name for c in a.cover.witness),
        "flags": ";".join(a.flags(ALL_CHECKS)),
    }


def _report_error_row(f, t: CharacterTable | None, flag: str) -> dict:
    row = dict.fromkeys(("group", "order", "n_classes", "n_nonlinear", "k_min", "witness_names"))
    return {**row, "group": t.group_name if t else "", "flags": flag}


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _cmd_verify(args) -> int:
    checks = ALL_CHECKS if args.checks == "all" else tuple(dict.fromkeys(args.checks.split(",")))
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown or not checks:
        raise ValueError(f"unknown or empty check selection: {sorted(unknown)}")
    files = _collect_paths(args.paths)
    if not files:
        raise ValueError("no input files")
    rows, code = _table_rows(
        files,
        lambda f, a: {"file": str(f), "group": a.table.group_name, "flags": a.flags(checks)},
        lambda f, t, flag: {"file": str(f), "group": t.group_name if t else "", "flags": [flag]},
    )

    if args.format == "json":
        print(json.dumps({"checks": list(checks), "tables": rows}, indent=1))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["file", "group", "flags"])
        for r in rows:
            writer.writerow([r["file"], r["group"], ";".join(r["flags"])])
        sys.stdout.write(buf.getvalue())
    return code


def _cmd_report(args) -> int:
    files = _collect_paths([args.dir])
    if not files:
        raise ValueError(f"no tables found in {args.dir}")
    rows, code = _table_rows(files, _report_row, _report_error_row)
    out = Path(args.output)
    if out.suffix == ".json":
        text = json.dumps(rows, indent=1) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    out.write_text(text, encoding="utf-8")
    return code


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for main to print, instead of printing usage."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: a parser graph is a reference cycle, so one
    per main call would leave garbage for the cyclic collector."""
    parser = _Parser(prog="charzero")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a character table")
    gen.add_argument("family", choices=[*_BUILDERS, "abelian", "product"])
    gen.add_argument("params", nargs="+")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    analyze = sub.add_parser("analyze", help="summarize one table")
    analyze.add_argument("file")
    analyze.add_argument("--format", choices=["json", "text"], default="text")
    analyze.set_defaults(func=_cmd_analyze)

    cover = sub.add_parser("cover", help="exact minimum class cover")
    cover.add_argument("file")
    cover.add_argument("--max-k", type=nonnegative_int, default=None)
    cover.set_defaults(func=_cmd_cover)

    graphs = sub.add_parser("graphs", help="emit zero pattern and graphs")
    graphs.add_argument("file")
    graphs.add_argument("--out", required=True)
    graphs.add_argument("--dot", action="store_true")
    graphs.set_defaults(func=_cmd_graphs)

    verify = sub.add_parser("verify", help="run the verification harness")
    verify.add_argument("paths", nargs="+")
    verify.add_argument("--checks", default="all")
    verify.add_argument("--format", choices=["csv", "json"], default="csv")
    verify.set_defaults(func=_cmd_verify)

    report = sub.add_parser("report", help="corpus summary report")
    report.add_argument("dir")
    report.add_argument("-o", "--output", required=True)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    # a name that stdout's encoding cannot write is escaped, as stderr does,
    # rather than raised past the rows of every other table; the caller's
    # stdout gets its own setting back on return
    out = sys.stdout
    strict = isinstance(out, io.TextIOWrapper) and out.errors == "strict"
    if strict:
        out.reconfigure(errors="backslashreplace")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except LoadError as exc:
        text = exc
    except Exception as exc:  # never a traceback
        text = f"{type(exc).__name__}: {exc}"
    finally:
        if strict:
            out.reconfigure(errors="strict")
    print(f"error: {text}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
