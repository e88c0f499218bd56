"""Command-line interface: verification suites, demos, and moment tables.

Exit codes follow the usual convention: 0 when every check passed, 1 when
a numerical check failed, a non-finite residual included (the offending
identities are printed to stderr), 2 for usage errors and malformed input
(schema errors carry the JSON pointer of the bad field).

The seed defaults to 42; the environment variable NCPROB_SEED overrides
the default and an explicit ``--seed`` flag wins over both.  Reports are
byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .algebra_core import StructuralError
from .demos import DEMO_NAMES, run_demo
from .hilbert_module import gns_construct
from .independence import (
    WORD_STACK,
    conditional_monotone_embed,
    conditional_monotone_moment_formulas,
    monotone_moment_formulas,
    monotone_realize,
    tensor_moment_formulas,
    tensor_realize,
)
from .linalg import GUARD_TOL, exceeds, frob
from .serialization import (
    SCHEMA_TAG,
    SchemaError,
    complex_to_json,
    emit_json,
    independence_scenario_from_json,
    load_json_file,
    matrix_to_json,
    words_from_json,
)
from .suites import SUITE_NAMES, RunConfig, run_suite

# ---------------------------------------------------------------------------
# configuration plumbing


def _build_config(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    if seed is None:
        env = os.environ.get("NCPROB_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise StructuralError(
                    f"NCPROB_SEED must be an integer, got {env!r}"
                ) from None
    defaults = RunConfig()
    config = RunConfig(
        tolerance=args.tolerance if args.tolerance is not None else defaults.tolerance,
        seed=seed if seed is not None else defaults.seed,
        max_word_length=(
            args.max_word_length
            if args.max_word_length is not None
            else defaults.max_word_length
        ),
        trials=args.trials if args.trials is not None else defaults.trials,
        horizon=args.horizon if args.horizon is not None else defaults.horizon,
        budget=args.budget if args.budget is not None else defaults.budget,
        output_format=args.format if args.format is not None else defaults.output_format,
    )
    config.validate()
    return config


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# renderers


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _text_table(title: str, columns: list[str], rows: list[list]) -> list[str]:
    cells = [[_cell_text(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _check_lines(checks: list[dict]) -> list[str]:
    lines = []
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        line = f"{status}  {c['name']}: residual {c['residual']:.3e} (tolerance {c['tolerance']:.1e})"
        if c.get("detail"):
            line += f" — {c['detail']}"
        lines.append(line)
    return lines


def _render_text(report: dict) -> str:
    lines: list[str] = []
    if "suite" in report:
        lines.append(f"verification suite: {report['suite']}")
    elif "demo" in report:
        lines.append(f"demo: {report['demo']}")
    elif "construction" in report:
        lines.append(f"moments under the {report['construction']} construction")
    cfg = report.get("config", {})
    if cfg:
        lines.append(
            "seed %s, tolerance %s" % (cfg.get("seed"), _cell_text(cfg.get("tolerance")))
        )
    lines.append("")
    for line in report.get("narrative", []):
        lines.append(line)
    if report.get("narrative"):
        lines.append("")
    for table in report.get("tables", []):
        lines.extend(_text_table(table["title"], table["columns"], table["rows"]))
        lines.append("")
    if "moments" in report:
        rows = [
            [m["word"], m["realization"], m["formula"], m["residual"]]
            for m in report["moments"]
        ]
        lines.extend(_text_table("moments", ["word", "realization", "formula", "residual"], rows))
        lines.append("")
    checks = report.get("checks", [])
    if checks:
        lines.extend(_check_lines(checks))
        failed = sum(1 for c in checks if not c["passed"])
        lines.append("")
        lines.append(
            f"all {len(checks)} checks passed"
            if failed == 0
            else f"{failed} of {len(checks)} checks FAILED"
        )
    elif "moments" in report:
        lines.append("passed" if report.get("passed", True) else "FAILED")
    return "\n".join(lines) + "\n"


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "moments" in report:
        writer.writerow(["word", "realization", "formula", "residual"])
        for m in report["moments"]:
            writer.writerow(
                [m["word"], _cell_text(m["realization"]), _cell_text(m["formula"]), _cell_text(m["residual"])]
            )
    else:
        writer.writerow(["name", "residual", "tolerance", "passed", "detail"])
        for c in report.get("checks", []):
            writer.writerow(
                [c["name"], _cell_text(c["residual"]), _cell_text(c["tolerance"]), _cell_text(c["passed"]), c.get("detail", "")]
            )
    return buf.getvalue()


def _finite_or_null(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json_ready(report: dict) -> dict:
    """The report with each non-finite residual and table cell written as null.

    JSON has no NaN; a NaN residual is a failed check, and its report must
    still be written.
    """
    out = dict(report)
    for key in ("checks", "moments"):
        if key in out:
            out[key] = [{**row, "residual": _finite_or_null(row["residual"])} for row in out[key]]
    if "tables" in out:
        out["tables"] = [
            {**table, "rows": [[_finite_or_null(v) for v in row] for row in table["rows"]]}
            for table in out["tables"]
        ]
    return out


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return emit_json(_json_ready(report)) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _report_failures(report: dict) -> None:
    for c in report.get("checks", []):
        if not c["passed"]:
            line = f"FAIL {c['name']}: residual {c['residual']:.6g} > tolerance {c['tolerance']:.6g}"
            if c.get("detail"):
                line += f" ({c['detail']})"
            print(line, file=sys.stderr)
    for m in report.get("moments", []):
        if not m["passed"]:
            print(
                f"FAIL word {m['word']}: residual {m['residual']:.6g}",
                file=sys.stderr,
            )


def _finish(report: dict, config: RunConfig, out: str | None) -> int:
    """Write the report, list its failures on stderr, and return the exit code."""
    _write_output(_render(report, config.output_format), out)
    if report["passed"]:
        return 0
    _report_failures(report)
    return 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args: argparse.Namespace) -> int:
    config = _build_config(args)
    return _finish(run_suite(args.suite, config), config, args.out)


def cmd_demo(args: argparse.Namespace) -> int:
    config = _build_config(args)
    kwargs = {}
    if args.name == "coins":
        kwargs = {"bias1": args.bias1, "bias2": args.bias2}
    return _finish(run_demo(args.name, config, **kwargs), config, args.out)


def cmd_moments(args: argparse.Namespace) -> int:
    config = _build_config(args)
    scenario = independence_scenario_from_json(load_json_file(args.scenario_file))
    if args.words_file is not None:
        words = words_from_json(load_json_file(args.words_file))
    else:
        words = scenario["words"] or []

    s1, s2 = scenario["space1"], scenario["space2"]
    for space, which in ((s1, "space1"), (s2, "space2")):
        rep = space.verify(config.tolerance)
        if not rep.passed:
            for c in rep.failures:
                print(
                    f"FAIL {which} functional: {c.name} residual {c.residual:.6g}",
                    file=sys.stderr,
                )
            return 1

    algebras = {1: s1.algebra, 2: s2.algebra}
    by_leg: dict[int, list] = {1: [], 2: []}
    for i, word in enumerate(words):
        for j, (leg, element) in enumerate(word.letters):
            want = (algebras[leg].ambient_dim,) * 2
            if element.shape != want:
                raise SchemaError(
                    f"letter has shape {element.shape}, leg {leg} needs {want}",
                    f"/words/{i}/letters/{j}/element",
                )
            by_leg[leg].append(element)
    # membership: one stacked test per leg; only when a leg fails is the
    # first letter off its leg's algebra located, in file order
    for leg, letters in by_leg.items():
        if letters and exceeds(algebras[leg].coords_many(np.stack(letters))[1], GUARD_TOL):
            for i, word in enumerate(words):
                for j, (letter_leg, element) in enumerate(word.letters):
                    res = algebras[letter_leg].span_residual(element)
                    if exceeds(res, GUARD_TOL):
                        raise SchemaError(
                            f"letter is not in the algebra of leg {letter_leg} (residual {res:.3e})",
                            f"/words/{i}/letters/{j}/element",
                        )

    construction = scenario["construction"]
    if construction == "monotone":
        real = monotone_realize(s1, s2)
        formulas = monotone_moment_formulas
    elif construction == "tensor":
        real = tensor_realize(s1, s2)
        formulas = tensor_moment_formulas
    else:  # conditional-monotone; the loader rejects anything else
        e1 = gns_construct(s1.functional, verify=False)
        e2 = gns_construct(s2.functional, verify=False)
        real = conditional_monotone_embed(e1, e2, s1.algebra, s2.algebra)
        formulas = conditional_monotone_moment_formulas

    base_valued = construction == "conditional-monotone"
    # per stack of words, one stacked realization and one stacked formula
    values = []
    for start in range(0, len(words), WORD_STACK):
        chunk = words[start : start + WORD_STACK]
        values += zip(real.moments(chunk), formulas(chunk, s1.functional, s2.functional))
    moments = []
    for i, (word, (got, want)) in enumerate(zip(words, values)):
        label = f"{i}: {word.label()}"
        if base_valued:
            residual = float(frob(got - want))
            got_json, want_json = matrix_to_json(got), matrix_to_json(want)
        else:
            got, want = complex(got[0, 0]), complex(want)
            residual = float(abs(got - want))
            got_json, want_json = complex_to_json(got), complex_to_json(want)
        moments.append(
            {
                "word": label,
                "realization": got_json,
                "formula": want_json,
                "residual": residual,
                "passed": residual <= config.tolerance,
            }
        )

    report = {
        "schema": SCHEMA_TAG,
        "construction": construction,
        "config": config.as_report_dict(),
        "moments": moments,
        "passed": all(m["passed"] for m in moments),
    }
    return _finish(report, config, args.out)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=None, help="residual tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default 42; NCPROB_SEED overrides)")
    common.add_argument("--max-word-length", type=int, default=None, dest="max_word_length", help="longest sampled word (default 6)")
    common.add_argument("--trials", type=int, default=None, help="sampled words per check (default 200)")
    common.add_argument("--horizon", type=int, default=None, help="product-system horizon (default 3)")
    common.add_argument("--budget", type=int, default=None, help="largest allowed module dimension (default 4096)")
    common.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv", "text"), default=None, help="report format (default json)")

    parser = argparse.ArgumentParser(
        prog="ncprob",
        description="numerical workbench for independence, modules, and dilations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser(
        "demo", parents=[common], help="run a worked scenario and print its tables"
    )
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--bias1", type=float, default=0.7, help="first coin bias given heads (coins demo)")
    p_demo.add_argument("--bias2", type=float, default=0.3, help="second coin bias given heads (coins demo)")
    p_demo.set_defaults(func=cmd_demo)

    p_moments = sub.add_parser(
        "moments", parents=[common], help="evaluate word moments from JSON files"
    )
    p_moments.add_argument("scenario_file", help="scenario JSON (spaces + construction)")
    p_moments.add_argument(
        "words_file", nargs="?", default=None, help="words JSON (defaults to the scenario's inline words)"
    )
    p_moments.set_defaults(func=cmd_moments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as err:
        print(f"error: {err.reason} (at {err.pointer})", file=sys.stderr)
        return 2
    except StructuralError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
