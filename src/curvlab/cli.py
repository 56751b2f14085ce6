"""Command-line frontend.

Subcommands: length, curvature, deadend, backtracks, density, transport,
probe, verify.  Output is JSON (default) or, where a subcommand's --format
offers it, CSV, deterministic for a fixed configuration and seed; rationals
are emitted as "p/q" strings with a float convenience field that is never
used in any assertion.  Exit codes: 0 on success, 1 on usage or parse
errors, 2 when verify reports a failing criterion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .core import DEFAULT_BUDGET, MAX_HORIZON, CurvlabError, DomainError, ball, word_length
from .literals import ParseError, element_formatter, get_group, parse_element

# Each subcommand imports the modules it runs, so that a call loads only those.

CACHE_ENV = "CURVLAB_CACHE"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_csv(header: list, rows: Iterable[list]) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _add_common(
    p: argparse.ArgumentParser, *, element: bool = True, formats: tuple[str, ...] = ("json", "csv")
) -> None:
    """The group, table and output options; ``formats`` lists the outputs the subcommand emits."""
    p.add_argument("--group", required=True, help="group id: Zn, Fn, S3, L2, Wn, H2, Heis")
    if element:
        p.add_argument("--element", required=True, help="element literal (see module docs)")
    p.add_argument("--horizon", type=int, default=None, help="BFS horizon override")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="element budget of the BFS and of the escape search")
    p.add_argument("--cache", default=os.environ.get(CACHE_ENV), help="metric table cache directory")
    if formats:
        p.add_argument("--format", choices=formats, default="json")


def _table(args, oracle, default_horizon: int):
    from .cache import cached_bfs_metric

    horizon = args.horizon if args.horizon is not None else default_horizon
    if horizon > MAX_HORIZON:  # name the option that set the horizon, which core cannot know
        option = "horizon" if args.horizon is not None else "bound" if "bound" in args else "radius"
        needs = "" if option == "horizon" else f" needs horizon {horizon}, which"
        raise DomainError(
            f"--{option} {getattr(args, option)}{needs} exceeds the largest supported horizon ({MAX_HORIZON})"
        )
    return cached_bfs_metric(oracle, horizon, args.cache, budget=args.budget)


def cmd_length(args) -> int:
    oracle = get_group(args.group)
    g = parse_element(args.group, args.element)
    table = _table(args, oracle, 0 if oracle.closed_length else 8)
    n = word_length(oracle, g, table)
    fmt = element_formatter(args.group)
    if args.format == "csv":
        _emit_csv(["element", "length"], [[fmt(g), n]])
    else:
        _emit_json({"kind": "length", "group": args.group, "element": fmt(g), "length": n})
    return 0


def cmd_curvature(args) -> int:
    from .curvature import CSV_HEADER, kappa

    oracle = get_group(args.group)
    g = parse_element(args.group, args.element)
    table = _table(args, oracle, max(args.radius, 3))
    report = kappa(oracle, table, g, args.radius, args.mode)
    fmt = element_formatter(args.group)
    if args.format == "csv":
        _emit_csv(CSV_HEADER, report.csv_rows(fmt))
    else:
        _emit_json({"group": args.group, **report.to_json_dict(fmt)})
    return 0


def cmd_deadend(args) -> int:
    from . import deadend

    oracle = get_group(args.group)
    fmt = element_formatter(args.group)
    if args.scan:
        table = _table(args, oracle, 7)
        for rep in deadend.scan(oracle, table, table.horizon, args.max_depth, budget=args.budget):
            _emit_json({"group": args.group, **rep.to_json_dict(fmt)})
        return 0
    g = parse_element(args.group, args.element)
    table = _table(args, oracle, 8)
    rep = deadend.report(oracle, table, g, args.max_depth, budget=args.budget)
    _emit_json({"group": args.group, **rep.to_json_dict(fmt)})
    return 0


def cmd_backtracks(args) -> int:
    from .deadend import backtrack_elements

    oracle = get_group(args.group)
    g = parse_element(args.group, args.element)
    table = _table(args, oracle, max(args.bound, 8))
    elements = backtrack_elements(oracle, table, g, args.bound, budget=args.budget)
    fmt = element_formatter(args.group)
    ordered = sorted(elements)
    if args.format == "csv":
        _emit_csv(
            ["element", "backtrack", "length"],
            [[fmt(g), fmt(w), word_length(oracle, w, table)] for w in ordered],
        )
    else:
        _emit_json(
            {
                "kind": "backtracks",
                "group": args.group,
                "element": fmt(g),
                "count": len(ordered),
                "backtracks": [fmt(w) for w in ordered],
            }
        )
    return 0


def cmd_density(args) -> int:
    from . import heisenberg

    if args.format == "csv":
        _emit_csv(heisenberg.CSV_HEADER, heisenberg.density_csv_rows(args.k, args.radius))
    else:
        _emit_json(heisenberg.heis_density_experiment(args.k, args.radius).to_json_dict())
    return 0


def cmd_transport(args) -> int:
    from .transport import MeasureSpec, transport_distance

    oracle = get_group(args.group)
    x = parse_element(args.group, args.x)
    y = parse_element(args.group, args.y)
    table = _table(args, oracle, max(args.radius + 2, 4))
    spec = MeasureSpec(x, y, args.mode, args.radius)
    result = transport_distance(oracle, table, spec, cap=args.cap)
    _emit_json({"group": args.group, **result.to_json_dict(element_formatter(args.group))})
    return 0


def cmd_probe(args) -> int:
    import random

    from .transport import question_probe

    oracle = get_group(args.group)
    table = _table(args, oracle, max(args.radius + 2, 4))
    if args.ball > table.horizon:
        raise DomainError(f"--ball {args.ball} exceeds the table horizon {table.horizon}; raise --horizon")
    pool = [g for g in ball(table, args.ball) if g != oracle.identity]
    if args.sample is not None and args.sample < len(pool):
        rng = random.Random(args.seed)
        pool = [pool[i] for i in sorted(rng.sample(range(len(pool)), max(args.sample, 0)))]
    if not pool:
        raise DomainError("the probe has no element to sample; --ball and --sample must be at least 1")
    report = question_probe(oracle, table, args.radius, pool, cap=args.cap)
    _emit_json(report.to_json_dict(element_formatter(args.group)))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.tier, writer=lambda line: print(line, file=sys.stderr))
    _emit_json(
        {
            "kind": "verify",
            "tier": args.tier,
            "criteria": [
                {
                    "id": r.cid,
                    "title": r.title,
                    "passed": r.passed,
                    "details": r.details,
                    "seconds": round(r.elapsed, 2),
                }
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
    )
    return 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line with exit code 1; code 2 means a failing verify."""

    def error(self, message: str):
        self.exit(1, f"curvlab: {message} (see {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvlab",
        description="Comparison curvature, dead ends, and transport curvature on groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "length",
        help="word length of an element",
        epilog="CSV columns: element (the input literal), length (word length).",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_length)

    p = sub.add_parser(
        "curvature",
        help="comparison curvature kappa_r",
        epilog=(
            "CSV columns: element (the input literal), radius, mode, base_length "
            "(|g|), conjugator (w in S_r/B_r), conjugate_length (|w^-1 g w|), "
            "kappa (exact p/q); one row per conjugator."
        ),
    )
    _add_common(p)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--mode", choices=("sphere", "ball"), default="sphere")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("deadend", help="dead-end report for an element, or --scan a ball")
    _add_common(p, element=False, formats=("json",))
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--element", help="element literal (see module docs)")
    target.add_argument("--scan", action="store_true", help="stream one JSON object per dead end in B_horizon")
    p.add_argument("--max-depth", type=int, default=12)
    p.set_defaults(fn=cmd_deadend)

    p = sub.add_parser(
        "backtracks",
        help="backtrack elements of a dead end",
        epilog=(
            "CSV columns: element (the dead end), backtrack (the continuation "
            "g*w'), length (its word length); one row per backtrack."
        ),
    )
    _add_common(p)
    p.add_argument("--bound", type=int, default=12, help="cap on the dead-end depth searched")
    p.set_defaults(fn=cmd_backtracks)

    p = sub.add_parser(
        "density",
        help="Heisenberg sector sign census",
        epilog=(
            "CSV columns: A, B, C (Mal'cev coordinates), length (|g|), s "
            "(C mod A), labels (case per occurrence count t = 1..r, "
            "semicolon-joined), predicted (+/0/-/mixed), kappa (exact p/q); "
            "one row per sector element."
        ),
    )
    p.add_argument("--k", type=int, required=True, help="word length bound")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("transport", help="exact optimal transport between two basepoints")
    _add_common(p, element=False, formats=("json",))
    p.add_argument("--x", required=True, help="first basepoint literal")
    p.add_argument("--y", required=True, help="second basepoint literal")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--mode", choices=("sphere", "ball"), default="sphere")
    p.add_argument("--cap", type=int, default=1000, help="cap on enumerated optimal permutations")
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("probe", help="optimal-plan structure probe over a ball sample")
    _add_common(p, element=False, formats=())
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--ball", type=int, default=4, help="sample pool: nonidentity elements of B_ball")
    p.add_argument("--sample", type=int, default=None, help="random subsample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=1000)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--tier", choices=("fast", "full"), default="fast")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left early shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader closed the output early (`| head`): drop what is left, so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"curvlab: parse error: {exc}", file=sys.stderr)
        return 1
    except CurvlabError as exc:
        print(f"curvlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
