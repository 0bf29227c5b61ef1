"""Command-line front end: counting, censuses, oracles, generators, audits.

One command per process.  Exit codes: 0 success (and all checks passing),
1 a check failed, 2 usage or parse error, 3 an oracle or exhaustive-scan
limit was hit.  JSON reports embed the resolved configuration; text output
is the bare payload or a human-readable summary.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, NamedTuple, TextIO

# count, census and enumerate need only the modules imported here; each
# other command imports what it runs inside its handler, so a cold start
# loads no audit, oracle, sparsity or construction code it does not use
from .errors import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_MINOR_LIMIT,
    DEFAULT_SUBDIVISION_LIMIT,
    CliqueCensusError,
    GraphParseError,
    OracleLimitError,
)
from .graph import Graph, load_graph, read_utf8, serialize
from .tree import _clique_blocks, census, count_cliques
from .tree import enumerate_cliques  # noqa: F401  unused here; traced by this name

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

# no limit applies below t = 3, nor where the elimination certificate decides
_ORACLE_LIMIT_HELP = ("max vertices of a graph the exhaustive search takes, "
                      "from t = 3 on (default {})")


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="clique-census",
        description="Clique counting, containment oracles, and bound audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", metavar="PATH", help="write output here instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="text",
            help="output format (default text)",
        )

    def add_common(p, graph_input=True):
        if graph_input:
            p.add_argument(
                "graph",
                nargs="?",
                help="graph file (edge-list 'n m' header format, or DIMACS .col)",
            )
        p.add_argument(
            "--construct",
            metavar="SPEC",
            help="construction spec, inline 'family:key=val,...' or a path "
            "to a JSON file {family, params, seed}",
        )
        p.add_argument("--seed", type=int, help="seed override for random families")
        add_output(p)

    p = sub.add_parser("count", help="total clique count, empty clique included")
    add_common(p)

    p = sub.add_parser("census", help="clique counts by size")
    add_common(p)

    p = sub.add_parser("enumerate", help="list every clique, one per line")
    add_common(p)

    p = sub.add_parser("generate", help="emit a construction as an edge list")
    add_common(p, graph_input=False)

    for name, what, limit in (
        ("check-subdivision", "subdivision", DEFAULT_SUBDIVISION_LIMIT),
        ("check-minor", "minor", DEFAULT_MINOR_LIMIT),
    ):
        p = sub.add_parser(
            name,
            help=f"decide K_t-{what} containment (treewidth certificate, "
            "then exhaustive search on small graphs)",
        )
        add_common(p)
        p.add_argument("--t", type=int, required=True)
        p.add_argument(
            "--oracle-limit",
            type=int,
            default=limit,
            help=_ORACLE_LIMIT_HELP.format(limit),
        )

    p = sub.add_parser("sparse-check", help="test (beta, N)-local sparsity")
    add_common(p)
    p.add_argument("--t", type=int, help="derive beta and N from t and the vertex count")
    p.add_argument("--beta", help="degree ratio as a rational, e.g. 9/10")
    p.add_argument("--n-threshold", type=int, help="minimum subset size N")
    p.add_argument("--mode", choices=("exhaustive", "peeling"), default="exhaustive")
    p.add_argument(
        "--exhaustive-limit",
        type=int,
        default=DEFAULT_EXHAUSTIVE_LIMIT,
        help=f"max vertices for exhaustive mode (default {DEFAULT_EXHAUSTIVE_LIMIT})",
    )

    p = sub.add_parser("audit", help="run the full bound audit pipeline")
    add_common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--assume-subdivision-free", action="store_true")
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_SUBDIVISION_LIMIT,
        help=_ORACLE_LIMIT_HELP.format(DEFAULT_SUBDIVISION_LIMIT),
    )

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    add_output(p)
    p.add_argument(
        "--degenerate",
        nargs=2,
        type=int,
        metavar=("D", "N"),
        help="degenerate-graph clique ceiling 2^D (N - D + 1)",
    )
    p.add_argument(
        "--binom",
        nargs=2,
        metavar=("M", "K"),
        help="check sum_{i<=floor(K)} C(M,i) <= (e M / K)^K",
    )
    p.add_argument(
        "--lower-bound",
        type=int,
        metavar="K",
        help="per-t clique exponent of the 2k-vertex multipartite family",
    )
    return parser


def _resolve_graph(args) -> Graph:
    """Load the input graph from its file or from --construct."""
    if args.construct and args.graph:
        raise _UsageError("give either a graph file or --construct, not both")
    if args.construct:
        from .constructions import generate

        return generate(_resolve_spec(args))
    if args.graph:
        return load_graph(args.graph)
    raise _UsageError(f"{args.command} needs a graph file or --construct")


def _resolve_spec(args):
    from .constructions import parse_construction_spec, spec_from_json

    text = args.construct
    if os.path.isfile(text):
        spec = spec_from_json(read_utf8(text))
    else:
        spec = parse_construction_spec(text)
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def _config_dict(args) -> dict:
    cfg = {
        "command": args.command,
        "input": getattr(args, "construct", None) or getattr(args, "graph", None),
        "format": args.format,
        "seed": getattr(args, "seed", None),
    }
    for key in ("t", "oracle_limit", "exhaustive_limit", "mode"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


class _Report(NamedTuple):
    """What a command prints, in both formats, and its exit code.

    payload holds the JSON entries that follow "config".  config holds
    the command's own config entries; the CLI's entries are merged into
    it as dict.update does, and spec, when given, comes last.
    """

    payload: dict
    text: str
    code: int = EXIT_OK
    config: dict = {}
    spec: dict | None = None


@contextmanager
def _output(args) -> Iterator[TextIO]:
    """The --output file, or standard output (left open) without one."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, report: _Report) -> int:
    """Write the report as --format asks and return its exit code."""
    if args.format == "json":
        config = {**report.config, **_config_dict(args)}
        if report.spec is not None:
            config["spec"] = report.spec
        text = json.dumps({"config": config, **report.payload}, indent=2)
    else:
        text = report.text
    if not text.endswith("\n"):
        text += "\n"
    with _output(args) as out:
        out.write(text)
    return report.code


def _cmd_count(args) -> _Report:
    total = str(count_cliques(_resolve_graph(args)))
    return _Report({"count": total}, total)


def _cmd_census(args) -> _Report:
    result = census(_resolve_graph(args))
    return _Report(
        {"census": result.to_json_array(), "total": str(result.total)},
        "\n".join(f"{size} {count}" for size, count in enumerate(result.counts)),
    )


# lines per write of a listing: few writes, and memory bounded by a chunk
_LISTING_BATCH = 4096
# a block formats the lines of its last _WHOLE_TAIL tail ids, at most
# 2**_WHOLE_TAIL == _LISTING_BATCH of them, as one string, and streams
# copies of it
_WHOLE_TAIL = _LISTING_BATCH.bit_length() - 1


def _block_pieces(chosen, tail, first, name) -> Iterator[tuple[str, int]]:
    """Yield the lines of one block of _clique_blocks as pieces (text,
    line count) of at most _LISTING_BATCH lines. A line is "\n" and the
    names of a clique chosen + S, S a subset of tail in lexicographic
    order, in increasing id order joined by " "; name(v) is the decimal
    string of v. When `first` is false the block's first line, S = (),
    is left out: rest alone, or the streamed levels without Q_0.

    Let P_j be the chosen names between tail[j-1] and tail[j], and Q_j
    the chosen names above tail[j-1]. The lines of the subsets of tail[j:]
    are Q_j, then rest(j): the line P_j + tail[j] + Q_{j+1}, every line
    of rest(j+1) prefixed by P_j and tail[j], and every line of rest(j+1)
    prefixed by P_j. Tail ids increase along S, so these are the subsets
    in lexicographic order. A prefix is one str.replace of "\n", so a
    level costs a few string operations however many lines it holds.
    rest is built from the last tail id up; above the last _WHOLE_TAIL
    levels the same recurrence streams prefixed copies of that rest.
    """
    k = len(tail)
    if not k:
        yield "\n" + " ".join(map(name, sorted(chosen))), 1
        return
    gaps = [""] * (k + 1)  # gaps[j] is P_j, gaps[k] the chosen names above tail
    for c in sorted(chosen):
        j = bisect_left(tail, c)
        gaps[j] = f"{gaps[j]} {name(c)}" if gaps[j] else name(c)
    top = max(k - _WHOLE_TAIL, 0)
    q, rest = gaps[k], ""
    levels = [None] * top  # (P_j, P_j + tail[j], that + Q_{j+1}) above top
    for j in range(k - 1, -1, -1):
        p, x = gaps[j], name(tail[j])
        if p:
            x = f"{p} {x}"
        xq = f"{x} {q}" if q else x
        if j < top:
            levels[j] = p, x, xq
        else:
            with_x = rest.replace("\n", "\n" + x + " ")
            with_p = rest.replace("\n", "\n" + p + " ") if p else rest
            rest = f"\n{xq}{with_x}{with_p}"
        if p:
            q = f"{p} {q}" if q else p
    if not top:
        yield (f"\n{q}{rest}", 1 << k) if first else (rest, (1 << k) - 1)
        return
    if first:
        yield "\n" + q, 1
    # depth first over the levels above top, each entry (level, prefix)
    stack = [(0, "")]
    while stack:
        j, prefix = stack.pop()
        if j == top:
            yield (rest.replace("\n", "\n" + prefix) if prefix else rest,
                   (1 << (k - top)) - 1)
            continue
        p, x, xq = levels[j]
        yield f"\n{prefix}{xq}", 1
        stack.append((j + 1, f"{prefix}{p} " if p else prefix))
        stack.append((j + 1, f"{prefix}{x} "))


def _listing(g: Graph) -> Iterator[str]:
    """Every clique of g as the line _block_pieces makes of it, in the
    order of enumerate_cliques, in chunks of _LISTING_BATCH lines (the
    last may hold fewer). The first line is the empty clique's "\n"."""
    name = [str(v) for v in range(g.n)].__getitem__
    chunk, room = [], _LISTING_BATCH
    for chosen, tail, first in _clique_blocks(g):
        for text, lines in _block_pieces(chosen, tail, first, name):
            while lines >= room:
                # with the first `room` line breaks blanked, the next one
                # starts line `room`
                cut = (text.replace("\n", " ", room).find("\n") if lines > room
                       else len(text))
                chunk.append(text[:cut])
                yield "".join(chunk)
                text, lines, chunk, room = text[cut:], lines - room, [], _LISTING_BATCH
            chunk.append(text)
            room -= lines
    if room < _LISTING_BATCH:
        yield "".join(chunk)


def _json_cliques(text: str) -> str:
    """The JSON of a chunk of _listing without the empty clique: each "\n"
    closes the clique before it and opens the next, each " " becomes a
    comma and the next id's indent. Ids are decimal digits, so "]" can
    stand for the line breaks in between."""
    return (text.replace("\n", "]").replace(" ", ",\n      ")
            .replace("]", "\n    ],\n    [\n      "))


def _cmd_enumerate(args) -> int:
    """Stream the listing chunk by chunk instead of building one _Report."""
    g = _resolve_graph(args)
    chunks = _listing(g)
    # the empty clique comes first, a bare "\n": text moves that line
    # break to the end, JSON prints the clique as []
    first = next(chunks)[1:]
    with _output(args) as out:
        if args.format == "json":
            # the same bytes as json.dumps of the whole payload, indent=2
            head = json.dumps({"config": _config_dict(args), "cliques": None}, indent=2)
            prefix, suffix = head.rsplit("null", 1)
            # [] needs no close; every later clique is closed by the next
            # one's line break, or at the end
            out.write(prefix + "[\n    []"
                      + _json_cliques(first).removeprefix("\n    ]"))
            for chunk in chunks:
                out.write(_json_cliques(chunk))
            out.write(("\n    ]" if g.n else "") + "\n  ]" + suffix + "\n")
        else:
            out.write(first)
            for chunk in chunks:
                out.write(chunk)
            out.write("\n")
    return EXIT_OK


def _cmd_generate(args) -> _Report:
    if not args.construct:
        raise _UsageError("generate needs --construct")
    from .constructions import generate, predicted_clique_count

    spec = _resolve_spec(args)
    g = generate(spec)
    predicted = predicted_clique_count(spec)
    return _Report(
        {
            "n": g.n,
            "edges": g.edges(),
            "predicted_clique_count": None if predicted is None else str(predicted),
        },
        serialize(g),
        spec=spec.to_json(),
    )


def _cmd_check(args, oracle, render) -> _Report:
    """Decide K_t-subdivision or K_t-minor containment with the oracle,
    limited to --oracle-limit vertices where its certificate cannot
    decide; render(witness) gives the witness's JSON and its text lines.
    """
    witness = oracle(_resolve_graph(args), args.t, oracle_limit=args.oracle_limit)
    if witness is None:
        return _Report({"witness": None}, "none")
    payload, lines = render(witness)
    return _Report({"witness": payload}, "\n".join(lines))


def _cmd_check_subdivision(args) -> _Report:
    from .subdivision import has_subdivision

    return _cmd_check(args, has_subdivision, _subdivision_witness)


def _cmd_check_minor(args) -> _Report:
    from .subdivision import has_minor

    return _cmd_check(args, has_minor, _minor_witness)


def _subdivision_witness(witness):
    lines = ["branch: " + " ".join(map(str, witness.branch))]
    lines += [f"path {p[0]} {p[-1]}: " + " ".join(map(str, p)) for p in witness.paths]
    return witness.to_json(), lines


def _minor_witness(witness):
    parts = [sorted(part) for part in witness]
    return parts, [f"branch {i}: " + " ".join(map(str, part)) for i, part in enumerate(parts)]


def _cmd_sparse_check(args) -> _Report:
    from .constructions import parse_fraction
    from .sparsity import SparsityParams, check_local_sparsity, lemma_sparsity_params

    g = _resolve_graph(args)
    if args.beta is not None or args.n_threshold is not None:
        if args.beta is None or args.n_threshold is None:
            raise _UsageError("--beta and --n-threshold go together")
        beta = parse_fraction(args.beta)
        try:
            params = SparsityParams(beta, args.n_threshold)
        except ValueError as err:
            raise _UsageError(f"bad sparsity parameters: {err}")
    elif args.t is not None:
        params = lemma_sparsity_params(g.n, args.t)
    else:
        raise _UsageError("sparse-check needs --t or --beta/--n-threshold")
    cert = check_local_sparsity(
        g, params, mode=args.mode, exhaustive_limit=args.exhaustive_limit
    )
    if cert.verdict == "violated":
        text = "violated: " + " ".join(map(str, sorted(cert.witness)))
        return _Report({"certificate": cert.to_json()}, text, EXIT_CHECK_FAILED)
    return _Report({"certificate": cert.to_json()}, cert.verdict)


def _cmd_audit(args) -> _Report:
    from .audit import AuditConfig, audit_graph

    g = _resolve_graph(args)
    cfg = AuditConfig(
        t=args.t,
        assume_subdivision_free=args.assume_subdivision_free,
        oracle_limit=args.oracle_limit,
    )
    report = audit_graph(g, cfg)
    lines = []
    for check in report.checks:
        mark = "ok  " if check.holds else "FAIL"
        line = f"{mark} {check.name}: {check.lhs} vs {_short(check.rhs)}"
        if check.note:
            line += f"  [{check.note}]"
        lines.append(line)
    for case in report.boundary_cases:
        lines.append(
            f"boundary node {case.node}: {case.case} (label {case.label_size})"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("all checks hold" if report.all_hold else "some checks FAILED")
    payload = report.to_json()
    return _Report(
        payload,
        "\n".join(lines),
        EXIT_OK if report.all_hold else EXIT_CHECK_FAILED,
        config=payload.pop("config"),
    )


def _short(value) -> str:
    from decimal import Decimal

    from .audit import _fmt

    # a Decimal to 15 digits; str() shows Fraction(9) as "9", _fmt as "9/1"
    text = _fmt(value) if isinstance(value, Decimal) else str(value)
    if len(text) > 40:
        return f"{text[:12]}...({len(text)} digits)"
    return text


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"bad integer {text!r}") from None


def _cmd_bounds(args) -> _Report:
    from .audit import _fmt, bound_degenerate, check_binom_sum_inequality
    from .constructions import lower_bound_constant, parse_fraction

    payload: dict = {}
    lines: list[str] = []
    failed = False
    if args.degenerate:
        d, n = args.degenerate
        value = bound_degenerate(d, n)
        payload["degenerate"] = {"d": d, "n": n, "bound": str(value)}
        lines.append(f"degenerate: {value}")
    if args.binom:
        m = _integer(args.binom[0])
        k = parse_fraction(args.binom[1])
        check = check_binom_sum_inequality(m, k)
        payload["binom"] = check.to_json()
        mark = "holds" if check.holds else "FAILS"
        lines.append(f"binom: {mark} lhs={check.lhs} rhs={_fmt(check.rhs)}")
        failed = not check.holds
    if args.lower_bound is not None:
        report = lower_bound_constant(args.lower_bound)
        payload["lower_bound"] = {
            "k": report.k,
            "t": report.t,
            "clique_count": str(report.clique_count),
            "exponent": report.exponent,
            "limit": report.limit,
        }
        lines.append(
            f"lower-bound: k={report.k} t={report.t} "
            f"exponent={report.exponent:.6f} limit={report.limit:.6f}"
        )
    if not payload:
        raise _UsageError("bounds needs at least one of --degenerate, --binom, --lower-bound")
    return _Report(payload, "\n".join(lines), EXIT_CHECK_FAILED if failed else EXIT_OK)


_DISPATCH = {
    "count": _cmd_count,
    "census": _cmd_census,
    "generate": _cmd_generate,
    "check-subdivision": _cmd_check_subdivision,
    "check-minor": _cmd_check_minor,
    "sparse-check": _cmd_sparse_check,
    "audit": _cmd_audit,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _emit(args, _DISPATCH[args.command](args))
    except GraphParseError as err:
        print(f"error: cannot parse input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OracleLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT
    except (_UsageError, CliqueCensusError, ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
