"""Command-line front end: counting, censuses, oracles, generators, audits.

One command per process.  Exit codes: 0 success (and all checks passing),
1 a check failed, 2 usage or parse error, 3 an oracle or exhaustive-scan
limit was hit.  JSON reports embed the resolved configuration; text output
is the bare payload or a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, TextIO

from .audit import (
    AuditConfig,
    audit_graph,
    bound_degenerate,
    check_binom_sum_inequality,
    refined_exponents,
)
from .constructions import (
    generate,
    lower_bound_constant,
    parse_construction_spec,
    predicted_clique_count,
    spec_from_json,
)
from .errors import CliqueCensusError, GraphParseError, OracleLimitError
from .graph import Graph, load_graph, serialize
from .sparsity import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    SparsityParams,
    check_local_sparsity,
    lemma_sparsity_params,
)
from .subdivision import (
    DEFAULT_MINOR_LIMIT,
    DEFAULT_SUBDIVISION_LIMIT,
    has_minor,
    has_subdivision,
)
from .tree import DEFAULT_NODE_CAP, _clique_tuples, census, count_cliques
from .tree import enumerate_cliques  # noqa: F401  unused here; traced by this name

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clique-census",
        description="Clique counting, containment oracles, and bound audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
        p.add_argument("--output", metavar="PATH", help="write output here instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("count", help="total clique count, empty clique included")
    add_common(p)

    p = sub.add_parser("census", help="clique counts by size")
    add_common(p)

    p = sub.add_parser("enumerate", help="list every clique, one per line")
    add_common(p)

    p = sub.add_parser("generate", help="emit a construction as an edge list")
    add_common(p, graph_input=False)

    p = sub.add_parser(
        "check-subdivision", help="search for a K_t-subdivision (small graphs)"
    )
    add_common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_SUBDIVISION_LIMIT,
        help=f"max vertices the oracle accepts (default {DEFAULT_SUBDIVISION_LIMIT})",
    )

    p = sub.add_parser("check-minor", help="search for a K_t-minor (small graphs)")
    add_common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_MINOR_LIMIT,
        help=f"max vertices the oracle accepts (default {DEFAULT_MINOR_LIMIT})",
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
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    p.add_argument(
        "--oracle-limit", type=int, default=DEFAULT_SUBDIVISION_LIMIT
    )

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    add_common(p)
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
        "--refined",
        nargs=3,
        metavar=("ALPHA", "BETA", "T"),
        help="exponent report at generalized thinning parameters",
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
        return generate(_resolve_spec(args))
    if args.graph:
        return load_graph(args.graph)
    raise _UsageError(f"{args.command} needs a graph file or --construct")


def _resolve_spec(args):
    text = args.construct
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            spec = spec_from_json(fh.read())
    else:
        spec = parse_construction_spec(text)
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def _config_dict(args) -> dict:
    cfg = {
        "command": args.command,
        "input": args.construct or getattr(args, "graph", None),
        "format": args.format,
        "seed": args.seed,
    }
    for key in ("t", "node_cap", "oracle_limit", "exhaustive_limit", "mode"):
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


# lines per write of a listing: few writes, and memory bounded by a batch
_LISTING_BATCH = 4096


def _json_clique(clique, name) -> str:
    """One clique as json.dumps(..., indent=2) prints it inside "cliques";
    name(v) is the decimal string of vertex v."""
    if not clique:
        return "[]"
    return "[\n      " + ",\n      ".join(map(name, sorted(clique))) + "\n    ]"


def _write_joined(out: TextIO, items: Iterator[str], sep: str) -> None:
    """Write the items joined by sep, _LISTING_BATCH items per write."""
    lead = ""
    while batch := list(islice(items, _LISTING_BATCH)):
        out.write(lead + sep.join(batch))
        lead = sep


def _cmd_enumerate(args) -> int:
    """Stream the listing in batches instead of building one _Report."""
    g = _resolve_graph(args)
    name = [str(v) for v in range(g.n)].__getitem__
    cliques = _clique_tuples(g)
    with _output(args) as out:
        if args.format == "json":
            # the same bytes as json.dumps of the whole payload, indent=2;
            # the list is never empty, since the empty clique comes first
            head = json.dumps({"config": _config_dict(args), "cliques": None}, indent=2)
            prefix, suffix = head.rsplit("null", 1)
            out.write(prefix + "[\n    ")
            _write_joined(out, (_json_clique(c, name) for c in cliques), ",\n    ")
            out.write("\n  ]" + suffix + "\n")
        else:
            _write_joined(out, (" ".join(map(name, sorted(c))) for c in cliques), "\n")
            out.write("\n")
    return EXIT_OK


def _cmd_generate(args) -> _Report:
    if not args.construct:
        raise _UsageError("generate needs --construct")
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


def _cmd_check_subdivision(args) -> _Report:
    g = _resolve_graph(args)
    witness = has_subdivision(g, args.t, oracle_limit=args.oracle_limit)
    if witness is None:
        return _Report({"witness": None}, "none")
    lines = ["branch: " + " ".join(map(str, witness.branch))]
    for path in witness.paths:
        lines.append(f"path {path[0]} {path[-1]}: " + " ".join(map(str, path)))
    return _Report({"witness": witness.to_json()}, "\n".join(lines))


def _cmd_check_minor(args) -> _Report:
    g = _resolve_graph(args)
    witness = has_minor(g, args.t, oracle_limit=args.oracle_limit)
    if witness is None:
        return _Report({"witness": None}, "none")
    parts = [sorted(part) for part in witness]
    lines = [f"branch {i}: " + " ".join(map(str, part)) for i, part in enumerate(parts)]
    return _Report({"witness": parts}, "\n".join(lines))


def _cmd_sparse_check(args) -> _Report:
    g = _resolve_graph(args)
    if args.beta is not None or args.n_threshold is not None:
        if args.beta is None or args.n_threshold is None:
            raise _UsageError("--beta and --n-threshold go together")
        try:
            params = SparsityParams(Fraction(args.beta), args.n_threshold)
        except (ValueError, ZeroDivisionError) as err:
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
    g = _resolve_graph(args)
    cfg = AuditConfig(
        t=args.t,
        assume_subdivision_free=args.assume_subdivision_free,
        node_cap=args.node_cap,
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
    text = str(value)
    if len(text) > 40:
        return f"{text[:12]}...({len(text)} digits)"
    return text


def _cmd_bounds(args) -> _Report:
    payload: dict = {}
    lines: list[str] = []
    failed = False
    if args.degenerate:
        d, n = args.degenerate
        value = bound_degenerate(d, n)
        payload["degenerate"] = {"d": d, "n": n, "bound": str(value)}
        lines.append(f"degenerate: {value}")
    if args.binom:
        m = int(args.binom[0])
        k = Fraction(args.binom[1])
        check = check_binom_sum_inequality(m, k)
        payload["binom"] = check.to_json()
        mark = "holds" if check.holds else "FAILS"
        lines.append(f"binom: {mark} lhs={check.lhs} rhs={check.rhs}")
        failed = not check.holds
    if args.refined:
        alpha = Fraction(args.refined[0])
        beta = Fraction(args.refined[1])
        t = int(args.refined[2])
        report = refined_exponents(alpha, beta, t)
        payload["refined"] = report.to_json()
        lines.append(
            f"refined: dense={report.dense_exponent:.6f} "
            f"asymptotic={report.dense_exponent_asymptotic:.6f} "
            f"skeleton={report.skeleton_exponent:.6f} "
            f"total={report.total_exponent:.6f}"
        )
    if args.lower_bound:
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
        raise _UsageError(
            "bounds needs at least one of --degenerate, --binom, "
            "--refined, --lower-bound"
        )
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
