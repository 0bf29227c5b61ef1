"""Command-line front end: counting, censuses, oracles, generators, audits.

One command per process.  Exit codes: 0 success (and all checks passing),
1 a check failed, 2 usage or parse error, 3 a capacity or oracle limit
was hit.  JSON reports embed the resolved configuration; text output is
the bare payload or a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, TextIO

from .audit import (
    AuditConfig,
    audit_graph,
    bound_degenerate,
    check_binom_sum_inequality,
    refined_exponents,
)
from .backend import available_backends
from .constructions import (
    generate,
    lower_bound_constant,
    parse_construction_spec,
    predicted_clique_count,
    spec_from_json,
)
from .errors import (
    CapacityError,
    CliqueCensusError,
    GraphParseError,
    OracleLimitError,
)
from .graph import Graph, degeneracy, load_graph, serialize
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
from .tree import DEFAULT_NODE_CAP, census, count_cliques, enumerate_cliques

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

GRAPH_COMMANDS = {
    "count",
    "census",
    "enumerate",
    "check-subdivision",
    "check-minor",
    "sparse-check",
    "audit",
}


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
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads (default: CLIQUE_CENSUS_THREADS or 1)",
        )
        p.add_argument(
            "--backend",
            choices=available_backends(),
            default=None,
            help="census kernel selection (default: best available)",
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


def _resolve_threads(args) -> int:
    if args.threads is not None:
        threads = args.threads
    else:
        raw = os.environ.get("CLIQUE_CENSUS_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise _UsageError(
                f"CLIQUE_CENSUS_THREADS must be an integer, got {raw!r}"
            )
    if threads < 1:
        raise _UsageError("thread count must be at least 1")
    return threads


def _resolve_graph(args) -> tuple[Graph, str]:
    """Load the input graph; returns (graph, description-for-config)."""
    construct = getattr(args, "construct", None)
    path = getattr(args, "graph", None)
    if construct and path:
        raise _UsageError("give either a graph file or --construct, not both")
    if construct:
        spec = _resolve_spec(args)
        return generate(spec), construct
    if path:
        return load_graph(path), path
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


def _config_dict(args, extra: dict | None = None) -> dict:
    cfg = {
        "command": args.command,
        "input": getattr(args, "construct", None) or getattr(args, "graph", None),
        "format": args.format,
        "seed": getattr(args, "seed", None),
    }
    for key in ("t", "node_cap", "oracle_limit", "exhaustive_limit", "mode"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    if hasattr(args, "threads"):
        cfg["threads"] = _resolve_threads(args)
    if extra:
        cfg.update(extra)
    return cfg


@contextmanager
def _output(args) -> Iterator[TextIO]:
    """The --output file, or standard output (left open) without one."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(args) as out:
        out.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2))


def _cmd_count(args) -> int:
    g, _ = _resolve_graph(args)
    threads = _resolve_threads(args)
    total = count_cliques(g, threads=threads, backend=args.backend)
    if args.format == "json":
        _emit_json(args, {"config": _config_dict(args), "count": str(total)})
    else:
        _emit(args, str(total))
    return EXIT_OK


def _cmd_census(args) -> int:
    g, _ = _resolve_graph(args)
    threads = _resolve_threads(args)
    result = census(g, threads=threads, backend=args.backend)
    if args.format == "json":
        _emit_json(
            args,
            {
                "config": _config_dict(args),
                "census": result.to_json_array(),
                "total": str(result.total),
            },
        )
    else:
        lines = [f"{size} {count}" for size, count in enumerate(result.counts)]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _json_clique(clique) -> str:
    """One clique as json.dumps(..., indent=2) prints it inside "cliques"."""
    if not clique:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, sorted(clique))) + "\n    ]"


def _cmd_enumerate(args) -> int:
    g, _ = _resolve_graph(args)
    # streamed one clique at a time, so memory stays at the tree's depth
    with _output(args) as out:
        if args.format == "json":
            # the same bytes as json.dumps of the whole payload, indent=2;
            # the list is never empty, since the empty clique comes first
            head = json.dumps({"config": _config_dict(args), "cliques": None}, indent=2)
            prefix, suffix = head.rsplit("null", 1)
            out.write(prefix + "[")
            sep = "\n    "
            for c in enumerate_cliques(g):
                out.write(sep + _json_clique(c))
                sep = ",\n    "
            out.write("\n  ]" + suffix + "\n")
            return EXIT_OK
        for c in enumerate_cliques(g):
            out.write(" ".join(map(str, sorted(c))) + "\n")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if not args.construct:
        raise _UsageError("generate needs --construct")
    spec = _resolve_spec(args)
    g = generate(spec)
    predicted = predicted_clique_count(spec)
    if args.format == "json":
        _emit_json(
            args,
            {
                "config": _config_dict(args, {"spec": spec.to_json()}),
                "n": g.n,
                "edges": [[u, v] for u, v in g.edges()],
                "predicted_clique_count": (
                    None if predicted is None else str(predicted)
                ),
            },
        )
    else:
        _emit(args, serialize(g))
    return EXIT_OK


def _cmd_check_subdivision(args) -> int:
    g, _ = _resolve_graph(args)
    witness = has_subdivision(g, args.t, oracle_limit=args.oracle_limit)
    if args.format == "json":
        _emit_json(
            args,
            {
                "config": _config_dict(args),
                "witness": None if witness is None else witness.to_json(),
            },
        )
    elif witness is None:
        _emit(args, "none")
    else:
        lines = ["branch: " + " ".join(map(str, witness.branch))]
        for path in witness.paths:
            lines.append(
                f"path {path[0]} {path[-1]}: " + " ".join(map(str, path))
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_check_minor(args) -> int:
    g, _ = _resolve_graph(args)
    witness = has_minor(g, args.t, oracle_limit=args.oracle_limit)
    if args.format == "json":
        _emit_json(
            args,
            {
                "config": _config_dict(args),
                "witness": (
                    None
                    if witness is None
                    else [sorted(part) for part in witness]
                ),
            },
        )
    elif witness is None:
        _emit(args, "none")
    else:
        lines = [
            f"branch {i}: " + " ".join(map(str, sorted(part)))
            for i, part in enumerate(witness)
        ]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_sparse_check(args) -> int:
    g, _ = _resolve_graph(args)
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
    if args.format == "json":
        _emit_json(
            args, {"config": _config_dict(args), "certificate": cert.to_json()}
        )
    elif cert.verdict == "violated":
        _emit(args, "violated: " + " ".join(map(str, sorted(cert.witness))))
    else:
        _emit(args, cert.verdict)
    return EXIT_CHECK_FAILED if cert.verdict == "violated" else EXIT_OK


def _cmd_audit(args) -> int:
    g, _ = _resolve_graph(args)
    cfg = AuditConfig(
        t=args.t,
        assume_subdivision_free=args.assume_subdivision_free,
        node_cap=args.node_cap,
        oracle_limit=args.oracle_limit,
    )
    report = audit_graph(g, cfg)
    if args.format == "json":
        payload = report.to_json()
        payload["config"].update(_config_dict(args))
        _emit_json(args, payload)
    else:
        lines = []
        for check in report.checks:
            mark = "ok  " if check.holds else "FAIL"
            line = f"{mark} {check.name}: {check.lhs} vs {_short(check.rhs)}"
            if check.note:
                line += f"  [{check.note}]"
            lines.append(line)
        for case in report.boundary_cases:
            lines.append(
                f"boundary node {case.node}: {case.case} "
                f"(label {case.label_size})"
            )
        for note in report.notes:
            lines.append(f"note: {note}")
        lines.append(
            "all checks hold" if report.all_hold else "some checks FAILED"
        )
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.all_hold else EXIT_CHECK_FAILED


def _short(value) -> str:
    text = str(value)
    if len(text) > 40:
        return f"{text[:12]}...({len(text)} digits)"
    return text


def _cmd_bounds(args) -> int:
    requested = False
    payload: dict = {}
    lines: list[str] = []
    failed = False
    if args.degenerate:
        requested = True
        d, n = args.degenerate
        value = bound_degenerate(d, n)
        payload["degenerate"] = {"d": d, "n": n, "bound": str(value)}
        lines.append(f"degenerate: {value}")
    if args.binom:
        requested = True
        m = int(args.binom[0])
        k = Fraction(args.binom[1])
        check = check_binom_sum_inequality(m, k)
        payload["binom"] = check.to_json()
        mark = "holds" if check.holds else "FAILS"
        lines.append(f"binom: {mark} lhs={check.lhs} rhs={check.rhs}")
        failed = failed or not check.holds
    if args.refined:
        requested = True
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
        requested = True
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
    if not requested:
        raise _UsageError(
            "bounds needs at least one of --degenerate, --binom, "
            "--refined, --lower-bound"
        )
    if args.format == "json":
        _emit_json(args, {"config": _config_dict(args), **payload})
    else:
        _emit(args, "\n".join(lines))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


_DISPATCH = {
    "count": _cmd_count,
    "census": _cmd_census,
    "enumerate": _cmd_enumerate,
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
        return _DISPATCH[args.command](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as err:
        print(f"error: cannot parse input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleLimitError, CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CliqueCensusError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
