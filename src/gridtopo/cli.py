"""Command-line interface emitting plot-ready CSV/JSON artifacts."""

from __future__ import annotations

import argparse
import os
import stat
import sys

from .grid_log import load_log

# Each command imports the modules it runs, so a launch loads no more of
# the package than its command needs: `fit` never loads the community,
# evolution or generator modules, and `snapshot` never loads evolution.

DEFAULT_SEED = 42
GENERATOR_KINDS = ("erdos_renyi", "watts_strogatz", "barabasi_albert")
# longest --from/--to range accepted, so a typo like --to 20200 fails fast
MAX_YEAR_SPAN = 500
# most --restarts accepted: each restart is one more full greedy pass
MAX_RESTARTS = 1000


def _write_output(text: str, out_path: str | None) -> None:
    """Write to stdout, or to the file a path names (symlinks are followed).

    A FIFO, device or other non-regular file is written in place.  A
    regular or new file is replaced atomically (temp file + rename); it
    keeps an existing file's mode, and a new file gets 0o666 less the umask.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(out_path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    import tempfile

    target = os.path.realpath(out_path)
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".gridtopo-", suffix=".tmp")
    except OSError as exc:
        # name the path the user gave, not the temp file's random name
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        os.fchmod(fd, stat.S_IMODE(mode))
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, target)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _add_log_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", required=True, help="path to nodes.csv")
    parser.add_argument("--edges", required=True, help="path to edges.csv")


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("csv", "json")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _year_range(args) -> range:
    if args.year_to < args.year_from:
        raise ValueError(f"--to {args.year_to} is before --from {args.year_from}")
    span = args.year_to - args.year_from + 1  # len(range) overflows past sys.maxsize
    if span > MAX_YEAR_SPAN:
        raise ValueError(
            f"--from {args.year_from} --to {args.year_to} spans {span} years, more than {MAX_YEAR_SPAN}"
        )
    return range(args.year_from, args.year_to + 1)


def _cmd_snapshot(args) -> int:
    from .graphs import build_snapshot
    from .metrics import compute_metrics_record, records_to_csv

    log = load_log(args.nodes, args.edges)
    record = compute_metrics_record(build_snapshot(log, args.year))
    _write_output(record.to_json() if args.format == "json" else records_to_csv([record]), args.out)
    return 0


def _cmd_timeseries(args) -> int:
    from .evolution import compute_timeseries
    from .metrics import records_to_csv, records_to_json

    years = _year_range(args)
    log = load_log(args.nodes, args.edges)
    records = compute_timeseries(log, years)
    _write_output(records_to_json(records) if args.format == "json" else records_to_csv(records), args.out)
    return 0


def _cmd_fit(args) -> int:
    from .degree_fit import build_ccdf, compare_fits, fit_model
    from .graphs import build_snapshot
    from .metrics import degree_stats

    if args.model == "both" and args.format != "json":
        raise ValueError("--model both supports only --format json")
    log = load_log(args.nodes, args.edges)
    snapshot = build_snapshot(log, args.year)
    ccdf = build_ccdf(degree_stats(snapshot).histogram)
    fit = compare_fits(ccdf) if args.model == "both" else fit_model(ccdf, args.model)
    _write_output(fit.to_json() if args.format == "json" else fit.to_csv(), args.out)
    return 0


def _cmd_correlate(args) -> int:
    from .evolution import correlate_with_line_count
    from .metrics import record_field

    voltages = []
    for v in (v.strip() for v in args.voltages.split(",")):
        if v:
            try:
                level = int(v)
            except ValueError:
                level = 0  # not an integer: rejected below with the levels <= 0
            if level <= 0:
                raise ValueError(f"--voltages: invalid kV level {v!r}")
            voltages.append(level)
    years = _year_range(args)
    record_field(args.metric)  # an unknown metric fails before the log is read
    if not voltages:
        raise ValueError("voltage filter must not be empty")
    log = load_log(args.nodes, args.edges)
    report = correlate_with_line_count(log, args.metric, voltages, args.domestic_only, years)
    if args.out is not None:
        _write_output(report.to_csv(), args.out)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_generate(args) -> int:
    import warnings

    from .generators import GeneratorSpec, generate
    from .graphs import to_edgelist

    spec = GeneratorSpec(kind=args.kind, n=args.n, p=args.p, k=args.k, m=args.m, seed=args.seed)
    # a generator's UserWarning (say, skipped rewires) becomes one line, not Python's file:line and
    # source echo; the warning filters in force still decide what is shown
    with warnings.catch_warnings(record=True) as caught:
        graph = generate(spec)
    for warning in caught:
        if issubclass(warning.category, UserWarning):
            print(f"warning: {warning.message}", file=sys.stderr)
        else:
            warnings.showwarning(warning.message, warning.category, warning.filename, warning.lineno)
    _write_output(to_edgelist(graph), args.out)
    return 0


def _cmd_communities(args) -> int:
    if args.restarts < 1:
        raise ValueError("restarts must be at least 1")
    if args.restarts > MAX_RESTARTS:
        raise ValueError(f"--restarts {args.restarts} is more than {MAX_RESTARTS}")
    from .communities import assignment_to_csv, detect_communities
    from .graphs import build_snapshot

    log = load_log(args.nodes, args.edges)
    snapshot = build_snapshot(log, args.year)
    assignment = detect_communities(snapshot, args.seed, args.restarts)
    _write_output(assignment_to_csv(snapshot, assignment), args.out)
    if args.out is not None:
        sys.stdout.write(assignment.to_text())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridtopo",
        description="Temporal complex-network analytics for grid commission/decommission logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snapshot", help="metric row for one year")
    _add_log_arguments(p)
    p.add_argument("--year", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("timeseries", help="metric rows for a year range")
    _add_log_arguments(p)
    p.add_argument("--from", dest="year_from", type=int, required=True)
    p.add_argument("--to", dest="year_to", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_timeseries)

    p = sub.add_parser("fit", help="fit decay models to one year's degree CCDF")
    _add_log_arguments(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--model", choices=("power_law", "exponential", "both"), default="both")
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("correlate", help="correlate a metric with line counts")
    _add_log_arguments(p)
    p.add_argument("--metric", default="sigma")
    p.add_argument("--voltages", required=True, help="comma separated kV levels, e.g. 220,400")
    p.add_argument("--domestic-only", action="store_true")
    p.add_argument("--from", dest="year_from", type=int, required=True)
    p.add_argument("--to", dest="year_to", type=int, required=True)
    p.add_argument("--out", default=None, help="write the paired series CSV here")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("generate", help="emit a seeded reference graph as an edge list")
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("communities", help="export one year's community assignment")
    _add_log_arguments(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_communities)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
