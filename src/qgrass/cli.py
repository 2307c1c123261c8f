"""Deterministic command-line surface over the library.

Identical invocations produce identical bytes: the canonical term orders
and the canonical linear extension fix every output, and no timestamps or
environment lookups are involved.  Exit codes: 0 on success, 1 on usage
errors and when the reader closes stdout, 2 on mathematical failure
(nonzero subduction remainder or a lifted syzygy without its requested
initial form).
"""

from __future__ import annotations

import argparse
import functools
import json
import locale  # argparse's gettext imports it at the first parser build; pay that at start-up
import os
import sys
from typing import Optional

from . import lattice, maps, polyring, straighten, syzygy
from .errors import InternalInconsistencyError, QgrassError, SagbiFailureError
from .lattice import Context, PluckerVar

USAGE_ERROR = 1
MATH_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _DeferredParser:
    """A subcommand's parser, built only when argparse parses with it.

    argparse lists a subcommand from its name and help line alone and reads
    its parser only through `parse_known_args`, once the command line has
    chosen it.  So a run builds the root's parser and the invoked command's
    (and, for `poset`, its subcommand's), not one per command.
    """

    def __init__(self, configure, **kwargs):
        self._configure = configure
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self._kwargs)
        self._configure(parser)
        return parser.parse_known_args(args, namespace)


def resolve_context(args) -> Context:
    p, m, n, q = args.p, args.m, args.n, args.q
    if n is None and q is None:
        n, q = 0, 0
    elif n is None:
        Context(p, m)  # refuses p < 1 before q is divided by it
        n = -(-q // p)
    elif q is None:
        q = n * p
    return Context(p, m, n, q)


def _parse_var(text: str, ctx: Context) -> PluckerVar:
    u = lattice.parse_var(text, p=ctx.p)
    lattice.validate_var(u, ctx)
    return u


def _parse_interval(args, ctx: Context):
    return None if args.interval is None else tuple(_parse_var(t, ctx) for t in args.interval)


def _emit_poly(poly, kind, ctx, args) -> str:
    if args.format == "json":
        return polyring.emit_json(poly, kind, ctx)
    return polyring.emit_text(poly, kind, ctx, compact=args.compact)


def _fmt_var(u, args) -> str:
    return lattice.format_var(u, compact=args.compact)


def _write_rows(rows, line, args, out) -> None:
    """rows as one JSON array, or one line(row) per row."""
    if args.format == "json":
        print(json.dumps(rows), file=out)
    else:
        for row in rows:
            print(line(row), file=out)


def _poset_list(args, ctx, out):
    elems = lattice.elements(ctx, _parse_interval(args, ctx))
    _write_rows([_fmt_var(u, args) for u in elems], str, args, out)


def _poset_pairs(args, ctx, out):
    pairs = lattice.incomparable_pairs(ctx, _parse_interval(args, ctx))
    _write_rows([[_fmt_var(u, args), _fmt_var(v, args)] for u, v in pairs], " ".join, args, out)


def _poset_rank(args, ctx, out):
    print(lattice.rank(_parse_var(args.var, ctx), ctx), file=out)


def _degree(args, ctx, out):
    print(lattice.count_maximal_chains(ctx, _parse_interval(args, ctx)), file=out)


def _image(kind, fn, args, ctx, out):
    """The handler of phi, psi, chi and pi: fn(u, ctx) of u in the kind universe."""
    print(_emit_poly(fn(_parse_var(args.var, ctx), ctx), kind, ctx, args), file=out)


def _schubert(args, ctx, out):
    top = _parse_var(args.top, ctx)
    bot = None if args.skew is None else _parse_var(args.skew, ctx)
    mask = maps.schubert_mask(ctx, top, bot)
    members = lattice.elements(ctx, (bot or lattice.bottom(ctx), top))
    images = [(u, maps.generator_image(u, ctx, mask)) for u in members]
    zeroed = sorted(mask, key=polyring.X_ORDER.var_key)
    if args.format == "json":
        doc = {
            "mask": [[v.row, v.col, v.level] for v in zeroed],
            "images": {_fmt_var(u, args): polyring.json_doc(img, "X") for u, img in images},
        }
        print(json.dumps(doc, separators=(",", ":")), file=out)
    else:
        for v in zeroed:
            print(f"zero {polyring.format_variable(v, 'X')}", file=out)
        for u, img in images:
            print(f"{_fmt_var(u, args)} -> {polyring.emit_text(img, 'X', ctx)}", file=out)


def _straighten(args, ctx, out):
    gamma, delta = _parse_var(args.gamma, ctx), _parse_var(args.delta, ctx)
    quad = straighten.straightening_relation(gamma, delta, ctx, _parse_interval(args, ctx))
    print(_emit_poly(quad.poly, "C", ctx, args), file=out)


def _groebner(args, ctx, out):
    basis = straighten.reduced_groebner(ctx, _parse_interval(args, ctx))
    if args.format == "json":
        doc = [
            {
                "lead_pair": [_fmt_var(q.lead_pair[0], args), _fmt_var(q.lead_pair[1], args)],
                "poly": polyring.json_doc(q.poly, "C", ctx),
            }
            for q in basis
        ]
        print(json.dumps(doc, separators=(",", ":")), file=out)
    else:
        for q in basis:
            print(polyring.emit_text(q.poly, "C", ctx, compact=args.compact), file=out)


def _sagbi_check(args, ctx, out):
    report = straighten.sagbi_check(ctx, jobs=args.jobs)
    print(json.dumps(report, separators=(",", ":")), file=out)
    return MATH_ERROR if report["failures"] else 0


def _syzygy(args, ctx, out):
    rows = (_parse_var(args.row1, ctx), _parse_var(args.row2, ctx))
    lift = syzygy.skew_syzygy_w if args.kind == "w" else syzygy.quantum_syzygy_v
    print(_emit_poly(lift(rows, ctx), "C", ctx, args), file=out)


def _obvious(args, ctx, out):
    if args.rank:
        report = syzygy.coefficient_relation_report(ctx)
        print(json.dumps(report, separators=(",", ":")), file=out)
        return
    for f in syzygy.coefficient_relations(ctx):
        print(_emit_poly(f, "C", ctx, args), file=out)


_INTERVAL = ("--interval", {"nargs": 2, "metavar": ("BOT", "TOP")})
_VAR = ("var", {})
_JOBS_HELP = "worker processes, >= 1 (capped at the CPU count and the number of pairs)"

# name -> (help line, or None to list no help; the arguments as
# (name, add_argument keywords) in order, or a nested table of subcommands;
# the handler (args, ctx, out), returning an exit code or None for 0, or None
# beside a nested table)
_POSET_COMMANDS = {
    "list": (None, [_INTERVAL], _poset_list),
    "pairs": (None, [_INTERVAL], _poset_pairs),
    "rank": (None, [_VAR], _poset_rank),
}
_COMMANDS = {
    "poset": ("lattice elements, incomparable pairs, ranks", _POSET_COMMANDS, None),
    "degree": ("number of maximal chains", [_INTERVAL], _degree),
    **{
        name: (f"{name} image of a lattice variable", [_VAR], functools.partial(_image, kind, fn))
        for name, kind, fn in (
            ("phi", "X", lambda u, ctx: maps.phi(u, ctx)),
            ("psi", "X", lambda u, ctx: polyring.Polynomial.term(maps.psi(u, ctx))),
            ("chi", "X", lambda u, ctx: maps.chi(u, ctx)),
            ("pi", "J", lambda u, ctx: maps.pi(u, ctx)),
        )
    },
    "schubert": (
        "cell mask and masked generator images",
        [("top", {}), ("--skew", {"metavar": "BOT", "default": None})],
        _schubert,
    ),
    "straighten": (
        "straightening relation of an incomparable pair",
        [("gamma", {}), ("delta", {}), _INTERVAL],
        _straighten,
    ),
    "groebner": ("all quadratic straightening relations", [_INTERVAL], _groebner),
    "sagbi-check": (
        "subduct every incomparable product",
        [("--jobs", {"type": int, "default": 1, "help": _JOBS_HELP})],
        _sagbi_check,
    ),
    "syzygy": (
        "skew (w) or lifted (v) syzygy of a two-row tableau",
        [("kind", {"choices": ["w", "v"]}), ("row1", {}), ("row2", {})],
        _syzygy,
    ),
    "obvious": (
        "t-coefficient relations from the classical quadrics",
        [("--rank", {"action": "store_true", "help": "emit the rank/deficit report"})],
        _obvious,
    ),
}


def _add_commands(parser, table, dest) -> None:
    # run calls the handler that the chosen leaf sets; argparse names dest
    # in its missing-subcommand message
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_DeferredParser)
    for name, (help_line, spec, handler) in table.items():
        if isinstance(spec, dict):
            configure = functools.partial(_add_commands, table=spec, dest=f"{name}_command")
        else:
            configure = functools.partial(_add_arguments, spec, handler)
        kwargs = {} if help_line is None else {"help": help_line}
        sub.add_parser(name, configure=configure, **kwargs)


def _add_arguments(spec, handler, parser) -> None:
    for name, kwargs in spec:
        parser.add_argument(name, **kwargs)
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgrass", description=__doc__)
    parser.add_argument("--p", type=int, required=True, help="number of matrix rows")
    parser.add_argument("--m", type=int, required=True, help="column surplus")
    parser.add_argument("--n", type=int, default=None, help="entry degree (default: ceil(q/p))")
    parser.add_argument("--q", type=int, default=None, help="shift bound (default: n*p)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--compact", action="store_true", help="compact digit form for variables")
    _add_commands(parser, _COMMANDS, "command")
    return parser


def run(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = resolve_context(args)
        return args.handler(args, ctx, out) or 0
    except (SagbiFailureError, InternalInconsistencyError) as exc:
        print(f"qgrass: mathematical failure: {exc}", file=sys.stderr)
        return MATH_ERROR
    except QgrassError as exc:
        print(f"qgrass: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's final flush does not fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
