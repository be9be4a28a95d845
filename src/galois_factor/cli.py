"""Command-line interface.

Subcommands: lattice, cn, factor, fn, check, reconstruct.  Each takes only
the options it reads; any other flag exits 1.  The path's suffix names the
input format: ``.cxt`` (Burmeister) or ``.csv`` (a fuzzy grid, read under
``--frame``).  ``lattice`` reads both; ``cn``, ``factor`` and ``reconstruct``
only ``.cxt``; ``fn`` and ``check`` only ``.csv``.  Any other suffix, and
``--frame`` on ``.cxt`` input, exits 1.  ``--budget`` caps the closure
evaluations of each enumeration behind ``lattice``, ``fn`` and ``check``,
and of all the block scans of ``factor --emit dot`` together.  Exit status
0 on success, 1 on any validation failure, 2 when a budget is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from . import io as fio
from . import _lazy_submodule, order
from .contexts import BooleanContext, concepts
from .errors import BudgetExceededError, ContextFormatError
from .order import read_natural

# loaded on first use: no Boolean command reads fy, and lattice not fz either
fz = _lazy_submodule("factorization")
fy = _lazy_submodule("fuzzy")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise CliError(message)


_OPTIONS = {
    "emit": dict(choices=["json", "dot"], default="json"),
    "out": dict(metavar="PATH", help="write output here instead of stdout"),
    "oracle": dict(action="store_true", help="cross-check with brute force"),
    "budget": dict(type=read_natural, default=order.DEFAULT_ENUM_BUDGET,
                   help="cap on closure evaluations (default %(default)s)"),
    "frame": dict(metavar="NAME:M", help="fuzzy frame, e.g. godel:4"),
    "props": dict(help="comma-separated subset of fp1,fp2,fp3,fp4,fp5 (default all)"),
    "pairs": dict(default="all", help="'all' or comma-separated pair indices"),
}


def _load(args):
    """The context at ``args.path``, parsed as its suffix says, when the
    command reads that suffix."""
    path = Path(args.path)
    if path.suffix not in (".cxt", ".csv"):
        raise CliError(f"cannot tell the input format from {path.suffix!r} (use .cxt or .csv)")
    if path.suffix not in args.suffixes:
        wanted = " or ".join(args.suffixes)
        raise CliError(f"{args.command} reads {wanted} input, not {path.suffix}")
    frame = getattr(args, "frame", None)
    if path.suffix == ".cxt":
        if frame is not None:
            raise CliError("--frame applies only to fuzzy (.csv) input")
        return fio.parse_cxt(path.read_text(encoding="utf-8-sig"))
    if not frame:
        raise CliError("fuzzy input needs --frame (godel:M, lukasiewicz:M or dprod:M1,M2,M3)")
    return fio.parse_fuzzy_csv(path.read_text(encoding="utf-8-sig"), frame)


def _write(args, text: str) -> None:
    """``text`` on stdout, or over ``--out`` in place, 64 KiB at a time, and cut to
    length: cheaper than truncating or encoding whole.  A failure empties the file."""
    if args.out is None:
        sys.stdout.write(text)
        return
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular, length = stat.S_ISREG(os.fstat(fd).st_mode), 0  # ftruncate fails on /dev/null
        try:
            with open(fd, "w", encoding="utf-8", closefd=False) as out:
                out.writelines(text[i:i + (1 << 16)] for i in range(0, len(text), 1 << 16))
            length = os.lseek(fd, 0, os.SEEK_CUR) if regular else 0
        finally:
            if regular:
                os.ftruncate(fd, length)
    finally:
        os.close(fd)


def _emit(args, result, oracle_report=None) -> int:
    if args.emit == "dot":
        text = fio.emit_dot(result)
    else:
        text = fio.emit_json(result, oracle_report)
    _write(args, text)
    return _verdict(oracle_report)


def _oracle(args, compare: str, ctx, fast):
    """Under ``--oracle``, the report of ``oracles.<compare>(ctx, fast)``,
    else None: the brute-force module is imported here and only here."""
    if not args.oracle:
        return None
    from . import oracles
    return getattr(oracles, compare)(ctx, fast)


def _verdict(oracle_report) -> int:
    if oracle_report is not None and not oracle_report.ok:
        print("oracle mismatch detected", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _factorized(args):
    """The factorization of the input and whether its blocks reassemble the core."""
    result = fz.factorize(_load(args))
    return result, fz.reassemble(result) == result.core


def _cmd_lattice(args) -> int:
    ctx = _load(args)
    if isinstance(ctx, BooleanContext):
        enumerate_, compare = concepts, "compare_concepts"
    else:
        enumerate_, compare = fy.fuzzy_concepts, "compare_fuzzy_concepts"
    lattice = enumerate_(ctx, budget=args.budget)
    return _emit(args, lattice, _oracle(args, compare, ctx, lattice))


def _cmd_cn(args) -> int:
    ctx = _load(args)
    lattice = fz.cn_enumerate(ctx)
    if lattice.materialized:
        report = _oracle(args, "compare_cn", ctx, lattice)
    else:  # past order.MAX_ELEMENTS pairs only the atoms are there to check
        report = _oracle(args, "compare_atoms", ctx, lattice.atom_pairs)
    return _emit(args, lattice, report)


def _cmd_factor(args) -> int:
    result, exact = _factorized(args)
    atom_pairs = (fz.NecessityPair(b.objects, b.attrs) for b in result.blocks)
    report = _oracle(args, "compare_atoms", result.core, atom_pairs)
    if args.emit == "dot":
        _write(args, fio.emit_dot(result, args.budget))
    else:
        mask = fz.rstar(result.core) if result.core.attributes else None
        payload = {
            **fio.to_jsonable(result),
            "reconstruction": "exact" if exact else "mismatch",
            "rstar": None if mask is None else fio.to_jsonable(mask)["incidence"],
        }
        _write(args, fio.emit_json(payload, report))
    status = _verdict(report)  # says so on stderr when the oracle disagrees
    return status if exact else EXIT_VALIDATION


def _cmd_fn(args) -> int:
    ctx = _load(args)
    lattice = fy.fn_enumerate(ctx, budget=args.budget)
    return _emit(args, lattice, _oracle(args, "compare_fn", ctx, lattice))


def _cmd_reconstruct(args) -> int:
    result, exact = _factorized(args)
    payload = {
        "type": "reconstruction",
        "blocks": len(result.blocks),
        "exact": exact,
        "removed": fio.removals_dict(result.reattached),
    }
    _write(args, fio.emit_json(payload))
    return EXIT_OK if exact else EXIT_VALIDATION


def _cmd_check(args) -> int:
    ctx = _load(args)
    props = fy.CHECKS if args.props is None else [
        p.strip() for p in args.props.split(",") if p.strip()
    ]
    bad = sorted(set(props) - set(fy.CHECKS))
    if bad:
        raise CliError(f"unknown props {bad}; expected a subset of {list(fy.CHECKS)}")

    selected = None  # all of them; indices are read before the enumeration runs
    if args.pairs != "all":
        try:
            selected = [read_natural(s) for s in args.pairs.split(",") if s.strip()]
        except ValueError:
            raise CliError(f"bad --pairs value {args.pairs!r}") from None

    lattice = fy.fn_enumerate(ctx, budget=args.budget)
    if selected is None:
        selected = list(range(len(lattice)))
    out_of_range = [i for i in selected if not 0 <= i < len(lattice)]
    if out_of_range:
        raise CliError(f"pair indices out of range: {out_of_range}")

    _write(args, fio.emit_json(fio.check_report(ctx, lattice, selected, props)))
    return EXIT_OK


# one row per subcommand: its handler, help text, the input suffixes it
# reads and the options it takes besides the path; any other flag exits 1
_SUBCOMMANDS = {
    "lattice": (_cmd_lattice, "concept lattice", ".cxt .csv", "emit out oracle budget frame"),
    "cn": (_cmd_cn, "necessity-closed pairs and atoms", ".cxt", "emit out oracle"),
    "factor": (_cmd_factor, "independent subcontexts and R*", ".cxt", "emit out oracle budget"),
    "fn": (_cmd_fn, "graded necessity-closed pairs", ".csv", "emit out oracle budget frame"),
    "check": (_cmd_check, "run proposition checkers", ".csv", "out budget frame props pairs"),
    "reconstruct": (_cmd_reconstruct, "rebuild the relation from blocks", ".cxt", "out"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of ``_SUBCOMMANDS``, holding its handler and suffixes."""
    parser = _Parser(prog="galois-factor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, suffixes, options) in _SUBCOMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        command_parser.set_defaults(handler=handler, suffixes=suffixes.split())
        command_parser.add_argument(
            "path", help="input context (.cxt for Boolean, .csv for fuzzy)"
        )
        for option in options.split():
            command_parser.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, ContextFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
