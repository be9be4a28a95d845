"""Command-line interface.

Subcommands: lattice, cn, factor, fn, check, reconstruct.  Each takes only
the options it reads; any other flag exits 1.  ``--budget`` caps the
closure evaluations of each enumeration behind ``lattice`` (on ``.cxt``
and ``.csv`` input), ``fn`` and ``check``, and of all the block scans of
``factor --emit dot`` together.  Exit status 0 on success, 1 on any validation failure, 2 when
a budget is exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import factorization as fz
from . import fuzzy as fy
from . import io as fio
from . import oracles, order
from .contexts import concepts
from .errors import BudgetExceededError, ContextFormatError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise CliError(message)


# each subcommand takes the path and only the options it reads
_OPTIONS = {
    "emit": dict(choices=["json", "dot"], default="json"),
    "out": dict(metavar="PATH", help="write output here instead of stdout"),
    "oracle": dict(action="store_true", help="cross-check with brute force"),
    "budget": dict(type=int, default=order.DEFAULT_ENUM_BUDGET,
                   help="cap on closure evaluations (default %(default)s)"),
    "frame": dict(metavar="NAME:M", help="fuzzy frame, e.g. godel:4"),
    "props": dict(default="fp1,fp2,fp3,fp4,fp5",
                  help="comma-separated subset of fp1,fp2,fp3,fp4,fp5"),
    "pairs": dict(default="all", help="'all' or comma-separated pair indices"),
}
_SUBCOMMANDS = {
    "lattice": ("concept lattice", "emit out oracle budget frame"),
    "cn": ("necessity-closed pairs and atoms", "emit out oracle"),
    "factor": ("independent subcontexts and R*", "emit out oracle budget"),
    "fn": ("graded necessity-closed pairs", "emit out oracle budget frame"),
    "check": ("run proposition checkers", "out budget frame props pairs"),
    "reconstruct": ("rebuild the relation from blocks", "out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="galois-factor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _SUBCOMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        command_parser.add_argument(
            "path", help="input context (.cxt for Boolean, .csv for fuzzy)"
        )
        for option in options.split():
            command_parser.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def _load_boolean(path: Path):
    return fio.parse_cxt(path.read_text(encoding="utf-8"))


def _load_fuzzy(path: Path, frame: str | None):
    if not frame:
        raise CliError("fuzzy input needs --frame (godel:M, lukasiewicz:M or dprod:M1,M2,M3)")
    return fio.parse_fuzzy_csv(path.read_text(encoding="utf-8"), frame)


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(args, result, oracle_report=None) -> int:
    if args.emit == "dot":
        text = fio.emit_dot(result)
    else:
        text = fio.emit_json(result, oracle_report)
    _write(args, text)
    if oracle_report is not None and not oracle_report.ok:
        print("oracle mismatch detected", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _is_fuzzy_input(path: Path) -> bool:
    if path.suffix == ".cxt":
        return False
    if path.suffix == ".csv":
        return True
    raise CliError(f"cannot tell the input format from {path.suffix!r} (use .cxt or .csv)")


def _cmd_lattice(args) -> int:
    path = Path(args.path)
    if _is_fuzzy_input(path):
        ctx = _load_fuzzy(path, args.frame)
        enumerate_, compare = fy.fuzzy_concepts, oracles.compare_fuzzy_concepts
    else:
        ctx = _load_boolean(path)
        enumerate_, compare = concepts, oracles.compare_concepts
    lattice = enumerate_(ctx, budget=args.budget)
    return _emit(args, lattice, compare(ctx, lattice) if args.oracle else None)


def _cmd_cn(args) -> int:
    ctx = _load_boolean(Path(args.path))
    lattice = fz.cn_enumerate(ctx)
    report = None
    if args.oracle and lattice.materialized:
        report = oracles.compare_cn(ctx, list(lattice))
    elif args.oracle:  # past the atom cutoff only the atoms are there to check
        report = oracles.compare_atoms(ctx, list(lattice.atom_pairs))
    return _emit(args, lattice, report)


def _cmd_factor(args) -> int:
    ctx = _load_boolean(Path(args.path))
    result = fz.factorize(ctx)
    exact = fz.reassemble(result) == result.core
    mask = fz.rstar(result.core) if result.core.attributes else None
    payload = {
        **fio.to_jsonable(result),
        "reconstruction": "exact" if exact else "mismatch",
        "rstar": None if mask is None else fio.to_jsonable(mask)["incidence"],
    }
    report = None
    if args.oracle:
        atom_pairs = [fz.NecessityPair(b.objects, b.attrs) for b in result.blocks]
        report = oracles.compare_atoms(result.core, atom_pairs)
    if args.emit == "dot":
        _write(args, fio.emit_dot(result, args.budget))
    else:
        _write(args, fio.emit_json(payload, report))
    if not exact or (report is not None and not report.ok):
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_fn(args) -> int:
    ctx = _load_fuzzy(Path(args.path), args.frame)
    lattice = fy.fn_enumerate(ctx, budget=args.budget)
    report = oracles.compare_fn(ctx, list(lattice)) if args.oracle else None
    return _emit(args, lattice, report)


def _cmd_reconstruct(args) -> int:
    ctx = _load_boolean(Path(args.path))
    result = fz.factorize(ctx)
    exact = fz.reassemble(result) == result.core
    payload = {
        "type": "reconstruction",
        "blocks": len(result.blocks),
        "exact": exact,
        "removed": fio.removals_dict(result.reattached),
    }
    _write(args, fio.emit_json(payload))
    return EXIT_OK if exact else EXIT_VALIDATION


def _cmd_check(args) -> int:
    ctx = _load_fuzzy(Path(args.path), args.frame)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    known = set(fio.CHECKERS)
    bad = sorted(set(props) - known)
    if bad:
        raise CliError(f"unknown props {bad}; expected a subset of {sorted(known)}")

    lattice = fy.fn_enumerate(ctx, budget=args.budget)
    if args.pairs == "all":
        selected = list(range(len(lattice)))
    else:
        try:
            selected = [int(s) for s in args.pairs.split(",") if s.strip()]
        except ValueError:
            raise CliError(f"bad --pairs value {args.pairs!r}") from None
        out_of_range = [i for i in selected if not 0 <= i < len(lattice)]
        if out_of_range:
            raise CliError(f"pair indices out of range: {out_of_range}")

    _write(args, fio.emit_json(fio.check_report(ctx, lattice, selected, props)))
    return EXIT_OK


_COMMANDS = {
    "lattice": _cmd_lattice,
    "cn": _cmd_cn,
    "factor": _cmd_factor,
    "fn": _cmd_fn,
    "check": _cmd_check,
    "reconstruct": _cmd_reconstruct,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
