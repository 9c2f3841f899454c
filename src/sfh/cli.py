"""Command line front end.

Three subcommands: ``validate`` checks a diagram file, ``compute`` runs the
full homology pipeline, and ``example`` builds one of the packaged example
diagrams.  ``-`` reads the diagram from stdin.

Exit codes: 0 success, 1 invalid or unbalanced diagram (or input that is
not UTF-8), 2 not admissible, 3 not nice, 10 file I/O failure, 11 usage
error.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import shd
from .builders import BUILDERS, build_example
from .diagram import Diagram, InvalidDiagramError, NotBalancedError, balance_report
from .domains import NotAdmissibleError
from .homology import NotNiceError, sfh

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INADMISSIBLE = 2
EXIT_NOT_NICE = 3
EXIT_IO = 10
EXIT_USAGE = 11


class _Parser(argparse.ArgumentParser):
    # argparse reserves exit code 2 for usage errors; we use 2 for
    # inadmissible diagrams, so remap

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> "SystemExit":
    print(f"sfh: error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # stdin's error handler depends on the locale and may pass
            # undecodable bytes through as lone surrogates; decode strictly
            text = sys.stdin.read()
            return text.encode("utf-8", "surrogateescape").decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _fail(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeError as exc:
        raise _fail(EXIT_INVALID, f"cannot decode {path} as UTF-8: {exc.reason} "
                                  f"at byte {exc.start}")


def _load(path: str) -> Diagram:
    text = _read_text(path)
    try:
        d = shd.parse(text)
        d.validate()
    except (shd.ParseError, InvalidDiagramError) as exc:
        raise _fail(EXIT_INVALID, str(exc))
    return d


def _gen_label(gen: tuple[int, ...]) -> str:
    return "+".join(str(v) for v in gen) if gen else "-"


def _cmd_validate(args) -> int:
    d = _load(args.file)
    out = sys.stdout
    print(f"input: {d.name or args.file}", file=out)
    print(f"digest: {shd.digest(d)}", file=out)
    crossings, markers = len(d.crossings), len(d.markers)
    print(f"vertices: {len(d.vertices)} ({crossings} crossings, {markers} markers)",
          file=out)
    kinds = [e.curve for e in d.edges.values()]
    print(f"edges: {len(d.edges)} ({kinds.count('alpha')} alpha, "
          f"{kinds.count('beta')} beta, {kinds.count('bd')} boundary)", file=out)
    print(f"regions: {len(d.regions)}", file=out)
    print(f"euler: {d.euler_characteristic()}", file=out)
    issues = balance_report(d)
    if issues:
        print(f"balanced: no ({'; '.join(issues)})", file=out)
    else:
        print(f"balanced: yes ({d.alpha_count} alpha, {d.beta_count} beta)",
              file=out)
    print("ok", file=out)
    return EXIT_OK


def _cmd_compute(args) -> int:
    d = _load(args.file)
    return _compute(d, args.file, args.format, args.spinc, args.gradings)


def _compute(d: Diagram, label: str, fmt: str, show_spinc: bool,
             show_gradings: bool) -> int:
    diag = sys.stderr if fmt == "tsv" else sys.stdout
    print(f"input: {d.name or label}", file=diag)
    print(f"digest: {shd.digest(d)}", file=diag)
    # sfh() checks balance, admissibility and niceness, in that order
    balanced = f"balanced: yes ({d.alpha_count} alpha, {d.beta_count} beta)"
    try:
        result = sfh(d)
    except NotBalancedError as exc:
        print(f"balanced: no ({'; '.join(exc.problems)})", file=diag)
        raise _fail(EXIT_INVALID, "diagram is not balanced")
    except NotAdmissibleError as exc:
        print(balanced, file=diag)
        print(f"admissible: no (positive periodic domain {exc.witness.describe()})",
              file=diag)
        raise _fail(EXIT_INADMISSIBLE, "diagram is not admissible")
    except NotNiceError as exc:
        print(balanced, "admissible: yes", file=diag, sep="\n")
        print(f"nice: no ({exc})", file=diag)
        raise _fail(EXIT_NOT_NICE, "diagram is not nice")
    print(balanced, "admissible: yes", "nice: yes", file=diag, sep="\n")
    print(f"generators: {result.generator_count}", file=diag)
    print(f"periodic rank: {result.periodic_rank}", file=diag)
    print(f"classes: {len(result.classes)}", file=diag)
    if show_spinc:
        for c in result.classes:
            members = " ".join(_gen_label(m) for m in c.members)
            print(f"spinc {c.id}: {members}", file=diag)
    if show_gradings:
        for c in result.classes:
            pairs = " ".join(f"{_gen_label(m)}={c.gradings[m]}" for m in c.members)
            print(f"gradings {c.id}: {pairs}", file=diag)

    if fmt == "tsv":
        sys.stdout.write(result.render_tsv())
    else:
        for line in result.render_lines():
            print(line)
    return EXIT_OK


def _cmd_example(args) -> int:
    if args.list:
        width = max(len(name) for name in BUILDERS)
        for name in sorted(BUILDERS):
            spec = BUILDERS[name]
            params = " ".join(str(v) for v in spec.defaults)
            head = f"{name:<{width}}  ({params})" if params else f"{name:<{width}}"
            print(f"{head:<{width + 12}}  {spec.summary}")
        return EXIT_OK
    if not args.name:
        raise _fail(EXIT_USAGE, "example name required (or use --list)")
    try:
        d = build_example(args.name, tuple(args.params))
    except ValueError as exc:
        raise _fail(EXIT_USAGE, str(exc))
    if args.emit:
        sys.stdout.write(shd.serialize(d))
        return EXIT_OK
    return _compute(d, args.name, args.format, args.spinc, args.gradings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sfh",
                     description="Sutured Floer homology calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and check a diagram file")
    p.add_argument("file", help="diagram file, or - for stdin")
    p.set_defaults(func=_cmd_validate)

    compute = sub.add_parser("compute", help="compute homology ranks")
    compute.add_argument("file", help="diagram file, or - for stdin")
    compute.set_defaults(func=_cmd_compute)

    example = sub.add_parser("example", help="build a packaged example diagram")
    example.add_argument("name", nargs="?", help="example name (see --list)")
    example.add_argument("params", nargs="*", type=int,
                         help="integer parameters for the example")
    example.add_argument("--list", action="store_true",
                         help="list available examples")
    example.add_argument("--emit", action="store_true",
                         help="print the diagram file instead of computing")
    example.set_defaults(func=_cmd_example)

    # the result options both computing subcommands take
    for p in (compute, example):
        p.add_argument("--spinc", action="store_true",
                       help="list the generators of each class")
        p.add_argument("--gradings", action="store_true",
                       help="list the grading of each generator")
        p.add_argument("--format", choices=("table", "tsv"), default="table",
                       help="result format (tsv moves diagnostics to stderr)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs more than computing a small diagram, and
    # parsing leaves it unchanged, so one process builds it once
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except BrokenPipeError:
        return EXIT_IO
    except InvalidDiagramError as exc:
        raise _fail(EXIT_INVALID, str(exc))


if __name__ == "__main__":
    sys.exit(main())
