"""Command-line front end.

Every command prints one deterministic report: a fixed header (command,
max-size, seed) followed by a command-specific body.  Identical
configurations produce byte-identical output.  Exit codes are a contract:
0 all checks passed, 1 a mathematical violation was found (failed law,
failed post-verification, rejected table), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Sequence

from .baer import cokernel, factorize, kernel
from .core import (
    FinSet,
    InternalContradictionError,
    InvalidSubsetError,
    PBij,
    _split_set,
    compose,
    enumerate_pbij,
    identity,
    inverse,
)
from .exact import DiagramInvalidError, complete_3x3, is_kernel_of
from .exact import noether_first, noether_second
from .laws import LawResult, law_names, run_law
from .monoid import NotInverseSemigroupError, inverse_monoid_size, wagner_preston
from .textio import (
    ParseError,
    _check_elements,
    format_set,
    parse_cayley,
    parse_grid,
    parse_pbij,
    serialize_pbij,
)

MAX_SIZE_LIMIT = 6


def _int(text: str) -> int:
    """``int(text)``, failing in argparse's words for a bad ``type=int``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _max_size(text: str) -> int:
    value = _int(text)
    if not 0 <= value <= MAX_SIZE_LIMIT:
        raise argparse.ArgumentTypeError(
            f"max-size must be between 0 and {MAX_SIZE_LIMIT}, got {value}")
    return value


def _seed(text: str) -> int:
    value = _int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _token_set(text: str) -> FinSet:
    """The set an option names; its tokens must print back unambiguously."""
    try:
        return _split_set(_check_elements(text.split()))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _header(args: argparse.Namespace) -> list[str]:
    return [
        "pbcat report",
        f"command: {args.command}",
        f"max-size: {args.max_size}",
        f"seed: {args.seed}",
        "",
    ]


def _block(f: PBij, name: str) -> list[str]:
    """The serialized morphism and a blank line, as two report entries."""
    return [serialize_pbij(f, name).rstrip("\n"), ""]


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _read_input(args: argparse.Namespace) -> str:
    """The input file's text, as ``open(path, encoding="utf-8").read()``
    returns it.

    The bytes are decoded in one call, as text mode's ``read()`` decodes
    them, so a decode error names the same byte at the same position.  Then
    ``"\\r\\n"`` and lone ``"\\r"`` become ``"\\n"``, as text mode's universal
    newlines turn them.  Reading bytes skips text mode's incremental decoder
    and newline translator.
    """
    with open(args.input, "rb") as handle:
        data = handle.read()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _safe_run_law(name: str, args: argparse.Namespace) -> LawResult:
    try:
        return run_law(name, args.max_size, args.seed)
    except Exception as exc:  # a law that crashes is a failed law
        return LawResult(name, False, 0, f"internal error: {type(exc).__name__}: {exc}")


def _cmd_check_axioms(args: argparse.Namespace) -> tuple[list[str], int]:
    lines: list[str] = []
    results = [_safe_run_law(name, args) for name in law_names()]
    for r in results:
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.checked} cases)")
        if not r.ok:
            lines.append("counterexample:")
            lines.append(r.detail)
            lines.append("")
    passed = sum(r.ok for r in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    lines.append(f"result: {verdict} ({passed}/{len(results)} laws)")
    return lines, 0 if verdict == "PASS" else 1


def _cmd_enumerate(args: argparse.Namespace) -> tuple[list[str], int]:
    lines: list[str] = []
    code = 0
    for n in range(args.max_size + 1):
        X = FinSet(str(i) for i in range(1, n + 1))
        elements = list(enumerate_pbij(X, X))
        idems = sum(1 for m in elements if compose(m, m) == m)
        lines.append(f"|I({n})| = {len(elements)}, idempotents = {idems}")
        formula = inverse_monoid_size(n)
        if len(elements) != formula or idems != 2 ** n:
            lines.append(f"MISMATCH: expected |I({n})| = {formula}, idempotents = {2 ** n}")
            code = 1
        if not args.count_only:
            for i, m in enumerate(elements):
                pairs = " ".join(map("->".join, m.items()))
                lines.append(f"  m{i} : {pairs or '∅'}")
    return lines, code


def _cmd_kernel(args: argparse.Namespace) -> tuple[list[str], int]:
    name, f = parse_pbij(_read_input(args))
    k = kernel(f)
    ok = is_kernel_of(k, f)
    lines = ["input:", *_block(f, name)]
    lines.append(f"kernel object: {format_set(k.source)}")
    lines.extend(_block(k, f"ker_{name}"))
    lines.append(f"mono: {_flag(k.is_mono)}")
    lines.append(f"composite-is-zero: {_flag(compose(f, k).is_zero)}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return lines, 0 if ok else 1


def _cmd_cokernel(args: argparse.Namespace) -> tuple[list[str], int]:
    name, f = parse_pbij(_read_input(args))
    c = cokernel(f)
    killed = compose(c, f).is_zero
    ok = c.is_epi and killed and c.target == f.target.difference(f.im)
    lines = ["input:", *_block(f, name)]
    lines.append(f"cokernel object: {format_set(c.target)}")
    lines.extend(_block(c, f"coker_{name}"))
    lines.append(f"epi: {_flag(c.is_epi)}")
    lines.append(f"composite-is-zero: {_flag(killed)}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return lines, 0 if ok else 1


def _cmd_factorize(args: argparse.Namespace) -> tuple[list[str], int]:
    name, f = parse_pbij(_read_input(args))
    fact = factorize(f)
    recomposed = compose(fact.mono, fact.epi) == f
    split = compose(fact.epi, compose(inverse(f), fact.mono)) == identity(fact.via)
    ok = recomposed and split and fact.mono.is_mono and fact.epi.is_epi
    lines = ["input:", *_block(f, name)]
    lines.append(f"via object: {format_set(fact.via)}")
    lines.extend(_block(fact.epi, f"epi_{name}"))
    lines.extend(_block(fact.mono, f"mono_{name}"))
    lines.append(f"mono: {_flag(fact.mono.is_mono)}")
    lines.append(f"epi: {_flag(fact.epi.is_epi)}")
    lines.append(f"recomposes: {_flag(recomposed)}")
    lines.append(f"split-witness: {_flag(split)}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return lines, 0 if ok else 1


def _cmd_noether(args: argparse.Namespace) -> tuple[list[str], int]:
    X, X1, X2 = args.x, args.x1, args.x2
    lines = [f"X = {format_set(X)}", f"X1 = {format_set(X1)}", f"X2 = {format_set(X2)}"]
    # noether_first/noether_second raise unless both sides are equal, so
    # one side is computed and printed for both
    if args.command == "noether1":
        iso = noether_first(X, X1, X2)
        left_name, right_name = "(X - X1) - (X2 - X1)", "X - X2"
        side = X.difference(X2)
    else:
        iso = noether_second(X, X1, X2)
        left_name, right_name = "X2 - (X1 ∩ X2)", "(X1 ∪ X2) - X1"
        side = X2.difference(X1)
    lines.append(f"left  {left_name} = {format_set(side)}")
    lines.append(f"right {right_name} = {format_set(side)}")
    lines.append("verdict: EQUAL")
    lines.append("")
    lines.extend(_block(iso, "iso"))
    lines.append("result: PASS")
    return lines, 0


def _cmd_grid33(args: argparse.Namespace) -> tuple[list[str], int]:
    grid = parse_grid(_read_input(args))
    phi, psi = complete_3x3(grid)
    lines = ["completed bottom row:", ""]
    lines.extend(_block(phi, "phi"))
    lines.extend(_block(psi, "psi"))
    lines.append("validation: PASS")
    return lines, 0


def _cmd_wagner_preston(args: argparse.Namespace) -> tuple[list[str], int]:
    name, table = parse_cayley(_read_input(args))
    lines = [f"table {name}: {' '.join(table.elements) or '∅'}"]
    try:
        theta = wagner_preston(table)
    except NotInverseSemigroupError as exc:
        report = exc.report
        lines.append(f"associative: {_flag(report.associative)}")
        lines.append(f"regular: {_flag(report.regular)}")
        lines.append(f"idempotents-commute: {_flag(report.idempotents_commute)}")
        lines.append(f"unique-inverses: {_flag(report.inverses_unique)}")
        for witness in report.counterexamples:
            lines.append(f"witness: {' '.join(witness)}")
        lines.append("result: FAIL not an inverse semigroup")
        return lines, 1
    lines.extend(["associative: true", "regular: true",
                  "idempotents-commute: true", "unique-inverses: true", ""])
    for a in table.elements:
        lines.extend(_block(theta[a], f"theta_{a}"))
    products = len(table.elements) ** 2
    lines.append(f"embedding: injective homomorphism verified ({products} products)")
    lines.append("result: PASS")
    return lines, 0


# what main reads an argv of one command from: the namespace argparse gives
# for the command's operands alone, the operands' names, and each spelling
# of each option that takes one value, mapped to its argparse Action
_Table = tuple[argparse.Namespace, tuple[str, ...], dict[str, argparse.Action]]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                        dict[str, _Table]]:
    """The one parser of this process, its table of commands, and the table
    ``main`` reads each command's argvs from, built on the first ``main``
    call.

    The table of commands is the ``choices`` of the subparsers action: each
    command's own parser, which binds its handler as ``run`` and checks its
    option values as argparse reads them.  ``main`` hands it the rest of an
    argv that starts with its name, so such a request is parsed once.

    Each command's argv table is built from argparse's own declarations.
    Its namespace is the one the command's parser returns for an argv of
    operands alone, with each operand's name standing in for its value, so
    every option holds the value argparse gives it when the argv names
    none.  Its operands are ``input`` for a file command and none for the
    others.  Its options are the Actions that the command's ``add_argument``
    calls returned, for each option that takes exactly one value, under
    each of its option strings; ``main`` reads only their ``dest`` and
    ``type``.  So no default, type or spelling is written down twice.

    Building it costs more than answering a typical file request.  argparse
    returns a fresh Namespace per parse and looks up ``sys.stdout`` and
    ``sys.stderr`` only when it prints, so reuse changes no output.

    Every parser formats at 78 columns, the width argparse picks when
    ``COLUMNS`` is unset and no terminal is attached.  Otherwise argparse
    would wrap usage errors and help to the terminal, so the same argv
    would print different bytes in different windows.
    """
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="pbcat",
        description="Finite partial bijections: law checking, enumeration, "
                    "kernels and quotients, and semigroup embeddings.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    operands: dict[str, tuple[str, ...]] = {}
    options: dict[str, dict[str, argparse.Action]] = {}

    def option(name: str, *flags: str, **kwargs) -> None:
        action = sub.choices[name].add_argument(*flags, **kwargs)
        if action.nargs is None:  # one value, not a flag
            options[name].update(dict.fromkeys(action.option_strings, action))

    def command(name: str, run: Callable[[argparse.Namespace], tuple[list[str], int]],
                text: str, operand: str | None = None) -> None:
        p = sub.add_parser(name, help=text, formatter_class=formatter)
        p.set_defaults(run=run)
        options[name] = {}
        option(name, "--max-size", type=_max_size, default=3,
               help=f"size bound for enumerations (0..{MAX_SIZE_LIMIT})")
        option(name, "--seed", type=_seed, default=0,
               help="seed for the sampled law cases above the exhaustive sizes")
        if operand is not None:
            p.add_argument("input", help=operand)
        operands[name] = () if operand is None else ("input",)

    command("check-axioms", _cmd_check_axioms, "run the named law suite")
    command("enumerate", _cmd_enumerate, "count I(n) and its idempotents")
    option("enumerate", "--count-only", action="store_true",
           help="suppress the element listings")
    for name, run, text in (
            ("kernel", _cmd_kernel, "kernel of a morphism file"),
            ("cokernel", _cmd_cokernel, "cokernel of a morphism file"),
            ("factorize", _cmd_factorize, "mono-epi factorization of a morphism file")):
        command(name, run, text, "morphism file")
    for name in ("noether1", "noether2"):
        command(name, _cmd_noether, f"check the {name} quotient identity")
        for flag, text in (("--x", "ambient set tokens"), ("--x1", "first subset tokens"),
                           ("--x2", "second subset tokens")):
            option(name, flag, type=_token_set, default=FinSet(), help=text)
    command("grid33", _cmd_grid33, "complete the bottom row of a grid file", "grid file")
    command("wagner-preston", _cmd_wagner_preston, "embed a Cayley-table semigroup",
            "Cayley table file")
    tables = {name: (sub.choices[name].parse_args(names), names, options[name])
              for name, names in operands.items()}
    return parser, sub.choices, tables


def _read_table(table: _Table, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace argparse returns for ``tokens``, the argv after a
    command name, when they read as ``(--OPT VALUE)* OPERAND*`` from the
    command's table; otherwise None.

    Each ``--OPT`` must be spelled as declared and given at most once, and
    be followed by a value that does not start with ``-``; each value must
    pass its option's ``type``, which converts the values in argv order, as
    argparse does.  Then come exactly the command's operands, none starting
    with ``-``.  argparse reads every such token as the value or operand it
    stands in, so the namespace is the table's with them filled in.
    """
    template, names, options = table
    values: dict[str, object] = {}
    i = 0
    while i < len(tokens) and (action := options.get(tokens[i])) is not None:
        if action.dest in values or i + 1 == len(tokens) or tokens[i + 1].startswith("-"):
            return None
        try:
            values[action.dest] = action.type(tokens[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse catches
            return None
        i += 2
    given = tokens[i:]
    if len(given) != len(names) or any(token.startswith("-") for token in given):
        return None
    values.update(zip(names, given))
    args = argparse.Namespace(**vars(template))
    vars(args).update(values)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Answer one request; returns the exit code.

    An argv that starts with a command name and reads from the command's
    table (see ``_read_table``) is answered from the namespace read there,
    and argparse does not run.  Any other argv that starts with a command
    name is parsed once, by that command's own parser, which prints the
    usage, help or error that ``parse_args`` would; arguments it leaves
    over are refused by the top-level parser in the words ``parse_args``
    uses.  Any other argv goes through the top-level parser, which prints
    its usage or help and exits.
    """
    parser, commands, tables = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    table = tables.get(name)
    if table is None:
        args = parser.parse_args(argv)
    else:
        args = _read_table(table, argv[1:])
        if args is None:
            args, extra = commands[name].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = name
    try:
        body, code = args.run(args)
    except ParseError as exc:
        print(f"pbcat: parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidSubsetError as exc:
        print(f"pbcat: invalid subset: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"pbcat: cannot read input: {exc}", file=sys.stderr)
        return 2
    except DiagramInvalidError as exc:
        print(f"pbcat: invalid diagram: {exc}", file=sys.stderr)
        return 1
    except InternalContradictionError as exc:
        print(f"pbcat: internal contradiction: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(_header(args) + body) + "\n")
    return code


def run() -> None:
    raise SystemExit(main())
