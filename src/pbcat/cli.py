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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .baer import cokernel, factorize, kernel
from .core import (
    FinSet,
    InternalContradictionError,
    InvalidSubsetError,
    PBij,
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
    _unambiguous,
    format_set,
    parse_cayley,
    parse_grid,
    parse_pbij,
    serialize_pbij,
)

MAX_SIZE_LIMIT = 6


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation; equal configs must yield byte-identical reports."""

    command: str
    max_size: int = 3
    seed: int = 0
    input_path: str | None = None
    count_only: bool = False
    x: str = ""
    x1: str = ""
    x2: str = ""

    def __post_init__(self):
        if not 0 <= self.max_size <= MAX_SIZE_LIMIT:
            raise ValueError(
                f"max-size must be between 0 and {MAX_SIZE_LIMIT}, got {self.max_size}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _header(cfg: RunConfig) -> list[str]:
    return [
        "pbcat report",
        f"command: {cfg.command}",
        f"max-size: {cfg.max_size}",
        f"seed: {cfg.seed}",
        "",
    ]


def _block(f: PBij, name: str) -> list[str]:
    return serialize_pbij(f, name).rstrip("\n").split("\n") + [""]


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _read_input(cfg: RunConfig) -> str:
    if cfg.input_path is None:
        raise ParseError(0, "this command needs an input file")
    return Path(cfg.input_path).read_text(encoding="utf-8")


def _safe_run_law(name: str, cfg: RunConfig) -> LawResult:
    try:
        return run_law(name, cfg.max_size, cfg.seed)
    except Exception as exc:  # a law that crashes is a failed law
        return LawResult(name, False, 0, f"internal error: {type(exc).__name__}: {exc}")


def _cmd_check_axioms(cfg: RunConfig) -> tuple[list[str], int]:
    lines: list[str] = []
    results = [_safe_run_law(name, cfg) for name in law_names()]
    for r in results:
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.checked} cases)")
        if not r.ok:
            lines.append("counterexample:")
            lines.extend(r.detail.split("\n"))
            lines.append("")
    passed = sum(r.ok for r in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    lines.append(f"result: {verdict} ({passed}/{len(results)} laws)")
    return lines, 0 if verdict == "PASS" else 1


def _cmd_enumerate(cfg: RunConfig) -> tuple[list[str], int]:
    lines: list[str] = []
    code = 0
    for n in range(cfg.max_size + 1):
        X = FinSet(str(i) for i in range(1, n + 1))
        elements = list(enumerate_pbij(X, X))
        idems = sum(1 for m in elements if compose(m, m) == m)
        lines.append(f"|I({n})| = {len(elements)}, idempotents = {idems}")
        formula = inverse_monoid_size(n)
        if len(elements) != formula or idems != 2 ** n:
            lines.append(f"MISMATCH: expected |I({n})| = {formula}, idempotents = {2 ** n}")
            code = 1
        if not cfg.count_only:
            for i, m in enumerate(elements):
                pairs = " ".join(f"{x}->{y}" for x, y in m.items())
                lines.append(f"  m{i} : {pairs or '∅'}")
    return lines, code


def _cmd_kernel(cfg: RunConfig) -> tuple[list[str], int]:
    name, f = parse_pbij(_read_input(cfg))
    k = kernel(f)
    ok = is_kernel_of(k.arrow, f)
    lines = ["input:", *_block(f, name)]
    lines.append(f"kernel object: {format_set(k.object)}")
    lines.extend(_block(k.arrow, f"ker_{name}"))
    lines.append(f"mono: {_flag(k.arrow.is_mono)}")
    lines.append(f"composite-is-zero: {_flag(compose(f, k.arrow).is_zero)}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return lines, 0 if ok else 1


def _cmd_cokernel(cfg: RunConfig) -> tuple[list[str], int]:
    name, f = parse_pbij(_read_input(cfg))
    c = cokernel(f)
    killed = compose(c.arrow, f).is_zero
    ok = (c.arrow.is_epi and killed
          and frozenset(c.object) == f.target._as_set - frozenset(f.im))
    lines = ["input:", *_block(f, name)]
    lines.append(f"cokernel object: {format_set(c.object)}")
    lines.extend(_block(c.arrow, f"coker_{name}"))
    lines.append(f"epi: {_flag(c.arrow.is_epi)}")
    lines.append(f"composite-is-zero: {_flag(killed)}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return lines, 0 if ok else 1


def _cmd_factorize(cfg: RunConfig) -> tuple[list[str], int]:
    name, f = parse_pbij(_read_input(cfg))
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


def _token_set(text: str, label: str) -> FinSet:
    """The set an option names; its tokens must print back unambiguously."""
    try:
        return FinSet(_unambiguous(t, "element") for t in text.split())
    except ValueError as exc:
        raise ParseError(0, f"bad {label}: {exc}") from None


def _cmd_noether(cfg: RunConfig) -> tuple[list[str], int]:
    X = _token_set(cfg.x, "--x")
    X1 = _token_set(cfg.x1, "--x1")
    X2 = _token_set(cfg.x2, "--x2")
    lines = [f"X = {format_set(X)}", f"X1 = {format_set(X1)}", f"X2 = {format_set(X2)}"]
    # noether_first/noether_second raise unless both sides are equal, so
    # one side is computed and printed for both
    if cfg.command == "noether1":
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


def _cmd_grid33(cfg: RunConfig) -> tuple[list[str], int]:
    grid = parse_grid(_read_input(cfg))
    phi, psi = complete_3x3(grid)
    lines = ["completed bottom row:", ""]
    lines.extend(_block(phi, "phi"))
    lines.extend(_block(psi, "psi"))
    lines.append("validation: PASS")
    return lines, 0


def _cmd_wagner_preston(cfg: RunConfig) -> tuple[list[str], int]:
    name, table = parse_cayley(_read_input(cfg))
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


_COMMANDS: dict[str, Callable[[RunConfig], tuple[list[str], int]]] = {
    "check-axioms": _cmd_check_axioms,
    "enumerate": _cmd_enumerate,
    "kernel": _cmd_kernel,
    "cokernel": _cmd_cokernel,
    "factorize": _cmd_factorize,
    "noether1": _cmd_noether,
    "noether2": _cmd_noether,
    "grid33": _cmd_grid33,
    "wagner-preston": _cmd_wagner_preston,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call.

    Building it costs more than answering a typical file request.  argparse
    returns a fresh Namespace per parse and looks up ``sys.stdout`` and
    ``sys.stderr`` only when it prints, so reuse changes no output.
    """
    parser = argparse.ArgumentParser(
        prog="pbcat",
        description="Finite partial bijections: law checking, enumeration, "
                    "kernels and quotients, and semigroup embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-size", type=int, default=3, dest="max_size",
                       help=f"size bound for enumerations (0..{MAX_SIZE_LIMIT})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the sampled law cases above the exhaustive sizes")

    common(sub.add_parser("check-axioms", help="run the named law suite"))
    p = sub.add_parser("enumerate", help="count I(n) and its idempotents")
    common(p)
    p.add_argument("--count-only", action="store_true", dest="count_only",
                   help="suppress the element listings")
    for cmd, txt in (("kernel", "kernel of a morphism file"),
                     ("cokernel", "cokernel of a morphism file"),
                     ("factorize", "mono-epi factorization of a morphism file")):
        p = sub.add_parser(cmd, help=txt)
        common(p)
        p.add_argument("input", help="morphism file")
    for cmd in ("noether1", "noether2"):
        p = sub.add_parser(cmd, help=f"check the {cmd} quotient identity")
        common(p)
        p.add_argument("--x", default="", help="ambient set tokens")
        p.add_argument("--x1", default="", help="first subset tokens")
        p.add_argument("--x2", default="", help="second subset tokens")
    p = sub.add_parser("grid33", help="complete the bottom row of a grid file")
    common(p)
    p.add_argument("input", help="grid file")
    p = sub.add_parser("wagner-preston", help="embed a Cayley-table semigroup")
    common(p)
    p.add_argument("input", help="Cayley table file")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        max_size=args.max_size,
        seed=args.seed,
        input_path=getattr(args, "input", None),
        count_only=getattr(args, "count_only", False),
        x=getattr(args, "x", ""),
        x1=getattr(args, "x1", ""),
        x2=getattr(args, "x2", ""),
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"pbcat: {exc}", file=sys.stderr)
        return 2
    try:
        body, code = _COMMANDS[cfg.command](cfg)
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
    sys.stdout.write("\n".join(_header(cfg) + body) + "\n")
    return code


def run() -> None:
    raise SystemExit(main())
