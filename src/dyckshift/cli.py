"""Command-line interface.

Exit codes: 0 on success, 1 when ``verify`` finds failing checks, 2 on
usage, parse, or domain errors, 141 (128 + SIGPIPE) with nothing on stderr
when standard output closes early, as under ``| head``.  Reports that
involve randomness print the seed they used (default seed: 7).  With
``--json``, output is a single JSON document with sorted keys —
byte-identical across runs for identical arguments and seed.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .coding import DEFAULT_SEED, SAMPLERS
from .measures import (
    LogPair,
    cylinder_mass,
    entropy_report,
    entropy_table,
    mass_length_for_residual,
    minimal_extension_mass,
)
from .words import (
    DyckError,
    Word,
    count_balanced,
    count_language,
    is_balanced,
    minimal_balanced_extensions,
    residue,
    residue_text,
)

if TYPE_CHECKING:
    from fractions import Fraction


def _window(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"window must look like LO:HI, got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window bounds must be integers, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window {text!r} is empty")
    return lo, hi


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _ratio(text: str) -> Fraction:
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction like 1/20, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, sort_keys=True, indent=2))


def _finish(p: argparse.ArgumentParser, func: Callable, alphabet: bool = True, json_help: str | None = None) -> None:
    """Add the flags every subcommand ends with, then its handler."""
    if alphabet:
        p.add_argument("--m", type=int, default=2, help="number of bracket types (default 2)")
        p.add_argument("--allow-m1", action="store_true", help="permit the degenerate single-type alphabet")
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=func)


def _alphabet(args: argparse.Namespace) -> int:
    if args.m < 1:
        raise DyckError(f"need at least one bracket type, got m={args.m}")
    if args.m == 1 and not args.allow_m1:
        raise DyckError("m=1 is the degenerate full-shift case; pass --allow-m1 if you really want it")
    return args.m


def _cmd_reduce(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    w = Word.parse(args.word, m)
    found = residue(w.codes)
    if args.json:
        _emit_json(
            {
                "command": "reduce",
                "m": m,
                "word": w.text(),
                "normal_form": residue_text(found),
                "is_zero": found is None,
                "is_balanced": found == ((), ()),
            }
        )
    else:
        print(residue_text(found))
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    w = Word.parse(args.word, m)
    member = residue(w.codes) is not None
    if args.json:
        _emit_json({"command": "member", "m": m, "word": w.text(), "member": member})
    else:
        print("true" if member else "false")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    if args.length is not None:
        value = count_language(args.length, m)
        what = {"length": args.length}
    else:
        value = count_balanced(args.balanced, m)
        what = {"balanced_pairs": args.balanced}
    if args.json:
        _emit_json({"command": "count", "m": m, "count": value, **what})
    else:
        print(value)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    w = Word.parse(args.word, m)
    value = cylinder_mass(w.codes, m, args.measure)
    text = f"{value.numerator}/{value.denominator}" if value else "0"
    balanced = is_balanced(w) and len(w) > 0
    # (1/(2*sqrt(m)))^|w| is the tilde mass of a balanced word
    closed_form = f"(1/(2*sqrt({m})))^{len(w)}" if balanced and args.measure == "tilde" else None
    if args.json:
        payload = {
            "command": "measure",
            "m": m,
            "measure": args.measure,
            "word": w.text(),
            "value": text,
            "decimal": float(value),
            "balanced": balanced,
        }
        if closed_form:
            payload["balanced_form"] = closed_form
        _emit_json(payload)
    else:
        print(text)
        print(f"# ~ {float(value):.10g}")
        if closed_form:
            print(f"# balanced: equals {closed_form}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    lo, hi = args.window
    sampler = SAMPLERS[args.measure]
    samples = list(sampler(m, lo, hi, seed=args.seed, count=args.count))
    if args.json:
        _emit_json(
            {
                "command": "sample",
                "measure": args.measure,
                "m": m,
                "window": [lo, hi],
                "seed": args.seed,
                "count": args.count,
                "samples": [{"lo": x.lo, "hi": x.hi, "word": x.text()} for x in samples],
            }
        )
    else:
        print(f"# sampler={args.measure} m={m} window={lo}:{hi} seed={args.seed} count={args.count}")
        for x in samples:
            print(f"{x.lo} {x.hi} {x.text()}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    if args.json and args.csv:
        raise DyckError("--csv and --json exclude each other")
    if args.json:
        r = entropy_report(args.n, m)
        _emit_json(
            {
                "n": r.n,
                "H_n": {"log2": str(r.block.log2_coeff), "logm": str(r.block.logm_coeff)},
                "h_n": {"log2": str(r.step.log2_coeff), "logm": str(r.step.logm_coeff)},
                "p_nonneg": str(r.p_nonneg),
                "h_n_nats": r.step.nats(m),
            }
        )
        return 0
    reports = entropy_table(args.n, m)
    if args.csv:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "H_log2", "H_logm", "h_log2", "h_logm", "h_nats", "p_nonneg"])
        for r in reports:
            writer.writerow(
                [r.n, r.block.log2_coeff, r.block.logm_coeff, r.step.log2_coeff,
                 r.step.logm_coeff, f"{r.step.nats(m):.6f}", r.p_nonneg]
            )
        return 0
    # h_n's limit is log 2 + (1/2) log m; the gap to it is (p_nonneg/2) log m
    from fractions import Fraction

    limit = LogPair(Fraction(1), Fraction(1, 2))
    print(f"# m={m}  H_n and h_n exact as p*log2 + q*log{m}; nats rounded")
    print(f"{'n':>3} {'H_n (nats)':>12} {'h_n (nats)':>12} {'p_nonneg':>12} {'gap to limit':>14}")
    for r in reports:
        print(
            f"{r.n:>3} {r.block.nats(m):>12.6f} {r.step.nats(m):>12.6f} "
            f"{str(r.p_nonneg):>12} {(r.step - limit).nats(m):>14.6f}"
        )
    return 0


def _cmd_extensions(args: argparse.Namespace) -> int:
    m = _alphabet(args)
    w = Word.parse(args.word, m)
    max_len = args.max_len if args.max_len is not None else len(w) + 8
    if args.ratio is not None and not args.mass:
        raise DyckError("--ratio needs --mass")
    if args.mass:
        rows = minimal_extension_mass(w, max_len)
        target = cylinder_mass(w.codes, m)
        horizon = None if args.ratio is None else mass_length_for_residual(w, args.ratio)
        if args.json:
            payload = {
                "command": "extensions",
                "m": m,
                "word": w.text(),
                "max_len": max_len,
                "cylinder_mass": f"{target.numerator}/{target.denominator}",
                "rows": [
                    {
                        "total_len": r.total_len,
                        "count": r.count,
                        "added": str(r.added),
                        "partial": str(r.partial),
                        "residual": str(r.residual),
                    }
                    for r in rows
                ],
            }
            if horizon is not None:
                payload["horizon"] = {"ratio": str(args.ratio), "total_len": horizon}
            _emit_json(payload)
        else:
            print(f"# word={w.text()!r} m={m} cylinder mass {target} — completion mass by length")
            print(f"{'len':>5} {'count':>10} {'added':>16} {'partial':>20} {'residual':>20}")
            for r in rows:
                print(
                    f"{r.total_len:>5} {r.count:>10} {str(r.added):>16} "
                    f"{str(r.partial):>20} {str(r.residual):>20}"
                )
            if horizon is not None:
                print(
                    f"# residual first drops below {args.ratio} of the cylinder mass "
                    f"at length {horizon}"
                )
        return 0
    pairs = list(itertools.islice(minimal_balanced_extensions(w, max_len), args.limit + 1))
    truncated_listing = len(pairs) > args.limit
    del pairs[args.limit:]
    if args.json:
        _emit_json(
            {
                "command": "extensions",
                "m": m,
                "word": w.text(),
                "max_len": max_len,
                "limit": args.limit,
                "listing_truncated": truncated_listing,
                "pairs": [{"left": l.text(), "right": r.text()} for l, r in pairs],
            }
        )
    else:
        print(f"# word={w.text()!r} m={m} minimal balanced completions up to length {max_len}")
        for left, right in pairs:
            l_text = left.text() or "Λ"
            r_text = right.text() or "Λ"
            print(f"{l_text} | {r_text}")
        if truncated_listing:
            print(f"# listing capped at {args.limit}; raise --limit for more")
    return 0


# The keys of ``verification.SUITES`` (a test holds them equal), named here
# so that only ``verify`` loads the suite.
_SUITES = ("exact", "sampling", "all")


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import SUITES, run_check

    # The suite pins m=2 (with m=3 sub-checks where stated); the text form is TAP.
    results = [run_check(key, args.seed) for key in SUITES[args.suite]]
    failed = sum(1 for r in results if not r.ok)
    if args.json:
        _emit_json(
            {
                "command": "verify",
                "suite": args.suite,
                "m": 2,
                "seed": args.seed,
                "failed": failed,
                "results": [
                    {
                        "key": r.key,
                        "title": r.title,
                        "ok": r.ok,
                        "observed": r.observed,
                        "expected": r.expected,
                        "elapsed_s": round(r.elapsed, 3),
                        "detail": list(r.detail),
                    }
                    for r in results
                ],
            }
        )
    else:
        print(f"# suite={args.suite} m=2 seed={args.seed}")
        print(f"1..{len(results)}")
        for i, r in enumerate(results, start=1):
            status = "ok" if r.ok else "not ok"
            print(f"{status} {i} - {r.key}: {r.observed} (expected: {r.expected}) [{r.elapsed:.2f}s]")
            for d in r.detail:
                print(f"# {d}")
        print(f"# failed {failed} of {len(results)}")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckshift",
        description="Bracket-matching subshifts: exact measures, entropy, and samplers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("reduce", help="reduce a word to its normal form")
    p.add_argument("word", nargs="?", default="", help="tokens like 'a1 b2' (empty allowed)")
    _finish(p, _cmd_reduce)

    p = commands.add_parser("member", help="test language membership")
    p.add_argument("word", nargs="?", default="")
    _finish(p, _cmd_member)

    p = commands.add_parser("count", help="count language or balanced words")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--length", type=int, help="count language words of this length")
    group.add_argument("--balanced", type=int, help="count balanced words with this many pairs")
    _finish(p, _cmd_count)

    p = commands.add_parser("measure", help="exact cylinder mass of a word")
    p.add_argument("word", nargs="?", default="")
    p.add_argument(
        "--measure",
        choices=tuple(SAMPLERS),
        default="tilde",
        help="the measure that prices the cylinder (default tilde)",
    )
    _finish(p, _cmd_measure)

    p = commands.add_parser("sample", help="draw seeded windows from a sampler")
    p.add_argument("--measure", choices=tuple(SAMPLERS), default="tilde")
    p.add_argument("--window", type=_window, required=True, metavar="LO:HI")
    p.add_argument("--count", type=_nonnegative, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
    _finish(p, _cmd_sample)

    p = commands.add_parser("entropy", help="exact block/step entropy table")
    p.add_argument("--n", type=_nonnegative, required=True, help="largest block length")
    p.add_argument("--csv", action="store_true", help="emit the table as CSV")
    _finish(p, _cmd_entropy, json_help="emit the single row for --n")

    p = commands.add_parser("extensions", help="minimal balanced completions of a word")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--max-len", type=int, help="largest completed length (default |word|+8)")
    p.add_argument("--mass", action="store_true", help="show the completion-mass table")
    p.add_argument(
        "--ratio",
        type=_ratio,
        help="with --mass, report the first length whose residual is within this "
        "fraction of the cylinder mass, e.g. 1/20",
    )
    p.add_argument("--limit", type=_nonnegative, default=50, help="cap on listed pairs")
    _finish(p, _cmd_extensions)

    p = commands.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
    _finish(p, _cmd_verify, alphabet=False)

    return parser


def _fuse_window_flag(argv: Sequence[str]) -> list[str]:
    # argparse reads "-3:3" as an option flag; fold the window value into
    # --window=... so negative bounds work the obvious way.
    out: list[str] = []
    for token in argv:
        if out[-1:] == ["--window"]:
            out[-1] = f"--window={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    raw = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_fuse_window_flag(raw))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    # Exact results print in full.  Python 3.10.7+ caps int-to-text
    # conversion at 4300 digits by default; the cap stays on while the
    # arguments are parsed above and is lifted only for the command.
    digit_cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digit_cap:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe: standard output now points at devnull, so the
        # interpreter's final flush finds no pipe and stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DyckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    raise SystemExit(main())
