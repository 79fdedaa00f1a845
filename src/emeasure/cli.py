"""Command-line interface.

Subcommands: kempner, interval, distance, measure, convergents,
partial-sums, cantor, density, verify-paper. JSON output follows one rule
(`_emit_json`, whose text `convergents` writes row by row): every integer is
a decimal string and every rational is {"num", "den"}, so results survive
64-bit consumers. Exit codes: 0 success, 1 domain error (bad input or usage,
or a file that cannot be read or written), 2 resource error (a depth, size
or work budget; see rationals.ResourceError).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from fractions import Fraction

from . import cantor, cfrac, density, enclosure, kempner, measures, verify
from .rationals import ResourceError, int_str

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2


_quote = json.encoder.encode_basestring_ascii


def _render(obj, indent: str, out: list) -> None:
    """Append the JSON text of obj to out under the CLI's rule: an int (not a
    bool) becomes its decimal string and a Fraction {"num", "den"}; str,
    bool, None, finite floats, lists, tuples and dicts with str keys stay
    JSON, and anything else raises TypeError. Strings are escaped by json
    itself, and the text is laid out as json's indent=2 lays it out,
    `indent` being "\n" and two spaces per level of obj."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out += ('"', int_str(obj), '"')
    elif isinstance(obj, float) and math.isfinite(obj):
        out.append(float.__repr__(obj))
    else:
        if isinstance(obj, Fraction):
            obj = {"num": obj.numerator, "den": obj.denominator}
        elif not isinstance(obj, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(brackets)
            return
        inner = indent + "  "
        sep = brackets[0] + inner
        for item in obj.items() if brackets == "{}" else obj:
            if brackets == "{}":
                key, item = item
                out += (sep, _quote(key), ": ")  # a key that is no str raises TypeError
            else:
                out.append(sep)
            # Str values, most of a big document, are quoted here, not in a call.
            if type(item) is str:
                out.append(_quote(item))
            else:
                _render(item, inner, out)
            sep = "," + inner
        out += (indent, brackets[1])


def _emit_json(obj) -> None:
    """Write obj to stdout as one JSON document (see _render), in one write,
    only once it has been rendered in full; a failure while rendering writes
    nothing."""
    out = []
    _render(obj, "\n", out)
    out.append("\n")
    text = "".join(out)
    # The pieces go before the write encodes the text into bytes of its size.
    del out
    sys.stdout.write(text)


def _rational(flag: str, text: str) -> Fraction:
    """The value of a P or P/Q flag, for integers P and Q. Only integer
    literals are read, so the value has no more digits than the text;
    Fraction(text) would also take an exponent, and build 10^100000000 for
    1e-100000000 before any budget is checked."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except ValueError as exc:
        raise ValueError(f"{flag} takes P or P/Q in integers: {exc}") from None


# ---------------------------------------------------------------- subcommands


def cmd_kempner(args) -> int:
    if args.q is None and not args.oracle_check:
        raise ValueError("kempner requires --q or --oracle-check")
    if args.oracle_check:
        mismatches = kempner.oracle_mismatches(args.max)
        _emit_json({"checked_max": args.max, "mismatches": mismatches})
        return EXIT_OK if not mismatches else EXIT_DOMAIN
    result = kempner.kempner_result(args.q)
    _emit_json(
        {
            "q": result.q,
            "S": result.s,
            "P": result.p,
            "factorization": result.factorization,
        }
    )
    return EXIT_OK


def cmd_interval(args) -> int:
    box = enclosure.interval(args.n)
    _emit_json({"n": args.n, "left": box.left, "right": box.right})
    return EXIT_OK


def cmd_distance(args) -> int:
    r = Fraction(args.p, args.q)
    bounds = [_rational("--bound", text) for text in args.bound or []]
    out = {"r": r, "digits": enclosure.render_distance(r, args.digits), "bounds": []}
    for bound in bounds:
        out["bounds"].append(
            {
                "bound": bound,
                "distance_is": enclosure.compare_distance_to_e(r, bound),
            }
        )
    _emit_json(out)
    return EXIT_OK


def cmd_measure(args) -> int:
    eps = _rational("--eps", args.eps)
    if args.corollary2 is not None:
        _emit_json(measures.corollary2_scan(args.corollary2))
        return EXIT_OK
    if args.compare:
        if args.q is None:
            raise ValueError("--compare requires --q")
        _emit_json(measures.compare_bounds(args.q, eps))
        return EXIT_OK
    if args.p is None or args.q is None:
        raise ValueError("measure requires --p and --q")
    if args.bound == "theorem1":
        verdict = measures.check_theorem1(args.p, args.q)
    elif args.bound == "prime-factor":
        verdict = measures.check_prime_factor_bound(args.p, args.q)
    elif args.bound == "weak-prime":
        verdict = measures.check_weak_prime(args.p, args.q)
    else:  # known
        verdict = measures.check_known(args.p, args.q, eps)
    # .bound and .margin_digits are read here, before anything is written:
    # a bound 1/k! is built, and the margin rendered, only for the output.
    _emit_json(
        {
            name: getattr(verdict, name)
            for name in ("p", "q", "bound_name", "bound", "holds", "margin_digits")
        }
    )
    return EXIT_OK


def cmd_convergents(args) -> int:
    # convergent_texts has checked every row before it returns, and yields
    # each row's texts as they are built. Every value is a digit string, which
    # JSON never escapes: each row is written as text, in the bytes _render
    # gives it in the document's list at indent 2.
    sep = "[\n  "
    for k, (p, q) in enumerate(cfrac.convergent_texts(args.count)):
        sys.stdout.write(
            f'{sep}{{\n    "index": "{k}",\n    "value": {{\n'
            f'      "num": "{p}",\n      "den": "{q}"\n    }}\n  }}'
        )
        sep = ",\n  "
    sys.stdout.write("\n]\n")
    return EXIT_OK


def cmd_partial_sums(args) -> int:
    # Each field is the text of a decimal integer, which csv never quotes:
    # rows are joined text with csv's own terminator.
    rows = cfrac.partial_sum_scan(args.max_n)
    header = ["n", "s_n_num", "s_n_den", "q_n", "full_factorial"]
    if args.check_convergent:
        header.append("is_convergent")
    sys.stdout.write(",".join(header) + "\r\n")
    for record, hit, num, den in cfrac.partial_sum_texts(rows):
        fields = [str(record.n), num, den, den, str(int(record.full_factorial))]
        if args.check_convergent:
            fields.append(str(int(hit)))
        sys.stdout.write(",".join(fields) + "\r\n")
    return EXIT_OK


def _spec_from_args(args) -> cantor.CantorSpec:
    if args.spec_json:
        with open(args.spec_json) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError("the spec must be a JSON object")
        for key in doc:
            if key not in ("a0", "a_table", "b_table", "tail_mode"):
                raise ValueError(f"unknown spec key {key!r}")
        return cantor.CantorSpec(family="custom", **doc)
    family = args.family
    if family.startswith("mask:"):
        mask = tuple(int(ch) for ch in family.removeprefix("mask:"))
        return cantor.masked_unit_family(mask, a0=args.a0)
    if family == "unit":
        return cantor.unit_family(a0=args.a0)
    if family == "complement":
        return cantor.complement_family(a0=args.a0)
    raise ValueError(f"unknown family {family!r}")


def cmd_cantor(args) -> int:
    spec = _spec_from_args(args)
    out = {
        "family": spec.family,
        "a0": spec.a0,
        "partial_sum": cantor.cantor_partial_sum(spec, args.N),
        "N": args.N,
    }
    if args.classify:
        verdict = cantor.classify(spec)
        out["classification"] = verdict.classification
        out["rational_value"] = verdict.rational_value
    _emit_json(out)
    return EXIT_OK


def cmd_density(args) -> int:
    # --workers is accepted for compatibility and has no effect: the report
    # runs in this process.
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    # A frozen dataclass keeps its fields, in order, in its __dict__.
    _emit_json(vars(density.density_report(args.x, csv_path=args.csv)))
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    results = verify.run_all()
    out = {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    if not args.no_timestamp:
        out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name} ({r.seconds:.2f}s)", file=sys.stderr)
    _emit_json(out)
    return EXIT_OK if out["all_passed"] else EXIT_DOMAIN


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emeasure",
        description="Exact-arithmetic toolkit for irrationality measures of e.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kempner", help="S(q), P(q), and the factorization of q")
    p.add_argument("--q", type=int)
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--max", type=int, default=10_000)
    p.set_defaults(fn=cmd_kempner)

    p = sub.add_parser("interval", help="nth interval of the nested construction")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_interval)

    p = sub.add_parser("distance", help="truncated decimal of |e - p/q|")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--digits", type=int, default=5)
    p.add_argument("--bound", action="append", metavar="P/Q")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("measure", help="irrationality-measure verdicts")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument(
        "--bound",
        choices=["theorem1", "prime-factor", "weak-prime", "known"],
        default="theorem1",
    )
    p.add_argument("--eps", default="0", metavar="P/Q")
    p.add_argument("--corollary2", type=int, metavar="N")
    p.add_argument("--compare", action="store_true")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("convergents", help="continued-fraction convergents of e")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(fn=cmd_convergents)

    p = sub.add_parser("partial-sums", help="CSV of partial sums and denominators")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--check-convergent", action="store_true")
    p.set_defaults(fn=cmd_partial_sums)

    p = sub.add_parser("cantor", help="Cantor series sums and classification")
    p.add_argument("--family", default="unit", metavar="unit|complement|mask:BITS")
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--spec-json", metavar="FILE")
    p.set_defaults(fn=cmd_cantor)

    p = sub.add_parser("density", help="range scan of S/P exception counts")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--csv", metavar="FILE")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_DOMAIN
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ResourceError, MemoryError) as exc:
        # str(MemoryError()) is empty.
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
