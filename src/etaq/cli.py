"""Command-line interface.

Subcommands: expand, eta-order, cusp-expand, search, dual-pairs,
second-derivative, verify.  Output is deterministic for fixed flags
(collections sorted, rationals rendered p/q); --json switches from the
text rendering to machine-readable JSON, which is exactly
json.dumps(payload, indent=2, sort_keys=True) plus a newline (ASCII,
keys sorted) for payloads whose keys are strings, which all of etaq's
are, so consumers may diff it.  Exit codes: 0 success or
verified, 1 verification failure (counterexample in the output),
2 usage error, 3 internal error (a failed certificate: a claim the
search had selected did not survive its exact series check; a series
computation that ran out of known precision; or any other arithmetic
fault), 141 when the reader closed stdout before the output ended
(etaq ... | head), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache

# Module level holds what parsing, error mapping, expand --eta and
# eta-order run; a handler that needs eisenstein, cusps or search
# imports it where it runs, so a command never loads what it never calls.
from .arith import prime_power
from .eta import parse_eta
from .series import SeriesDomainError

DEFAULT_LEVELS = "2,4,8,16,32,3,9,27,5,25,7,49"
DEFAULT_WEIGHTS = "2,4,6"


class UsageError(Exception):
    pass


# The most units a count flag accepts.  It bounds the work one call can
# ask for: an expansion's time grows about quadratically with its length.
MAX_COUNT = 100_000

# The largest weight accepted, by --weight, by each --weights entry and
# as the weight of an --element.  An expansion's coefficients grow with
# the weight: expand --element 'E200(1)' --prec 100000 takes about 4 s
# and 520 MB, against 1.4 s and 270 MB at weight 100 (README, "Command
# line").
MAX_WEIGHT = 200


def _count_arg(unit: str):
    """argparse type for a count of units (q-exponents, samples) from 1
    to MAX_COUNT."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number of {unit}s, got {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1 {unit}, got {value}")
        if value > MAX_COUNT:
            raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT} {unit}s, got {value}")
        return value

    return parse


_prec_arg = _count_arg("q-exponent")


def _int_arg(noun: str, valid, rule: str, maximum: int | None = None):
    """argparse type for one integer that ``valid`` accepts, at most
    ``maximum`` if given; ``rule`` describes the accepted values in the
    error message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a {noun}, got {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"a {noun} must be {rule}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"a {noun} must be at most {maximum}, got {value}")
        return value

    return parse


_level_arg = _int_arg("level", lambda n: n >= 1, "at least 1")
_weight_arg = _int_arg("weight", lambda k: k >= 2 and k % 2 == 0, "even and at least 2", MAX_WEIGHT)


def _list_arg(noun: str, minimum: int, valid, rule: str, maximum: int | None = None):
    """argparse type for a nonempty comma-separated list of integers, each
    from ``minimum`` to ``maximum`` (if given) and accepted by ``valid``
    (described by ``rule``)."""

    def parse(text: str) -> list[int]:
        try:
            values = [int(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}s, got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"must name at least one {noun}, got {text!r}")
        if min(values) < minimum:
            raise argparse.ArgumentTypeError(
                f"every {noun} must be at least {minimum}, got {min(values)}")
        if maximum is not None and max(values) > maximum:
            raise argparse.ArgumentTypeError(
                f"every {noun} must be at most {maximum}, got {max(values)}")
        bad = [v for v in values if not valid(v)]
        if bad:
            raise argparse.ArgumentTypeError(f"every {noun} must be {rule}, got {bad[0]}")
        return values

    return parse


def _emit(payload, args) -> None:
    if args.json:
        print(_json(payload))
    else:
        _emit_text(payload)


_ascii = json.encoder.encode_basestring_ascii
_compact = json.JSONEncoder(separators=(",", ":")).encode
_SCALARS = {True: "true", False: "false", None: "null"}


def _json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for str-keyed payloads,
    byte for byte, with the C encoder doing the work that json does in
    Python whenever indent is set: every string goes through
    encode_basestring_ascii, and a list of nonempty lists of plain ints
    (the coeffs triples) is encoded compactly in one call and then laid
    out (its text holds no string, so "," and "],[" only separate)."""
    if isinstance(value, str):
        return _ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= {list, tuple} and all(value) and {type(y) for x in value for y in x} == {int}:
            deeper = inner + "  "
            rows = _compact(value)[2:-2].replace(",", ",\n" + deeper)
            rows = rows.replace(f"],\n{deeper}[", f"\n{inner}],\n{inner}[\n{deeper}")
            return f"[\n{inner}[\n{deeper}{rows}\n{inner}]\n{indent}]"
        return "[\n" + ",\n".join(inner + _json(x, inner) for x in value) + f"\n{indent}]"
    if value is None or isinstance(value, bool):
        return _SCALARS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    return _compact(value)


def _emit_text(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent + "  ")
                print()
            else:
                print(f"{indent}{value}")
    else:
        print(f"{indent}{payload}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    if args.eta:
        source = parse_eta(args.eta, args.level)
        weight, scale = str(source.weight()), 24
    elif args.element:
        source = _parse_element(args.element, args.level)
        weight, scale = source.k, 1
    else:
        raise UsageError("expand needs --eta or --element")
    series = source.expansion(args.prec)
    payload = {
        "input": source.render(),
        "level": source.level,
        "weight": weight,
        "series": series.render_text(),
        "scale": scale,
    }
    if args.json:
        payload["coeffs"] = series.to_json_triples(scale)
    _emit(payload, args)
    return 0


def cmd_eta_order(args) -> int:
    quotient = parse_eta(args.eta, args.level)
    report = quotient.is_modular_on_gamma0()
    payload = {
        "input": quotient.render(),
        "level": quotient.level,
        "weight": str(quotient.weight()),
        "orders": {str(c): str(v) for c, v in sorted(report.order_map.items())},
        "conditions": {name: ok for name, ok in report.conditions},
        "holomorphic_at_cusps": report.holomorphic_at_cusps,
        "modular": report.is_modular,
    }
    if prime_power(quotient.level) is not None:
        payload["total_cusp_order"] = str(quotient.total_cusp_order())
    _emit(payload, args)
    return 0


def _parse_cusp(text: str, level: int):
    from .cusps import Cusp

    try:
        a, c = (int(x) for x in text.split("/"))
    except ValueError:
        raise UsageError(f"bad cusp {text!r}: expected a/c with integers a and c") from None
    try:
        return Cusp(a, c, level)
    except ValueError as exc:
        raise UsageError(f"bad cusp {text!r}: {exc}") from exc


def _parse_element(text: str, level: int | None):
    """The --element combination, of weight at most MAX_WEIGHT."""
    from .eisenstein import parse_element

    element = parse_element(text, level)
    if element.k > MAX_WEIGHT:
        raise UsageError(f"the weight of --element must be at most {MAX_WEIGHT}, got {element.k}")
    return element


def cmd_cusp_expand(args) -> int:
    from .cusps import expansion_at_cusp

    element = _parse_element(args.element, args.level)
    cusp = _parse_cusp(args.cusp, args.level)
    series = expansion_at_cusp(element, cusp, args.prec).series
    payload = {
        "element": element.render(),
        "cusp": cusp.label(),
        "width": cusp.width,
        "cyclotomic_order": series.cyc_order,
        "series": series.render_text(var="w"),
    }
    try:
        payload["order"], lead = series.leading()
    except SeriesDomainError:  # zero below prec
        payload["order"] = f"zero to precision {args.prec}"
    else:
        payload["leading_coeff"] = lead.render()
    _emit(payload, args)
    return 0


def cmd_search(args) -> int:
    from .search import enumerate_eta_in_e

    pp = prime_power(args.level)
    if pp is None:
        raise UsageError(f"search level must be a prime power, got {args.level}")
    p, m = pp
    if m == 0:
        p = 2
    result = enumerate_eta_in_e(args.weight, p, m)
    if args.json:
        payload = result.to_json()
        payload["count"] = len(result.pairs)
        _emit(payload, args)
    else:
        print(f"eta quotients in the weight-{args.weight} span at level {args.level}: "
              f"{len(result.pairs)}")
        for sp in result.pairs:
            flag = "" if sp.eta_primitive else "   [eta-imprimitive]"
            print(f"  {sp.eta.render():48s} = {sp.element.render()}"
                  f"   (certified through q^{sp.certified_through}){flag}")
    return 0


def cmd_dual_pairs(args) -> int:
    from .search import dual_pairs_prime_power

    pairs = dual_pairs_prime_power()
    if args.json:
        payload = {"count": len(pairs), "pairs": [dp.to_json() for dp in pairs]}
        _emit(payload, args)
    else:
        print(f"weight-(0,2) derivative pairs at prime-power levels: {len(pairs)}")
        for i, dp in enumerate(pairs, 1):
            print(f"  {i:2d}. f = {dp.f.render()}")
            print(f"      D(f) = {dp.scalar} * {dp.g.render()}")
    return 0 if len(pairs) == 12 else 1


def cmd_second_derivative(args) -> int:
    from .search import classify_second_derivatives_level4

    solutions = classify_second_derivatives_level4()
    if args.json:
        payload = {
            "count": len(solutions),
            "solutions": [sol.to_json() for sol in solutions],
        }
        _emit(payload, args)
    else:
        print(f"level-4 quotients with eta-quotient second derivative: {len(solutions)}")
        for sol in solutions:
            tag = "primitive" if sol.primitive else "rescaled"
            print(f"  r={sol.r}  f = {sol.f.render()}")
            print(f"      D^2(f) = {sol.scalar} * f * {sol.target.render()}   [{tag}]")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_identities(args) -> tuple[dict, bool]:
    from .eisenstein import verify_identities

    checks = verify_identities(args.prec)
    ok = all(c.status in ("ok", "remainder") for c in checks)
    return {"identities": [c.to_json() for c in checks]}, ok


def _suite_classification(args) -> tuple[dict, bool]:
    from .search import verify_classification_lists

    report = verify_classification_lists()
    return {"classification": report.to_json()}, report.ok


def _suite_order_bounds(args) -> tuple[dict, bool]:
    from .cusps import check_order_bound
    from .eisenstein import random_p_element

    failures = []
    checked = 0
    for k in args.weights:
        for n in args.levels:
            p, m = prime_power(n)
            rng = random.Random(f"{args.seed}:{k}:{n}")
            for _ in range(args.samples):
                element = random_p_element(rng, k, p, m)
                report = check_order_bound(element)
                checked += 1
                if not report.ok:
                    failures.append(report.to_json())
    payload = {
        "suite": "maingen",
        "samples": args.samples,
        "seed": args.seed,
        "weights": args.weights,
        "levels": args.levels,
        "checked": checked,
        "failures": failures,
    }
    return payload, not failures


def _suite_second_derivative(args) -> tuple[dict, bool]:
    from .search import classify_second_derivatives_level4

    # verifies the published uniqueness claim: the only solution family
    # should be r = (-4, 2, 0) and its rescalings.  The claim fails:
    # the extra certified solutions are emitted as counterexamples.
    solutions = classify_second_derivatives_level4()
    published = {(-4, 2, 0), (0, -4, 2)}
    extras = [sol.to_json() for sol in solutions if sol.r not in published]
    payload = {
        "solutions": [sol.to_json() for sol in solutions],
        "published_family": [list(r) for r in sorted(published)],
        "counterexamples": extras,
    }
    return payload, not extras


def cmd_verify(args) -> int:
    suites = {
        "identities": _suite_identities,
        "corollaries": _suite_classification,
        "maingen": _suite_order_bounds,
        "second-derivative": _suite_second_derivative,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    if "maingen" in names and 2 in args.weights and 1 in args.levels:
        raise UsageError("--weights 2 with --levels 1: the weight-2 space at level 1 is trivial")
    payload = {}
    all_ok = True
    for name in names:
        part, ok = suites[name](args)
        payload.update(part)
        payload[f"{name}_ok"] = ok
        all_ok = all_ok and ok
    payload["ok"] = all_ok
    _emit(payload, args)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# Built once per process: parse_args keeps no state between calls, and
# argparse looks up sys.stdout and sys.stderr only when it prints.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaq",
        description="Exact q-series computations for eta quotients and "
        "Eisenstein series on Gamma0(N).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("expand", help="q-expansion of an eta quotient or Eisenstein element")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--eta", help="eta quotient, e.g. 'eta(2)^20*eta(1)^-8*eta(4)^-8'")
    source.add_argument("--element", help="Eisenstein combination, e.g. '8*E2(1)-32*E2(4)'")
    p.add_argument("--level", type=_level_arg, default=None)
    p.add_argument("--prec", type=_prec_arg, default=10, help="q-steps from the leading exponent")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("eta-order", help="cusp orders and modularity of an eta quotient")
    p.add_argument("--eta", required=True)
    p.add_argument("--level", type=_level_arg, default=None)
    common(p)
    p.set_defaults(func=cmd_eta_order)

    p = sub.add_parser("cusp-expand", help="expansion of an Eisenstein element at a cusp")
    p.add_argument("--element", required=True)
    p.add_argument("--level", type=_level_arg, required=True)
    p.add_argument("--cusp", required=True, help="cusp a/c with c | level")
    p.add_argument("--prec", type=_count_arg("local-variable exponent"), default=10,
                   help="number of local-variable exponents")
    common(p)
    p.set_defaults(func=cmd_cusp_expand)

    p = sub.add_parser("search", help="eta quotients in the weight-k Eisenstein span")
    p.add_argument("--weight", type=_weight_arg, required=True, help="even, at least 2")
    p.add_argument("--level", type=_level_arg, required=True, help="prime power")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("dual-pairs", help="weight-(0,2) derivative pairs at prime-power levels")
    common(p)
    p.set_defaults(func=cmd_dual_pairs)

    p = sub.add_parser("second-derivative", help="level-4 quotients with eta-quotient D^2")
    common(p)
    p.set_defaults(func=cmd_second_derivative)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=["identities", "corollaries", "maingen", "second-derivative", "all"],
        default="all",
    )
    p.add_argument("--prec", type=_prec_arg, default=None,
                   help="identity-suite precision override, in q-exponents")
    p.add_argument("--samples", type=_count_arg("sample"), default=100,
                   help="random elements per weight and level (maingen suite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", default=DEFAULT_LEVELS, type=_list_arg(
        "level", 1, lambda n: prime_power(n) is not None, "a prime power"))
    p.add_argument("--weights", default=DEFAULT_WEIGHTS, type=_list_arg(
        "weight", 2, lambda k: k % 2 == 0, "even", MAX_WEIGHT))
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# The exit status when the reader closes stdout early (etaq ... | head):
# 128 + SIGPIPE, what a shell reports for a process that SIGPIPE ended.
EXIT_CLOSED_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # output that fit the buffer meets a closed pipe here
        return code
    except BrokenPipeError:
        # the "Note on SIGPIPE" of the signal docs: point stdout at devnull,
        # so that the flush at interpreter exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
