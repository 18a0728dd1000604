"""The three workloads: their inputs, operations and correctness checks.

``build(name, seed, size)`` imports etaq and constructs a workload's
inputs; that is the set-up the benchmark times.  Each ``Op`` then has

* ``run``: the timed call into the program, returning its raw output;
* ``extract``: untimed, turns that output into plain Python data;
* ``verify``: untimed, returns a list of problems (empty when correct),
  judged against reference.py, never against stored program output;
* ``corrupt`` (optional): alters extracted data the way a wrong program
  would, so the self-check can show that ``verify`` rejects it.

The reference values a check needs are computed once per process, on the
first check, so they count neither in set-up nor in an operation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Any, Callable

import reference as ref

WORKLOADS = ("expand-deep", "certify", "cusp-products")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    extract: Callable[[Any], Any]
    verify: Callable[[Any], list[str]]
    corrupt: Callable[[Any], Any] | None = None


# Sizes per workload: "full" is what the benchmark measures, "tiny" is
# what the self-check runs.
SIZES = {
    "expand-deep": {"full": {"prec": 200}, "tiny": {"prec": 30}},
    "certify": {
        "full": {"dual_rel": 720, "second_bound": 60, "second_rel": 360, "ident_prec": 75},
        "tiny": {"dual_rel": 48, "second_bound": 6, "second_rel": 48, "ident_prec": 20},
    },
    "cusp-products": {
        "full": {"levels": (27, 32, 49, 125), "prec": 16, "samples": 4},
        "tiny": {"levels": (27, 49), "prec": 6, "samples": 1},
    },
}


def build(name: str, seed: int, size: str = "full") -> list[Op]:
    rng = random.Random(f"perfbench:{name}:{seed}")
    params = SIZES[name][size]
    if name == "expand-deep":
        ops = _expand_deep(rng, **params)
    elif name == "certify":
        ops = _certify(rng, **params)
    elif name == "cusp-products":
        ops = _cusp_products(rng, **params)
    else:
        raise KeyError(name)
    rng.shuffle(ops)
    return ops


def _cli(argv: list[str]) -> tuple[int, str]:
    import etaq.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = etaq.cli.main(argv)
    return code, buf.getvalue()


def _cli_json(out: tuple[int, str]) -> tuple[int, Any]:
    code, text = out
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# expand-deep: six classical quotients to several hundred q-exponents
# ---------------------------------------------------------------------------

QUOTIENTS = {
    "theta4": {1: -8, 2: 20, 4: -8},
    "theta8": {1: -16, 2: 40, 4: -16},
    "delta": {1: 24},
    "eta-inverse": {1: -1},
    "level16": {1: 2, 2: -5, 4: 10, 8: -5, 16: 2},
    "williams12": {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4},
}


@cache
def _expected_expansion(name: str, prec: int) -> list:
    """q^0 .. q^(prec-1) of the quotient divided by its leading q-power."""
    if name == "theta4":
        return [ref.r4(n) for n in range(prec)]
    if name == "theta8":
        return [ref.r8(n) for n in range(prec)]
    if name == "delta":
        return ref.delta_from_eisenstein(prec)[1:]
    if name == "eta-inverse":
        return ref.partitions(prec - 1)
    if name == "williams12":
        return ref.williams_eisenstein(prec)
    return ref.naive_eta_product(QUOTIENTS[name], prec)


def _expand_deep(rng: random.Random, prec: int) -> list[Op]:
    import etaq.cli  # noqa: F401  (set-up: import cost counts here)

    ops = []
    for name, exps in QUOTIENTS.items():
        factors = list(exps.items())
        rng.shuffle(factors)
        text = "*".join(f"eta({t})^{r}" for t, r in factors)
        argv = ["expand", "--eta", text, "--prec", str(prec), "--json"]
        ops.append(
            Op(
                f"expand {name}",
                lambda argv=argv: _cli(argv),
                _extract_expansion,
                lambda data, name=name: _verify_expansion(name, prec, data),
                _corrupt_expansion,
            )
        )
    return ops


def _extract_expansion(out):
    code, payload = _cli_json(out)
    coeffs = {e: Fraction(num, den) for num, den, e in payload["coeffs"]}
    return {"code": code, "weight": payload["weight"], "coeffs": coeffs}


def _corrupt_expansion(data):
    bad = copy.deepcopy(data)
    keys = sorted(bad["coeffs"])
    bad["coeffs"][keys[len(keys) // 2]] += 1
    return bad


def _verify_expansion(name: str, prec: int, data) -> list[str]:
    exps = QUOTIENTS[name]
    problems = []
    if data["code"] != 0:
        problems.append(f"{name}: exit code {data['code']}")
    if data["weight"] != str(Fraction(sum(exps.values()), 2)):
        problems.append(f"{name}: weight {data['weight']}")
    offset = sum(t * r for t, r in exps.items())
    expected = _expected_expansion(name, prec)
    want = {24 * n + offset: Fraction(v) for n, v in enumerate(expected) if v}
    got = data["coeffs"]
    if got != want:
        wrong = sorted(set(got) ^ set(want) | {e for e in got if e in want and got[e] != want[e]})
        problems.append(f"{name}: {len(wrong)} coefficients differ, first at q^({wrong[0]}/24)")
        return problems
    coeff = [got.get(24 * n + offset, Fraction(0)) for n in range(prec)]
    if name == "delta":
        problems += _tau_properties([None] + coeff)
    if name == "eta-inverse":
        for m, r in ((5, 4), (7, 5), (11, 6)):
            if any(coeff[n] % m for n in range(r, prec, m)):
                problems.append(f"eta-inverse: Ramanujan congruence mod {m} fails")
    return problems


def _tau_properties(tau: list) -> list[str]:
    """Multiplicativity, the prime-square recursion and tau = sigma_11 mod 691."""
    top = len(tau) - 1
    problems = []
    if tau[1] != 1:
        problems.append("delta: tau(1) != 1")
    for m in range(2, top + 1):
        for n in range(m + 1, top // m + 1):
            if gcd(m, n) == 1 and tau[m * n] != tau[m] * tau[n]:
                problems.append(f"delta: tau({m * n}) != tau({m}) tau({n})")
    for p in ref.primes_upto(top):
        if p * p <= top and tau[p * p] != tau[p] ** 2 - p**11:
            problems.append(f"delta: tau({p}^2) != tau({p})^2 - {p}^11")
    s11 = ref.sigma_table(11, top)
    if any((tau[n] - s11[n]) % 691 for n in range(1, top + 1)):
        problems.append("delta: tau(n) = sigma_11(n) mod 691 fails")
    return problems


# ---------------------------------------------------------------------------
# certify: the classification, dual pairs, second derivatives, identities
# ---------------------------------------------------------------------------


@cache
def _own_match(level: int, key: tuple) -> tuple[int, dict]:
    return ref.eisenstein_match(level, dict(key))


def _certify(rng, dual_rel: int, second_bound: int, second_rel: int, ident_prec: int) -> list[Op]:
    import etaq.cli  # noqa: F401
    import etaq.search
    from etaq.eta import EtaQuotient

    ops = []
    for k, level in ref.POPULATED_CELLS + ref.EMPTY_CELLS:
        argv = ["search", "--weight", str(k), "--level", str(level), "--json"]
        ops.append(
            Op(
                f"search k={k} N={level}",
                lambda argv=argv: _cli(argv),
                _cli_json,
                lambda data, k=k, level=level: _verify_cell(k, level, data),
                _corrupt_cell,
            )
        )

    for (level, g), f in zip(ref.WEIGHT2, ref.ANTIDERIVATIVES):
        quotient = EtaQuotient(level, g)
        ops.append(
            Op(
                f"antiderivative {ref.freeze(g)}",
                lambda q=quotient: etaq.search.antiderivative(q, dual_rel),
                lambda dp: {"f": ref.freeze(dp.f.exponents), "level": dp.f.level},
                lambda data, f=f, level=level: _verify_dual(f, level, data),
            )
        )

    ops.append(
        Op(
            "second-derivative level 4",
            lambda: etaq.search.classify_second_derivatives_level4(second_bound, second_rel),
            lambda sols: [tuple(s.r) for s in sols],
            _verify_second,
        )
    )

    argv = ["verify", "--suite", "identities", "--prec", str(ident_prec), "--json"]
    ops.append(
        Op(
            "verify identities",
            lambda: _cli(argv),
            _cli_json,
            lambda data: _verify_identities(ident_prec, data),
        )
    )
    return ops


def _verify_cell(k: int, level: int, data) -> list[str]:
    code, payload = data
    label = f"search k={k} N={level}"
    problems = []
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    found = {}
    for pair in payload["pairs"]:
        exps = {int(t): r for t, r in pair["eta"]["exponents"].items()}
        coeffs = {int(t): Fraction(r) for t, r in pair["eisenstein"]["coeffs"].items()}
        found[ref.freeze(exps)] = (pair["eta"]["level"], coeffs)
    want = ref.expected_cell(k, level)
    if set(found) != want or payload["count"] != len(want):
        problems.append(f"{label}: found {sorted(found)}, expected {sorted(want)}")
        return problems
    for key, (lv, coeffs) in found.items():
        own_k, own = _own_match(level, key)
        if lv != level or own_k != k or coeffs != own:
            problems.append(f"{label}: Eisenstein match of {key} is {coeffs}, expected {own}")
    return problems


def _corrupt_cell(data):
    code, payload = data
    if not payload["pairs"]:
        return None
    bad = copy.deepcopy(payload)
    bad["pairs"].pop()
    bad["count"] -= 1
    return code, bad


def _verify_dual(f: dict, level: int, data) -> list[str]:
    if data["f"] != ref.freeze(f) or data["level"] != level:
        return [f"antiderivative: got {data['f']} at level {data['level']}, expected {ref.freeze(f)}"]
    return []


def _verify_second(rs: list) -> list[str]:
    problems = []
    if ref.SECOND_DERIVATIVE_KNOWN not in rs:
        problems.append(f"second-derivative: {ref.SECOND_DERIVATIVE_KNOWN} missing from {rs}")
    if any(sum(r) != -2 for r in rs):
        problems.append(f"second-derivative: solutions off r1+r2+r4=-2: {rs}")
    return problems


def _verify_identities(prec: int, data) -> list[str]:
    code, payload = data
    checks = {c["identity"]: c for c in payload["identities"]}
    problems = []
    if code != 0 or payload.get("ok") is not True:
        problems.append(f"identities: exit code {code}")
    for name in ref.EQUALITY_IDENTITIES:
        c = checks.get(name)
        if c is None or c["status"] != "ok" or c["bound"] != prec:
            problems.append(f"identities: {name} -> {c}")
    for name in ref.THETA_REMAINDER_IDENTITIES:
        c = checks.get(name)
        if c is None or c["status"] != "remainder" or not c["note"].endswith("discrepancy 1/2"):
            problems.append(f"identities: {name} -> {c}")
    return problems


# ---------------------------------------------------------------------------
# cusp-products: Eisenstein series and their products at every cusp
# ---------------------------------------------------------------------------

WEIGHTS = (4, 6, 8, 10, 14)
# E_a * E_b = lambda * E_c, since M_c(SL2(Z)) is one-dimensional.
PRODUCTS = ((4, 4, 8), (4, 6, 10), (4, 10, 14), (6, 8, 14))


def _cusp_numerators(rng, level: int) -> list[tuple[int, int]]:
    """One (a, c) per cusp of Gamma0(level): a seeded member of each class
    a mod gcd(c, level/c) coprime to c; the cusp at infinity is 1/level."""
    out = []
    for c in ref.divisors(level):
        g = gcd(c, level // c)
        for res in range(g):
            if g > 1 and gcd(res, g) != 1:
                continue
            if c == level:
                out.append((1, c))
                continue
            cands = [a for a in range(res or g, res + 8 * g * c, g) if gcd(a, c) == 1]
            out.append((rng.choice(cands[:6]), c))
    assert len(out) == ref.cusp_count(level)
    return out


def _cusp_products(rng, levels: tuple, prec: int, samples: int) -> list[Op]:
    import etaq.cusps
    from etaq.cusps import Cusp
    from etaq.eisenstein import EisensteinElement

    ops = []
    for level in levels:
        cusps = [Cusp(a, c, level) for a, c in _cusp_numerators(rng, level)]
        for cusp in cusps:
            for t in ref.divisors(level):
                elements = {k: EisensteinElement(k, level, {t: 1}) for k in WEIGHTS}
                ops.append(
                    Op(
                        f"products N={level} cusp={cusp.a}/{cusp.c} t={t}",
                        lambda e=elements, cu=cusp: _run_products(etaq.cusps, e, cu, prec),
                        _extract_products,
                        lambda data, t=t, c=cusp.c, level=level: _verify_products(data, t, c, level, prec),
                        _corrupt_products,
                    )
                )
        for k in (4, 6):
            for _ in range(samples):
                coeffs = {}
                for d in ref.divisors(level):
                    v = rng.randint(-9, 9)
                    while v == 0 and d in (1, level):
                        v = rng.randint(-9, 9)
                    coeffs[d] = v
                element = EisensteinElement(k, level, coeffs)
                ops.append(
                    Op(
                        f"order bound k={k} N={level} {coeffs}",
                        lambda e=element: etaq.cusps.check_order_bound(e),
                        lambda rep: dict(rep.orders),
                        lambda orders, level=level: _verify_order_bound(orders, level),
                    )
                )

    for level, exps in ref.WEIGHT2 + ref.WEIGHT4:
        k, coeffs = _own_match(level, ref.freeze(exps))
        element = EisensteinElement(k, level, coeffs)
        cusps = [Cusp(a, c, level) for a, c in _cusp_numerators(rng, level)]
        ops.append(
            Op(
                f"eta orders N={level} {ref.freeze(exps)}",
                lambda e=element, cs=cusps: [(cu.c, etaq.cusps.order_at_cusp(e, cu)) for cu in cs],
                list,
                lambda orders, level=level, exps=exps: _verify_eta_orders(orders, level, exps),
            )
        )
    return ops


def _run_products(cusps_mod, elements: dict, cusp, prec: int):
    ex = {k: cusps_mod.expansion_at_cusp(e, cusp, prec).series for k, e in elements.items()}
    return ex, {(a, b): ex[a] * ex[b] for a, b, _ in PRODUCTS}


def _cyc_vectors(series, n: int) -> list[tuple[int, list[Fraction]]]:
    """(order, coefficient vector) of q^0 .. q^(n-1) of a cusp expansion."""
    if series.prec < n:
        raise ValueError(f"expansion known below q^{series.prec}, need q^{n}")
    out = []
    for j in range(n):
        if j < series.offset:
            out.append((1, [Fraction(0)]))
            continue
        c = series.coeffs[j - series.offset]
        if isinstance(c, Fraction):
            out.append((1, [c]))
        else:
            out.append((c.order, list(c.coeffs)))
    return out


def _extract_products(out):
    ex, prods = out
    n = min(s.prec for s in list(ex.values()) + list(prods.values()))
    return {
        "n": n,
        "ex": {k: _cyc_vectors(s, n) for k, s in ex.items()},
        "prods": {ab: _cyc_vectors(s, n) for ab, s in prods.items()},
    }


def _corrupt_products(data):
    bad = copy.deepcopy(data)
    order, vec = bad["prods"][(4, 4)][1]
    vec[0] += 1
    return bad


def _lift(order: int, vec: list, to: int) -> list:
    out = [Fraction(0)] * to
    for j, c in enumerate(vec):
        out[j * (to // order)] += c
    return out


def _verify_products(data, t: int, c: int, level: int, prec: int) -> list[str]:
    label = f"N={level} c={c} t={t}"
    problems = []
    if data["n"] != prec:
        problems.append(f"{label}: expansions known to q^{data['n']}, asked for q^{prec}")
    for a, b, w in PRODUCTS:
        lam = ref.eisenstein_constant(a) * ref.eisenstein_constant(b) / ref.eisenstein_constant(w)
        for j, ((po, pv), (eo, ev)) in enumerate(zip(data["prods"][(a, b)], data["ex"][w])):
            order = po * eo // gcd(po, eo)
            diff = [x - lam * y for x, y in zip(_lift(po, pv, order), _lift(eo, ev, order))]
            if not ref.cyclotomic_is_zero(diff, order):
                problems.append(f"{label}: E{a}*E{b} != lambda*E{w} at w^{j}")
                break
    if c == level:
        for k in WEIGHTS:
            want = ref.eisenstein_at_infinity(k, t, data["n"])
            for j, (order, vec) in enumerate(data["ex"][k]):
                diff = [x - y for x, y in zip(vec, _lift(1, [want[j]], order))]
                if not ref.cyclotomic_is_zero(diff, order):
                    problems.append(f"{label}: E{k}(tz) at 1/{level} differs from infinity at q^{j}")
                    break
    return problems


def _verify_order_bound(orders: dict, level: int) -> list[str]:
    ncusps = ref.cusp_count(level)
    if len(orders) != ncusps or any(not 0 <= v <= 1 for v in orders.values()):
        return [f"order bound N={level}: per-cusp orders {orders}"]
    if sum(orders.values()) >= ncusps:
        return [f"order bound N={level}: total {sum(orders.values())} reaches {ncusps}"]
    return []


def _verify_eta_orders(orders: list, level: int, exps: dict) -> list[str]:
    if len(orders) != ref.cusp_count(level):
        return [f"eta orders N={level}: {len(orders)} cusps"]
    for c, v in orders:
        want = ref.eta_order(level, exps, c)
        if v != want:
            return [f"eta orders N={level} {exps}: order {v} at c={c}, closed form {want}"]
    return []
