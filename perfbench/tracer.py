"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions and methods at each
layer boundary of etaq with wrappers that time a span and update
counters; ``uninstall`` puts the originals back.  Nothing is written into
src/etaq: the wrappers are bound over every module attribute and class
attribute that refers to the original object, so calls that went through
``from .x import f`` are caught too.

Spans are aggregated in memory per name as (calls, inclusive seconds,
self seconds), where self time is the span minus the child spans it
covers.  Only whole-layer boundaries are wrapped, so the aggregates are
the spans the per-layer metrics need; no span list is kept, because the
cyclotomic layer alone opens about 25 000 spans per round.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[float] = []  # child seconds accumulated per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        for name, mod in list(sys.modules.items()):
            if name == "etaq" or name.startswith("etaq."):
                for key, value in vars(mod).items():
                    if value is original and (mod, key) != (owner, attr):
                        targets.append((mod, key))
        if isinstance(owner, type):
            for key, value in vars(owner).items():
                if value is original and key != attr:
                    targets.append((owner, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Span every call of owner.attr; after(args, result) updates counters."""
        original = getattr(owner, attr)
        span = self.span

        if after is None:
            def wrapper(*args, **kwargs):
                return span(name, original, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = span(name, original, *args, **kwargs)
                after(args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        import etaq.cli
        import etaq.cusps
        import etaq.cyclotomic
        import etaq.eisenstein
        import etaq.eta
        import etaq.kernels
        import etaq.linalg
        import etaq.search
        import etaq.series

        c = self.counters

        # kernels: regime inputs (lengths, zero slots, bit width)
        def conv_after(args, kwargs, result):
            xs, ys, nout = args
            xs, ys = xs[:nout], ys[:nout]
            slots = len(xs) + len(ys)
            zeros = sum(1 for v in xs if not v) + sum(1 for v in ys if not v)
            bits = max((abs(v).bit_length() for v in xs + ys), default=0)
            c["kernels.conv_in_slots"] += slots
            c["kernels.conv_zero_slots"] += zeros
            c["kernels.conv_max_bits"] = max(c["kernels.conv_max_bits"], bits)

        self._wrap(etaq.kernels, "conv_trunc", "kernels.conv", conv_after)
        self._wrap(etaq.kernels, "pow_trunc", "kernels.pow")

        # series: products split by coefficient domain
        qs = etaq.series.QSeries
        mul = qs.__mul__
        span = self.span

        def series_mul(x, y):
            if not isinstance(y, qs):
                return span("series.scalar_mul", mul, x, y)
            cyc = x.cyc_order is not None or y.cyc_order is not None
            result = span("series.cyc_mul" if cyc else "series.mul", mul, x, y)
            if not cyc:
                c["series.mul_out_slots"] += len(result.coeffs)
            return result

        series_mul.__wrapped__ = mul
        self._patch(qs, "__mul__", series_mul)
        self._wrap(qs, "inverse", "series.inverse")
        self._wrap(qs, "__pow__", "series.pow")
        self._wrap(qs, "__add__", "series.add")
        self._wrap(qs, "ramanujan_d", "series.d")

        # eta and Eisenstein expansions, certification
        self._wrap(etaq.eta.EtaQuotient, "expansion", "eta.expansion")
        self._wrap(etaq.eisenstein, "eisenstein_series", "eisenstein.series")
        self._wrap(etaq.eisenstein.EisensteinElement, "expansion", "eisenstein.series")
        rows = etaq.eisenstein.match_certification_rows

        def match_after(args, kwargs, result):
            g = args[0]
            c["eisenstein.rows_compared"] += rows(int(g.weight()), g.level) + 1

        self._wrap(etaq.eisenstein, "match_eta", "eisenstein.match", match_after)
        self._wrap(etaq.eisenstein, "verify_identities", "eisenstein.identities")

        self._wrap(etaq.linalg, "solve_unique", "linalg.solve")
        self._wrap(etaq.linalg, "mat_inverse", "linalg.inverse")

        cyc = etaq.cyclotomic.CycNumber
        self._wrap(cyc, "__mul__", "cyclotomic.mul")
        self._wrap(cyc, "is_zero", "cyclotomic.zero_test")
        self._wrap(cyc, "inverse", "cyclotomic.inverse")

        self._wrap(etaq.cusps, "expansion_at_cusp", "cusps.expand")
        self._wrap(etaq.cusps, "order_at_cusp", "cusps.order")

        def search_after(args, kwargs, result):
            c["search.candidates_scanned"] += result.candidates_scanned
            c["search.accepted"] += len(result.pairs)

        self._wrap(etaq.search, "enumerate_eta_in_e", "search", search_after)
        for fn in ("antiderivative", "classify_second_derivatives_level4",
                   "dual_pairs_prime_power", "verify_classification_lists"):
            self._wrap(etaq.search, fn, "search")

        main = etaq.cli.main

        def cli_main(argv=None):
            out = sys.stdout
            start = out.tell() if out.seekable() else None
            try:
                return span("cli", main, argv)
            finally:
                if start is not None:
                    c["cli.out_bytes"] += out.tell() - start  # JSON output is ASCII

        cli_main.__wrapped__ = main
        self._patch(etaq.cli, "main", cli_main)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    # -- report -------------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, as {name: (value, unit)}."""
        n = rounds
        calls, total, own, c = self.calls, self.total_s, self.self_s, self.counters
        slots = c["kernels.conv_in_slots"]
        out = {
            "kernels.conv_calls": (calls["kernels.conv"] / n, "count"),
            "kernels.conv_self_s": (own["kernels.conv"] / n, "s"),
            "kernels.conv_in_slots": (slots / n, "count"),
            "kernels.conv_zero_share": (c["kernels.conv_zero_slots"] / slots if slots else 0.0, "share"),
            "kernels.conv_max_bits": (c["kernels.conv_max_bits"], "bit"),
            "kernels.pow_calls": (calls["kernels.pow"] / n, "count"),
            "series.mul_calls": (calls["series.mul"] / n, "count"),
            "series.mul_self_s": (own["series.mul"] / n, "s"),
            "series.mul_out_slots": (c["series.mul_out_slots"] / n, "count"),
            "series.inverse_calls": (calls["series.inverse"] / n, "count"),
            "series.inverse_self_s": (own["series.inverse"] / n, "s"),
            "series.pow_self_s": (own["series.pow"] / n, "s"),
            "series.add_self_s": (own["series.add"] / n, "s"),
            "series.d_self_s": (own["series.d"] / n, "s"),
            "series.scalar_mul_self_s": (own["series.scalar_mul"] / n, "s"),
            "series.cyc_mul_calls": (calls["series.cyc_mul"] / n, "count"),
            "series.cyc_mul_self_s": (own["series.cyc_mul"] / n, "s"),
            "eta.expansion_calls": (calls["eta.expansion"] / n, "count"),
            "eta.expansion_s": (total["eta.expansion"] / n, "s"),
            "eta.expansion_self_s": (own["eta.expansion"] / n, "s"),
            "eisenstein.series_self_s": (own["eisenstein.series"] / n, "s"),
            "eisenstein.match_calls": (calls["eisenstein.match"] / n, "count"),
            "eisenstein.match_self_s": (own["eisenstein.match"] / n, "s"),
            "eisenstein.rows_compared": (c["eisenstein.rows_compared"] / n, "count"),
            "eisenstein.identities_self_s": (own["eisenstein.identities"] / n, "s"),
            "linalg.solve_calls": (calls["linalg.solve"] / n, "count"),
            "linalg.solve_self_s": (own["linalg.solve"] / n, "s"),
            "linalg.inverse_calls": (calls["linalg.inverse"] / n, "count"),
            "cyclotomic.mul_calls": (calls["cyclotomic.mul"] / n, "count"),
            "cyclotomic.mul_self_s": (own["cyclotomic.mul"] / n, "s"),
            "cyclotomic.zero_tests": (calls["cyclotomic.zero_test"] / n, "count"),
            "cyclotomic.zero_test_self_s": (own["cyclotomic.zero_test"] / n, "s"),
            "cyclotomic.inverse_calls": (calls["cyclotomic.inverse"] / n, "count"),
            "cusps.expand_calls": (calls["cusps.expand"] / n, "count"),
            "cusps.expand_self_s": (own["cusps.expand"] / n, "s"),
            "cusps.order_calls": (calls["cusps.order"] / n, "count"),
            "cusps.order_self_s": (own["cusps.order"] / n, "s"),
            "search.candidates_scanned": (c["search.candidates_scanned"] / n, "count"),
            "search.accepted": (c["search.accepted"] / n, "count"),
            "search.self_s": (own["search"] / n, "s"),
            "cli.calls": (calls["cli"] / n, "count"),
            "cli.self_s": (own["cli"] / n, "s"),
            "cli.out_bytes": (c["cli.out_bytes"] / n, "byte"),
        }
        return out
