"""Multiplication kernels on Python ints.

These are the inner loops of every product etaq takes.  Three kernels:

* ``conv_trunc(xs, ys, hi, lo=0)``, the coefficients lo..hi-1 of the
  product of two dense integer coefficient lists: the truncated product
  of two rational series (lo = 0) and the history sums of each block of
  ``EtaQuotient.expansion`` (lo > 0).  It takes them from one packed
  big-int product (``_kronecker``), or, when lo > 0 and the packed digit
  is wider than _PACKED_DIGIT_BITS = 256 bits, from one C-level dot
  product (``sum(map(mul, ...))``) per coefficient (``_dots``).  A
  caller that keeps ys fixed and grows xs passes one ``packs`` dict, so
  each entry is packed once per digit width;
* ``pow_trunc``, binary powering through ``conv_trunc``;
* ``_mul_into``, the sparse product of integer monomials
  (s, j, n) = n * q^s * zeta_L^j accumulated into steps of
  Z[x]/(x^L - 1).  Cusp series products (``etaq.series``) go through
  it, and so does ``CycNumber.__mul__`` (one step, all monomials at
  s = 0), which the cusp code never calls.  It never reduces mod Phi_L,
  so it lives here and not in ``etaq.cyclotomic``, which only the cusp
  code loads.

The packing (``_kronecker``) writes each operand as one big integer
with fixed-width digits, each digit biased by half the digit base so
that every signed coefficient packs as a nonnegative digit; the packed
run of biases is subtracted again.  One big-int multiplication forms
the product.  Adding the bias to each of its low digits makes them
nonnegative and carry-free, and the digits lo..hi-1, less the bias, are
read back.

CPython multiplies big ints by Karatsuba only, never FFT.  A window
with lo > 0 still pays for the whole packed product, the discarded low
digits included, while its dot products cover only the window; past
256-bit digits that is the cheaper side.  At lo = 0 the window is the
whole lower triangle, and packing won at every width measured (Python
3.11.7, 2 shared CPUs, best of 20, packed against dots): 10^40-sized
entries (a 280-bit digit), 300 x 240 read through 400, 2.0 against
9.1 ms; 1000-bit entries, 60 x 60, 3.4 against 4.7 ms; 2048-bit,
50 x 60, 9.5 against 16.0 ms.  So dots apply only when lo > 0.  No
caller multiplies sparse operands, so there is no sparse regime: a
sparse product pays for the whole packed product.

Coefficients must be Python ints.  ``BACKEND`` (exported as
``etaq.KERNEL_BACKEND``, and written into benchmark result files) names
this plain-Python implementation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice
from operator import mul

__all__ = ["BACKEND", "conv_trunc", "pow_trunc"]

# Widest packed digit, in bits, for which conv_trunc packs a window with
# lo > 0: CPython multiplies big ints by Karatsuba only, and past this
# width the C-level dot products win; tests/test_kernels.py pins it.
_PACKED_DIGIT_BITS = 256

BACKEND = "python"

Monomial = tuple[int, int, int]  # (s, j, n): n * q^s * zeta^j, see _mul_into


def conv_trunc(xs: list, ys: list, hi: int, lo: int = 0, packs: dict | None = None) -> list:
    """Coefficients lo..hi-1 of xs * ys, fewer if hi passes the product's
    last coefficient: one packed product (``_kronecker``), or a dot
    product per coefficient when lo > 0 and the packed digit is wider
    than _PACKED_DIGIT_BITS.

    ``packs`` is a dict a caller keeps across calls whose ys is one fixed
    list and whose xs only grows at its end.  It holds the digits each
    operand has been packed to at each width (``_pack``), so a call packs
    only the entries that no earlier call packed at its width."""
    if hi <= lo:
        return []
    xs = xs[:hi]
    ys = ys[:hi]
    hi = min(hi, len(xs) + len(ys) - 1)
    if lo >= hi or not xs or not ys:
        return []
    width = _digit_width(xs, ys)
    if lo and 8 * width > _PACKED_DIGIT_BITS:
        return _dots(xs, ys, lo, hi)
    return _kronecker(xs, ys, width, hi, lo, packs)


def _digit_width(xs: list, ys: list) -> int:
    """Bytes per packed digit: every coefficient of xs * ys is below
    2^(8 * width - 1) in absolute value, and so is every operand entry."""
    mx = max(map(abs, xs))
    my = max(map(abs, ys))
    bits = mx.bit_length() + my.bit_length() + min(len(xs), len(ys)).bit_length() + 2
    return (bits + 7) // 8


def _pack(xs: list, width: int, half: int, packs: dict | None = None, key: str = "") -> int:
    """sum_i xs[i] * 2^(8 * width * i), packed from the nonnegative
    digits xs[i] + half.  packs[key, width], when packs is given, holds
    the digits of the longest prefix of xs packed at this width so far
    and its length; only the entries past it are packed, and kept."""
    n = len(xs)
    if packs is None:
        return _digits(xs, 0, width, half) - _halves(half, width, n)
    digits, k = packs.get((key, width), (0, 0))
    if k < n:
        digits += _digits(xs, k, width, half) << (8 * width * k)
        packs[key, width] = digits, n
    elif k > n:
        digits &= (1 << (8 * width * n)) - 1
    return digits - _halves(half, width, n)


def _digits(xs: list, start: int, width: int, half: int) -> int:
    """sum_{i >= start} (xs[i] + half) * 2^(8 * width * (i - start)), for
    entries below half in absolute value: one nonnegative digit each."""
    return int.from_bytes(
        b"".join([(v + half).to_bytes(width, "little") for v in islice(xs, start, None)]), "little"
    )


def _halves(half: int, width: int, n: int) -> int:
    """sum_{i < n} half * 2^(8 * width * i)."""
    return int.from_bytes(half.to_bytes(width, "little") * n, "little")


def _kronecker(xs: list, ys: list, width: int, hi: int, lo: int = 0, packs: dict | None = None) -> list:
    """Coefficients lo..hi-1 of xs * ys by one big-int product, for
    nonempty operands, lo <= hi <= len(xs) + len(ys) - 1 and width =
    _digit_width(xs, ys): every coefficient is below half = 2^(8 * width - 1)
    in absolute value, so the product plus half in each of its low hi
    digits, read mod 2^(8 * width * hi), has digit k = coefficient k + half."""
    half = 1 << (8 * width - 1)
    z = _pack(xs, width, half, packs, "x") * _pack(ys, width, half, packs, "y")
    z = (z + _halves(half, width, hi)) & ((1 << (8 * width * hi)) - 1)
    buf = z.to_bytes(width * hi, "little")
    return [
        int.from_bytes(buf[i : i + width], "little") - half
        for i in range(width * lo, width * hi, width)
    ]


def _dots(xs: list, ys: list, lo: int, hi: int) -> list:
    """Coefficients lo..hi-1 of xs * ys, each one C-level dot product."""
    lx, ly = len(xs), len(ys)
    rys = ys[::-1]  # ys[k - i] = rys[ly - 1 - k + i]
    out = []
    for k in range(lo, hi):
        i0, i1 = max(0, k - ly + 1), min(lx, k + 1)
        out.append(sum(map(mul, xs[i0:i1], rys[ly - 1 - k + i0 : ly - 1 - k + i1])))
    return out


def pow_trunc(xs: list, e: int, nout: int) -> list:
    """First ``nout`` coefficients of ``xs**e`` for e >= 0 (binary powering)."""
    if e < 0:
        raise ValueError("pow_trunc requires e >= 0")
    if nout <= 0:
        return []
    out = [1]
    base = xs[:nout]
    while e:
        if e & 1:
            out = conv_trunc(out, base, nout)
        e >>= 1
        if e:
            base = conv_trunc(base, base, nout)
    return out


def _mul_into(
    out: list[dict[int, int] | None], xs: Iterable[Monomial], ys: Sequence[Monomial], order: int
) -> None:
    """out[s] += the q^s part of xs * ys, for s < len(out).

    A monomial (s, j, n) is n * q^s * zeta_order^j with 0 <= j < order,
    and out[s] holds the integer numerators {j: n} of step s in
    Z[x]/(x^order - 1), or is None until a product first lands there,
    when its dict is made.  ys must be sorted by s, so the inner loop
    stops at the first product past the last step.  Callers normalise
    each step once afterwards.
    """
    size = len(out)
    for s, i, x in xs:
        room = size - s
        for t, j, y in ys:
            if t >= room:
                break
            k = i + j
            if k >= order:
                k -= order
            step = out[s + t]
            if step is None:
                out[s + t] = {k: x * y}
            else:
                step[k] = step.get(k, 0) + x * y
