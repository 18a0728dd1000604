"""Multiplication kernels on Python ints.

These are the inner loops of every product etaq takes.  Three kernels:

* ``conv_trunc``, the truncated product of two dense integer
  coefficient lists (rational series).  It has two regimes: schoolbook
  convolution, skipping zero coefficients, for small or sparse inputs;
  and Kronecker substitution for large dense inputs, where each operand
  is packed into one big integer with fixed-width digits, the product
  is a single CPython big-int multiplication (subquadratic), and the
  digits are sliced back out.  Signs are handled by splitting each
  operand into positive and negative parts, so all packed digits stay
  nonnegative and carry-free;
* ``pow_trunc``, binary powering through ``conv_trunc``;
* ``_mul_into``, the sparse product of integer monomials
  (s, j, n) = n * q^s * zeta_L^j accumulated into steps of
  Z[x]/(x^L - 1).  ``CycNumber`` products (one step, all monomials at
  s = 0) and cusp series products (``etaq.series``) both go through it.
  It never reduces mod Phi_L, so it lives here and not in
  ``etaq.cyclotomic``, which only the cusp code loads.

Coefficients must be Python ints.  ``BACKEND`` (exported as
``etaq.KERNEL_BACKEND``, and written into benchmark result files) names
this plain-Python implementation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["BACKEND", "conv_trunc", "pow_trunc"]

# Crossover between schoolbook and Kronecker, in units of object
# multiplications actually performed; tests/test_kernels.py pins its boundary.
_SCHOOLBOOK_WORK_LIMIT = 6000

BACKEND = "python"

Monomial = tuple[int, int, int]  # (s, j, n): n * q^s * zeta^j, see _mul_into


def conv_trunc(xs: list, ys: list, nout: int) -> list:
    """First ``nout`` coefficients of the product of two coefficient lists."""
    if nout <= 0:
        return []
    xs = xs[:nout]
    ys = ys[:nout]
    if not xs or not ys:
        return []
    nnz_x = sum(1 for v in xs if v)
    nnz_y = sum(1 for v in ys if v)
    n = min(nout, len(xs) + len(ys) - 1)
    if nnz_x == 0 or nnz_y == 0:
        return [0] * n
    if min(nnz_x * len(ys), nnz_y * len(xs)) <= _SCHOOLBOOK_WORK_LIMIT:
        if nnz_y * len(xs) < nnz_x * len(ys):
            xs, ys = ys, xs
        return _schoolbook(xs, ys, n)
    return _kronecker(xs, ys, n)


def _schoolbook(xs: list, ys: list, n: int) -> list:
    out = [0] * n
    for i, xi in enumerate(xs):
        if xi:
            jmax = min(len(ys), n - i)
            for j in range(jmax):
                yj = ys[j]
                if yj:
                    out[i + j] += xi * yj
    return out


def _digit_width(xs: list, ys: list) -> int:
    mx = max(abs(v) for v in xs)
    my = max(abs(v) for v in ys)
    bits = mx.bit_length() + my.bit_length() + min(len(xs), len(ys)).bit_length() + 2
    return (bits + 7) // 8


def _pack(xs: list, width: int, positive: bool) -> int:
    if positive:
        parts = [(v if v > 0 else 0).to_bytes(width, "little") for v in xs]
    else:
        parts = [(-v if v < 0 else 0).to_bytes(width, "little") for v in xs]
    return int.from_bytes(b"".join(parts), "little")


def _kronecker(xs: list, ys: list, n: int) -> list:
    width = _digit_width(xs, ys)
    xp = _pack(xs, width, True)
    xm = _pack(xs, width, False)
    yp = _pack(ys, width, True)
    ym = _pack(ys, width, False)
    pos = xp * yp + xm * ym
    neg = xp * ym + xm * yp
    buf_len = width * n
    pos_b = pos.to_bytes(max(buf_len, (pos.bit_length() + 7) // 8), "little")
    neg_b = neg.to_bytes(max(buf_len, (neg.bit_length() + 7) // 8), "little")
    out = []
    for k in range(n):
        lo = k * width
        out.append(
            int.from_bytes(pos_b[lo : lo + width], "little")
            - int.from_bytes(neg_b[lo : lo + width], "little")
        )
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
    out: list[dict[int, int]], xs: Iterable[Monomial], ys: Sequence[Monomial], order: int
) -> None:
    """out[s] += the q^s part of xs * ys, for s < len(out).

    A monomial (s, j, n) is n * q^s * zeta_order^j with 0 <= j < order,
    and out[s] holds the integer numerators {j: n} of step s in
    Z[x]/(x^order - 1).  ys must be sorted by s, so the inner loop stops
    at the first product past the last step.  Callers normalise each
    step once afterwards.
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
            step[k] = step.get(k, 0) + x * y
