"""Convolution kernels for dense integer coefficient lists.

These are the inner loops of series multiplication.  Two regimes:

* schoolbook convolution, skipping zero coefficients, for small or
  sparse inputs;
* Kronecker substitution for large dense inputs: each operand is packed
  into one big integer with fixed-width digits and the product is a
  single CPython big-int multiplication (subquadratic), after which the
  digits are sliced back out.  Signs are handled by splitting each
  operand into positive and negative parts, so all packed digits stay
  nonnegative and carry-free.

Coefficients must be Python ints.  ``BACKEND`` (exported as
``etaq.KERNEL_BACKEND``, and written into benchmark result files) names
this plain-Python implementation.
"""

from __future__ import annotations

__all__ = ["BACKEND", "conv_trunc", "pow_trunc"]

# Crossover between schoolbook and Kronecker, in units of object
# multiplications actually performed; tests/test_kernels.py pins its boundary.
_SCHOOLBOOK_WORK_LIMIT = 6000

BACKEND = "python"


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
