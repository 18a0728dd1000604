"""The product kernel against a straightforward reference: whole
truncated products and windows lo..hi-1 of a product, on both sides of
the digit width past which a window with lo > 0 takes dot products."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import etaq
from etaq import kernels


def conv_reference(xs, ys, nout):
    out = [0] * min(nout, max(0, len(xs) + len(ys) - 1))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if i + j < nout:
                out[i + j] += x * y
    return out


def test_conv_small_cases():
    assert kernels.conv_trunc([1, 2, 3], [4, 5], 10) == [4, 13, 22, 15]
    assert kernels.conv_trunc([1, 2, 3], [4, 5], 2) == [4, 13]
    assert kernels.conv_trunc([], [1, 2], 5) == []
    assert kernels.conv_trunc([0, 0], [1, 2], 5) == [0, 0, 0]
    assert kernels.conv_trunc([1], [1], 0) == []


def test_conv_random_against_reference():
    rng = random.Random(42)
    for _ in range(200):
        lx, ly = rng.randint(1, 30), rng.randint(1, 30)
        xs = [rng.randint(-10**6, 10**6) for _ in range(lx)]
        ys = [rng.randint(-10**6, 10**6) for _ in range(ly)]
        nout = rng.randint(1, lx + ly + 3)
        assert kernels.conv_trunc(xs, ys, nout) == conv_reference(xs, ys, nout)


def test_conv_kronecker_regime():
    # large dense input with mixed-sign big coefficients forces the
    # packed-bigint path; reference is the double loop
    rng = random.Random(1)
    xs = [rng.randint(-(10**40), 10**40) for _ in range(300)]
    ys = [rng.randint(-(10**40), 10**40) for _ in range(240)]
    got = kernels.conv_trunc(xs, ys, 400)
    assert got == conv_reference(xs, ys, 400)


def test_kronecker_helper_directly():
    rng = random.Random(2)
    for _ in range(50):
        lx, ly = rng.randint(1, 40), rng.randint(1, 40)
        xs = [rng.randint(-999, 999) for _ in range(lx)]
        ys = [rng.randint(-999, 999) for _ in range(ly)]
        n = min(lx + ly - 1, 60)
        assert kernels._kronecker(xs, ys, n) == conv_reference(xs, ys, n)


# -- property test across operand shapes -------------------------------------
#
# Dense lists up to 200 long, lists with long zero runs or a handful of
# nonzeros, one-signed and mixed-signed entries, and nout below, at and
# above len(xs) + len(ys) - 1.


def _operand(rng, length, bits, sign, zeros):
    hi = 1 << bits
    if sign == "negative":
        vals = [-rng.randint(1, hi) for _ in range(length)]
    elif sign == "positive":
        vals = [rng.randint(1, hi) for _ in range(length)]
    else:
        vals = [rng.randint(-hi, hi) for _ in range(length)]
    if zeros == "runs":
        for _ in range(rng.randint(1, 4)):
            start = rng.randrange(length)
            stop = min(length, start + rng.randint(1, max(1, length // 2)))
            vals[start:stop] = [0] * (stop - start)
    elif zeros == "sparse":
        keep = set(rng.sample(range(length), min(length, rng.randint(1, 6))))
        vals = [v if i in keep else 0 for i, v in enumerate(vals)]
    return vals


def _shape():
    return st.tuples(
        st.integers(1, 200),
        st.sampled_from([1, 8, 64, 256]),
        st.sampled_from(["mixed", "negative", "positive"]),
        st.sampled_from(["dense", "runs", "sparse"]),
    )


@st.composite
def conv_cases(draw):
    rng = draw(st.randoms(use_true_random=False))
    xs = _operand(rng, *draw(_shape()))
    ys = _operand(rng, *draw(_shape()))
    full = len(xs) + len(ys) - 1
    nout = draw(st.one_of(st.just(full), st.integers(0, full - 1), st.integers(full + 1, full + 5)))
    return xs, ys, nout


@settings(max_examples=150, deadline=None)
@given(conv_cases())
def test_conv_matches_reference_across_regimes(case):
    xs, ys, nout = case
    assert kernels.conv_trunc(xs, ys, nout) == conv_reference(xs, ys, nout)


# -- windows: one packed product or a dot per coefficient ---------------------
#
# conv_trunc(xs, ys, hi, lo) returns coefficients lo..hi-1 of xs * ys
# (fewer past the product's end).  It packs, except that a window with
# lo > 0 whose _digit_width is more than _PACKED_DIGIT_BITS // 8 bytes
# takes a dot product per coefficient; the cases below reach both sides,
# from 1-bit to 2048-bit entries.


@st.composite
def middle_cases(draw):
    rng = draw(st.randoms(use_true_random=False))
    bits = st.sampled_from([1, 8, 32, 100, 125, 126, 128, 200, 512, 2048])
    signs = st.sampled_from(["mixed", "negative", "positive"])
    xs = _operand(rng, draw(st.integers(1, 60)), draw(bits), draw(signs), "dense")
    ys = _operand(rng, draw(st.integers(1, 60)), draw(bits), draw(signs), "dense")
    if draw(st.booleans()):
        xs = [0] * len(xs) if draw(st.booleans()) else xs
        ys = [0] * len(ys) if draw(st.booleans()) else ys
    full = len(xs) + len(ys) - 1
    hi = draw(st.one_of(st.integers(1, full), st.integers(full + 1, full + 5)))
    lo = draw(st.one_of(st.just(0), st.just(hi - 1), st.integers(0, hi)))
    return xs, ys, lo, hi


@settings(max_examples=200, deadline=None)
@given(middle_cases())
def test_middle_product_matches_reference_slices(case):
    xs, ys, lo, hi = case
    assert kernels.conv_trunc(xs, ys, hi, lo) == conv_reference(xs, ys, hi)[lo:]


def test_kronecker_reads_any_window():
    rng = random.Random(3)
    for _ in range(50):
        xs = _operand(rng, rng.randint(1, 40), rng.choice([1, 20, 90]), "mixed", "dense")
        ys = _operand(rng, rng.randint(1, 40), rng.choice([1, 20, 90]), "mixed", "dense")
        hi = rng.randint(1, len(xs) + len(ys) - 1)
        lo = rng.randint(0, hi)
        assert kernels._kronecker(xs, ys, hi, lo) == conv_reference(xs, ys, hi)[lo:]


def _top(seed, length, bits, sign="mixed"):
    """Entries below 2^bits in absolute value, the first exactly bits wide."""
    vals = _operand(random.Random(seed), length, bits - 1, sign, "dense")
    vals[0] = -(1 << (bits - 1)) if sign == "negative" else 1 << (bits - 1)
    return vals


# (xs, ys, lo, hi, regime conv_trunc must pick); the packed digit has
# xs bits + ys bits + min(len(xs), len(ys)).bit_length() + 2 bits, rounded
# up to whole bytes, and at lo = 0 every width packs
WIDTH_CASES = [
    (_top(1, 10, 125), _top(2, 10, 125), 3, 12, "kronecker"),  # 256 bits
    (_top(3, 10, 125), _top(4, 10, 126), 3, 12, "dots"),  # 257 -> 264 bits
    (_top(5, 10, 125, "negative"), _top(6, 12, 125, "negative"), 0, 21, "kronecker"),
    (_top(7, 10, 126, "negative"), _top(8, 12, 125, "positive"), 0, 21, "kronecker"),
    (_top(9, 200, 16), _top(10, 300, 230), 200, 300, "kronecker"),  # 256 bits
    (_top(11, 200, 17), _top(12, 300, 230), 200, 300, "dots"),  # 257 -> 264 bits
    (_top(13, 50, 2048), _top(14, 60, 1), 49, 60, "dots"),
    (_top(15, 50, 2048), _top(16, 60, 1), 0, 60, "kronecker"),  # 2064 bits
]


@pytest.mark.parametrize("xs, ys, lo, hi, regime", WIDTH_CASES, ids=range(len(WIDTH_CASES)))
def test_width_cases_straddle_the_switch(monkeypatch, xs, ys, lo, hi, regime):
    used = []
    for name in ("kronecker", "dots"):
        real = getattr(kernels, f"_{name}")
        monkeypatch.setattr(
            kernels, f"_{name}", lambda *a, real=real, name=name: used.append(name) or real(*a)
        )
    got = kernels.conv_trunc(xs, ys, hi, lo)
    assert used == [regime]
    assert got == conv_reference(xs, ys, hi)[lo:]


class _Unsliceable(list):
    def __getitem__(self, key):
        raise AssertionError(f"operand read at {key}")


def test_empty_windows_read_no_operand():
    # hi <= lo is empty before any slice: a negative hi must not slice
    # xs[:hi] from the end
    xs, ys = _Unsliceable([1, 2, 3]), _Unsliceable([4, 5])
    for hi, lo in [(0, 0), (-1, 0), (-5, 0), (3, 3), (2, 4)]:
        assert kernels.conv_trunc(xs, ys, hi, lo) == [], (hi, lo)


@pytest.mark.parametrize("lx, ly", [(1, 1), (2, 5), (7, 3), (40, 40)])
def test_zero_operands_give_zeros(lx, ly):
    for hi in range(1, lx + ly + 3):
        n = min(hi, lx + ly - 1)
        assert kernels.conv_trunc([0] * lx, [0] * ly, hi) == [0] * n
        assert kernels.conv_trunc([0] * lx, [0] * ly, hi, hi // 2) == [0] * max(0, n - hi // 2)


def test_packed_digit_limit_is_pinned():
    assert kernels._PACKED_DIGIT_BITS == 256


def test_pow_trunc():
    rng = random.Random(5)
    for _ in range(40):
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        e = rng.randint(0, 6)
        nout = rng.randint(1, 25)
        expect = [1]
        for _ in range(e):
            expect = conv_reference(expect, xs, nout)
        assert kernels.pow_trunc(xs, e, nout) == expect
    with pytest.raises(ValueError):
        kernels.pow_trunc([1], -1, 4)


def test_selected_backend_exposed():
    assert kernels.BACKEND == etaq.KERNEL_BACKEND == "python"
    assert kernels.conv_trunc([1, 1], [1, 1], 3) == [1, 2, 1]
