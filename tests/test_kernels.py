"""The convolution kernel against a straightforward reference, in both
the schoolbook and the Kronecker-substitution regime and across the
switch between them."""

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
    # packed-bigint path; reference is the schoolbook
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


# -- property test across the schoolbook/Kronecker switch ---------------------
#
# conv_trunc picks the schoolbook when min(nnz_x*len(ys), nnz_y*len(xs)),
# taken after truncation to nout, is at most _SCHOOLBOOK_WORK_LIMIT.  The
# operands below reach past that on both sides: dense lists up to 200
# long, lists with long zero runs or a handful of nonzeros (few nonzeros
# keep a long list in the schoolbook), one-signed and mixed-signed
# entries, and nout below, at and above len(xs) + len(ys) - 1.


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


def _dense(seed, length, sign="mixed"):
    return _operand(random.Random(seed), length, 64, sign, "dense")


def _sparse_long(seed, length, nnz):
    rng = random.Random(seed)
    vals = [0] * length
    for i in rng.sample(range(length), nnz):
        vals[i] = rng.randint(-(1 << 64), 1 << 64) or 1
    return vals


# The property test hits both regimes by chance; these cases pin each
# side of the switch and check that conv_trunc takes it.
# (xs, ys, nout, regime conv_trunc must pick); work = min(nnz_x*ly, nnz_y*lx)
BOUNDARY_CASES = [
    (_dense(1, 60), _dense(2, 100), 159, "schoolbook"),  # work 6000
    (_dense(3, 61), _dense(4, 100), 160, "kronecker"),  # work 6100
    (_dense(5, 61), _dense(6, 100, "negative"), 160, "kronecker"),
    (_dense(7, 100, "negative"), _dense(8, 100, "negative"), 150, "kronecker"),
    (_dense(9, 100), _dense(10, 100), 60, "schoolbook"),  # truncated to 60x60
    (_sparse_long(11, 500, 11), _dense(12, 500), 700, "schoolbook"),  # work 5500
    (_sparse_long(13, 500, 13), _dense(14, 500), 999, "kronecker"),  # work 6500
]


@pytest.mark.parametrize("xs, ys, nout, regime", BOUNDARY_CASES, ids=range(len(BOUNDARY_CASES)))
def test_boundary_cases_straddle_the_switch(monkeypatch, xs, ys, nout, regime):
    used = []
    for name in ("schoolbook", "kronecker"):
        real = getattr(kernels, f"_{name}")
        monkeypatch.setattr(
            kernels, f"_{name}", lambda *a, real=real, name=name: used.append(name) or real(*a)
        )
    got = kernels.conv_trunc(xs, ys, nout)
    assert used == [regime]
    assert got == conv_reference(xs, ys, nout)


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
