"""The benchmark's layer tracer wraps etaq functions by name.  Installing
and removing it must find every name it wraps and put each original
object back, so that renaming or deleting a wrapped function fails here
and not only in a traced benchmark run."""

from pathlib import Path

import etaq.eisenstein
import etaq.search
from etaq.cusps import Cusp, expansion_at_cusp
from etaq.cyclotomic import CycNumber
from etaq.eta import EtaQuotient
from etaq.series import QSeries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for obj, key, original in patched:
            assert vars(obj)[key] is not original, (obj, key)
    finally:
        tracer.uninstall()
    for obj, key, original in patched:
        assert vars(obj)[key] is original, (obj, key)
    wrapped = {(obj, key) for obj, key, _ in patched}
    ee = etaq.eisenstein
    for owner, name in [
        (ee, "eisenstein_series"),
        (ee.EisensteinElement, "expansion"),
        (ee, "match_eta"),
        (ee, "verify_identities"),
        (etaq.search, "enumerate_eta_in_e"),
        (CycNumber, "inverse"),
    ]:
        assert (owner, name) in wrapped, name


def test_tracer_splits_products_by_coefficient_domain(monkeypatch):
    # the tracer reads cyc_order on both operands of QSeries.__mul__: a
    # product of two expansions at one cusp is one series.cyc_mul call,
    # a product of two rational series one series.mul call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    cusp = Cusp(2, 3, 27)
    f = etaq.eisenstein.EisensteinElement(4, 27, {1: 2, 3: -1, 27: 5})
    g = etaq.eisenstein.EisensteinElement(6, 27, {1: 1, 9: -2, 27: 4})
    x, y = (expansion_at_cusp(e, cusp, 6).series for e in (f, g))
    r = QSeries(0, [1, 2, 3])
    tracer = Tracer()
    try:
        tracer.install()
        _ = x * y
        _ = r * r
    finally:
        tracer.uninstall()
    assert (tracer.calls["series.cyc_mul"], tracer.calls["series.mul"]) == (1, 1)


def test_tracer_counts_the_eta_block_heads(monkeypatch):
    # a blocked expansion's heads are windows of one product kernel: 200
    # steps of a two-factor quotient take three heads, each one traced
    # kernels.conv call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        EtaQuotient(2, {1: 24, 2: -1}).expansion(200)
    finally:
        tracer.uninstall()
    assert tracer.calls["kernels.conv"] == 3


def test_tiny_workloads_pass_their_checks_under_the_tracer(monkeypatch):
    # the tracer's counters unpack the arguments of what they wrap, so a
    # signature they no longer fit fails here, not only in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, 0, "tiny"):
                assert op.verify(op.extract(op.run())) == [], (name, op.label)
    finally:
        tracer.uninstall()
    assert tracer.calls["kernels.conv"] > 0
