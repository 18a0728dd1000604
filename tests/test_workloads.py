"""The benchmark's workloads call etaq and read attributes of what it
returns: CLI JSON payloads, ``series.coeffs[j].order`` of cusp
expansions, ``check_order_bound(...).orders``.  Every operation of every
workload, built at its smallest size, must pass its own check, so that a
change to what the benchmark reads fails here and not only in a
benchmark run.  perfbench/ is imported, never modified."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tiny_workloads_pass_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 0, "tiny")
        assert ops, name
        for op in ops:
            assert op.verify(op.extract(op.run())) == [], (name, op.label)
