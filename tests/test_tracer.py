"""The benchmark's layer tracer wraps etaq functions by name.  Installing
and removing it must find every name it wraps and put each original
object back, so that renaming or deleting a wrapped function fails here
and not only in a traced benchmark run."""

from pathlib import Path

import etaq.eisenstein
import etaq.search
from etaq.cyclotomic import CycNumber

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
