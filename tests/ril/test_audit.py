"""App-level tier-3 proofs, pinned: the provability audit over a warm
serving app must keep proving exactly what it proves today."""

import pytest

from repro.ril.audit import audit_engine, warm_serving_engine

pytestmark = pytest.mark.requires_elision


def test_countries_read_frame_proofs():
    """Warming countries' ``read`` mix proves the frame seed-free on
    exactly the five ``Country`` getters (each a cast over a field-typed
    hash read), and the audit reads 29 proved of 47 applicable."""
    report = audit_engine(warm_serving_engine("countries", "read"))
    framed = sorted(tuple(site["key"]) for site in report["sites"]
                    if site["checks"]["frame"]["status"] == "proved")
    assert framed == [("Country", "Country", name, "instance")
                      for name in ("currency", "languages", "name",
                                   "population", "region")]
    summary = report["summary"]
    assert (summary["proved"], summary["applicable"]) == (29, 47)
