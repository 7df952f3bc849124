"""The benchmark wraps yoasovi functions by module attribute
(perfbench/tracer.py, PATCHES).  A renamed or deleted attribute would only
show up when the benchmark runs; this checks every one still resolves."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_patched_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert tracer.PATCHES
    assert missing == []
