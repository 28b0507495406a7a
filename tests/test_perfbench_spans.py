"""The benchmark tracer resolves every function it wraps.

perfbench/spans.py looks up each of its SPAN_TARGETS whenever a Tracer is
built, on traced and untraced benchmark runs alike, so removing or renaming
one of those functions breaks every benchmark run.  The file is loaded here
without writing anything beside it.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import mptraj  # noqa: F401
import mptraj.cli  # noqa: F401

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    for target in spans.SPAN_TARGETS:
        module, path = spans._attribute_path(target)
        owner = importlib.import_module("mptraj." + module)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"span target {target} does not resolve"
            owner = getattr(owner, attr)
        assert callable(owner), target
    # raises if any span target or counter does not resolve
    spans.Tracer()
