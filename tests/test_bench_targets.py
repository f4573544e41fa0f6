"""The traced benchmark patches library functions by name; a refactor that
renames or moves one must fail here rather than at bench time."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, owner, attr in spans.TARGETS:
        # the tracer reads owner.__dict__[attr], so the name must live there
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"
