"""The benchmark's tracer wraps package functions by name.

``benchmarks/tracing.py`` looks up every layer it records with
``getattr`` when a ``Tracer`` is entered, so renaming or removing a
traced function breaks traced benchmark runs.  Entering a tracer here
makes such a refactor fail in the unit tests instead.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    import padepencil

    before = dict(vars(padepencil))
    with tracing.Tracer():
        pass
    assert dict(vars(padepencil)) == before
