"""The benchmark's tracer wraps package functions by name.

``benchmarks/tracing.py`` looks up every layer it records with
``getattr`` when a ``Tracer`` is entered, so renaming or removing a
traced function breaks traced benchmark runs.  Entering a tracer here
makes such a refactor fail in the unit tests instead.  The benchmark
also reads pm2's passes from the spans of the calls pm2 makes, so the
second test checks that reading against pm2's own report, and the
third that each log-branch run still builds the mesh whose span the
studies workload times.
"""

from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    import padepencil

    before = dict(vars(padepencil))
    with tracing.Tracer():
        pass
    assert dict(vars(padepencil)) == before


def test_traced_pm2_passes_match_its_report(monkeypatch):
    # deep_filter's wide-magnitude check classifies each pm2 pass from the
    # spans of the calls pm2 makes through its module bindings; a pm2 that
    # skipped one of them would read as a wrong output there.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import oracles
    import tracing
    import workloads

    import padepencil as pp

    # Noisy 1/(1-z) is accepted at l = 1, where pm2 takes no eigenvalue
    # or residue SVD call: its stages must still show in the spans.
    noisy = 1.0 + 1e-6 * np.random.default_rng(0).uniform(-0.5, 0.5, 20)
    cases = [(oracles.log_series(41), 15.0, pp.Conformation(20, 0)), (noisy, 6.0, pp.Conformation(10, -1))]
    for i, (m, amp, period) in enumerate(workloads.WIDE_SLOTS):
        rng = workloads._rng(1, "deep_filter", 100 + i)
        cases.append((oracles.wide_magnitude_series(rng, 2 * m, amp, period), 15.0, pp.Conformation(m, -1)))
    final_l = []
    for coeffs, t, conf in cases:
        with tracing.Tracer() as tracer:
            report = pp.pm2(pp.PowerSeries(coeffs, t=t), conf).report  # looked up after wrapping
        (causes,) = tracing.pm2_pass_causes(tracer.spans())
        assert causes["passes"] == len(report.iterations)
        assert causes["vandermonde"] == report.d_matrix_reductions
        assert causes["accepted"] == 1
        final_l.append(report.final_l)
    assert final_l[1] == 1


def test_log_branch_builds_its_mesh_on_every_run(monkeypatch):
    # studies reads approximant.unit_disk_mesh.self_ms_per_call from the
    # mesh that each log-branch op builds; a mesh kept between runs would
    # leave that metric without spans.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    import padepencil as pp

    with tracing.Tracer() as tracer:
        for _ in range(2):
            pp.run_log_branch(pp.ExperimentConfig(n=11))  # looked up after wrapping
    assert [span.name for span in tracer.spans()].count("approximant.unit_disk_mesh") == 2
