"""The traced benchmark wraps prenelab functions by name: keep those names.

perfbench/instrument.py swaps module and class attributes for span
recorders, looking each one up with `owner.__dict__[attr]`.  Renaming or
removing one of them breaks the traced run, so installing and restoring
the hooks is checked here, with the benchmark files imported by path.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_hooks_install_and_restore():
    instrument, spans = _load("instrument"), _load("spans")
    tracer = spans.Tracer()
    try:
        instrument.install(tracer)  # KeyError names any wrapped attribute that is gone
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, raw in patched:
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr} not restored"


def test_traced_escape_counts_its_work():
    # the counts perfbench's traced pass reports for the escape workload;
    # pair 0 runs in this process, so its counts are seen on any CPU count
    import io

    from prenelab import replicator

    instrument, spans = _load("instrument"), _load("spans")
    tracer = spans.Tracer()
    try:
        instrument.install(tracer)
        replicator.run_escape_experiment(replicator.EscapeConfig(n_pairs=2, horizon=5), io.StringIO())
    finally:
        tracer.restore()
    for count in ("replicator.days", "kernels.flips", "replicator.posters", "replicator.culled"):
        assert tracer.counts[count] > 0, count
