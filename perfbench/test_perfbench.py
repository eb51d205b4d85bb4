"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import base64
import io
import json
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import instrument
import reglog
import spans
from prenelab import cli, registry


@pytest.fixture(scope="module")
def small_log():
    records, contents = reglog.generate(seed=3, n_events=400)
    return records, contents, reglog.to_text(records)


def test_generated_log_is_canonical_and_valid(small_log):
    records, _, text = small_log
    world = registry.World.from_jsonl(text)
    assert len(world.events) == len(records)
    assert world.to_jsonl() == text
    assert {r["kind"] for r in records} == {"create", "destroy", "transcribe"}


def test_replay_oracle_agrees_with_registry(small_log):
    records, contents, text = small_log
    world = registry.World.from_jsonl(text)
    oracle = reglog.Replay(records)
    targets = contents[:10] + [b"absent" + reglog.CORE + b"nowhere"]
    hits = 0
    for t in (50, 199, 399):
        best, alive = oracle.longest_shared(t)
        objects = world.alive_objects(t)
        assert (registry.longest_shared(objects), len(objects)) == (best, alive)
        assert len(best) >= len(reglog.CORE)
        for target in targets:
            prene = registry.Prene.exact(target)
            count = registry.copy_number(world, prene, t)
            hits += count
            assert count == oracle.copy_number(target, t)
            flags = registry.classify(world, prene, t)
            assert {"gene": flags.gene, "meme": flags.meme, "turene": flags.turene} == oracle.classify(target, t)
    assert hits > 0
    for target in targets:
        nodes, edges = registry.lineage(world, registry.Prene.exact(target))
        assert {"nodes": nodes, "edges": [list(e) for e in edges]} == oracle.lineage(target)


def test_document_variants_normalize_to_their_canonical_content():
    records, contents = reglog.generate(seed=5, n_events=300)
    variants = [
        base64.b64decode(r["content_b64"]) for r in records
        if r["kind"] == "create" and r["substrate"] == "document"
    ]
    assert any(v not in contents for v in variants)
    assert all(registry.normalize(v, "document") in contents for v in variants)


def _span(name, start, end, parent, arm=None):
    return [name, start, end, parent, arm]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    trace = [
        _span("leg", 0, 100, -1),
        _span("a", 10, 30, 0, "hot"),
        _span("b", 20, 50, 0),  # overlaps a: [10, 50) is covered once
        _span("c", 90, 120, 0),  # overhangs the parent: only [90, 100) counts
        _span("d", 12, 18, 1, "hot"),  # grandchild: subtracted from a, not from leg
    ]
    assert spans.self_times(trace) == [50, 14, 30, 30, 6]
    assert spans.roots(trace) == [0, 0, 0, 0, 0]


def test_totals_split_by_leg_and_arm():
    trace = [
        _span("leg", 0, 100, -1),
        _span("k", 10, 30, 0, "hot"),
        _span("k", 40, 45, 0, "fidelity"),
        _span("other", 200, 300, -1),
        _span("k", 210, 220, 3, "hot"),
    ]
    totals = spans.totals(trace)
    assert totals["k.calls"] == 3
    assert totals["k.self_s"] == pytest.approx(35e-9)
    assert totals["hot:k.self_s"] == pytest.approx(30e-9)
    assert totals["leg:k.total_s"] == pytest.approx(25e-9)
    assert totals["leg.self_s"] == pytest.approx(75e-9)


def test_recorded_spans_nest_and_inherit_the_arm():
    tracer = spans.Tracer()

    module = types.SimpleNamespace(inner=lambda x: x + 1)
    original = module.inner
    tracer.wrap(module, "inner", "inner", post=lambda t, args, result, _: t.add("work", args[0]))
    with tracer.span("leg"):
        with tracer.span("arm", arm="hot"):
            assert module.inner(4) == 5
    tracer.restore()
    assert module.inner is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["leg", "arm", "inner"]
    assert tracer.spans[2][spans.PARENT] == 1 and tracer.spans[2][spans.ARM] == "hot"
    assert tracer.counts == {"work": 4, "leg:work": 4, "hot:work": 4}


def _cli(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_traced_run_restores_every_attribute_and_keeps_artifacts(tmp_path, small_log):
    _, _, text = small_log
    (tmp_path / "world.jsonl").write_text(text)
    (tmp_path / "esc.cfg").write_text("n_pairs = 2\nhorizon = 8\n")
    (tmp_path / "soup.cfg").write_text("horizon = 1\nn_replicates = 2\n")
    commands = [
        ["replicator", "run", "--seed", "3", "--config", str(tmp_path / "esc.cfg"), "--out", "{}/esc.csv"],
        ["soup", "run", "--experiment", "--config", str(tmp_path / "soup.cfg"), "--out", "{}/soup.csv"],
        ["lifespan", "table", "--days", "40", "--out", "{}/census.csv"],
        ["lifespan", "sweep", "--steps", "40", "--out", "{}/sweep.csv"],
        ["registry", "ingest", "--log", str(tmp_path / "world.jsonl"), "--out", "{}/ingest.jsonl"],
        ["registry", "query", "--log", str(tmp_path / "world.jsonl"), "--what", "longest-shared",
         "--out", "{}/shared.json"],
    ]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for argv in commands:
        _cli([a.format(plain) for a in argv])

    tracer = spans.Tracer()
    instrument.install(tracer)
    patched = list(tracer._patches)
    for owner, attr, raw in patched:
        assert owner.__dict__[attr] is not raw
    try:
        for argv in commands:
            with tracer.span("leg"):
                _cli([a.format(traced) for a in argv])
    finally:
        tracer.restore()

    assert len(patched) >= 20
    for owner, attr, raw in patched:
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr} not restored"
    for path in sorted(plain.iterdir()):
        assert (traced / path.name).read_bytes() == path.read_bytes()

    metrics = instrument.layer_metrics(spans.totals(tracer.spans), tracer.counts)
    for name in instrument.EXACT_COUNTS:
        assert metrics[name] > 0, name
    assert metrics["kernels.mutate_sites.sites"] % 300 == 0
    assert metrics["soup.audit.calls"] == metrics["soup.events"]


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(instrument.layer_metrics({}, {})) | {"trace.overhead_ratio"}
