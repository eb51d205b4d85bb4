"""Which prenelab functions the traced run wraps, and the per-layer metrics.

Nothing here edits the program: `install` swaps module attributes and
class attributes for span-recording wrappers (see spans.Tracer) and the
caller restores them with `Tracer.restore`.  Wrappers sit on the names
the program actually calls: `replicator.mutate_sites`, the kernel as
replicator imported it, and `soup.run_until` as the catalysis experiment
looks it up.
"""

from __future__ import annotations

# Exact counts: the same seed must give the same values on every traced
# pass.  Later changes may cite these as counts of work (not as speed).
EXACT_COUNTS = (
    "kernels.mutate_sites.sites",
    "kernels.mutate_sites.flips",
    "replicator.days",
    "replicator.posters",
    "replicator.kills",
    "replicator.culled",
    "soup.events",
    "soup.audit.calls",
    "soup.species_peak",
    "lifespan.life_table.calls",
    "lifespan.growth_rate.calls",
    "registry.events_loaded",
)

# The mutation kernel reads one uint8 code and one float64 site
# probability and draws one float64 uniform per site; these are array
# sizes, not measured memory traffic.
KERNEL_BYTES_PER_SITE = 1 + 8 + 8

_ARMS = {"region_multiplier": "hot", "uniform": "fidelity"}


def install(tracer) -> None:
    from prenelab import cli, lifespan, registry, replicator, rng, soup

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(rng, "stream", "rng.stream")

    def kernel_post(t, args, result, _):
        sites = args[0].size
        t.add("kernels.sites", sites)
        t.add("kernels.flips", len(result[0]))
        t.add("kernels.bytes_computed", sites * KERNEL_BYTES_PER_SITE)

    def immune_pre(args):
        return args[0].population, len(args[0].posters)

    def immune_post(t, args, _, before):
        population, posters = before
        t.add("replicator.immune_virions", population)
        t.add("replicator.kills", population - args[0].population)
        t.add("replicator.posters", len(args[0].posters) - posters)

    def cull_post(t, args, _, population):
        t.add("replicator.culled", population - args[0].population)

    wrap(replicator, "mutate_sites", "kernels.mutate_sites", post=kernel_post)
    wrap(replicator, "run_escape_experiment", "replicator.run_escape_experiment")
    wrap(
        replicator, "run_population_day", "replicator.run_population_day",
        post=lambda t, *_: t.add("replicator.days"),
        arm_of=lambda args: _ARMS.get(args[1].kind, args[1].kind),
    )
    wrap(replicator, "replicate_population", "replicator.replicate_population")
    wrap(replicator, "immune_step", "replicator.immune_step", pre=immune_pre, post=immune_post)
    wrap(
        replicator, "cull_to_capacity", "replicator.cull_to_capacity",
        pre=lambda args: args[0].population, post=cull_post,
    )

    def audit_post(t, args, *_):
        species = len(args[0].seqs)
        if species > t.counts["soup.species_peak"]:
            t.counts["soup.species_peak"] = species

    wrap(soup, "run_catalysis_experiment", "soup.run_catalysis_experiment")
    wrap(
        soup, "run_until", "soup.run_until",
        pre=lambda args: args[0].n_events,
        post=lambda t, args, _, events: t.add("soup.events", args[0].n_events - events),
        arm_of=lambda args: "treatment" if args[0].k_cat > 0 else "control",
    )
    wrap(soup.ReactorState, "audit", "soup.audit", post=audit_post)

    wrap(lifespan, "simulate_census", "lifespan.simulate_census")
    wrap(
        lifespan, "optimality_sweep", "lifespan.optimality_sweep",
        post=lambda t, _, result, __: t.add("lifespan.sweep_grid_points", len(result.rows)),
    )
    wrap(lifespan.CohortState, "step", "lifespan.cohort_step")
    wrap(lifespan.CohortState, "census", "lifespan.cohort_census")
    wrap(lifespan, "life_table", "lifespan.life_table")
    wrap(lifespan, "growth_rate", "lifespan.growth_rate")

    wrap(
        registry.World, "from_jsonl", "registry.from_jsonl",
        post=lambda t, _, world, __: t.add("registry.events_loaded", len(world.events)),
    )
    for append in ("create", "destroy", "transcribe"):
        wrap(registry.World, append, "registry.append")
    wrap(registry.World, "to_jsonl", "registry.to_jsonl")
    wrap(registry.World, "alive_objects", "registry.alive_objects")
    for query in ("copy_number", "classify", "extinct", "lineage"):
        wrap(registry, query, f"registry.{query}")
    wrap(
        registry, "longest_shared", "registry.longest_shared",
        post=lambda t, args, *_: t.add("registry.longest_shared.contents", len(args[0])),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(times: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    times: spans.totals() of the pass; counts: Tracer.counts plus
    "cli.artifact_bytes".  A layer the workload never reaches reads 0.
    """
    s = lambda key: times.get(key, 0.0)  # noqa: E731
    n = lambda key: counts.get(key, 0)  # noqa: E731
    c = lambda key: int(times.get(key, 0))  # noqa: E731
    out: dict[str, float] = {}

    kernel_s = s("kernels.mutate_sites.self_s")
    sites, flips = n("kernels.sites"), n("kernels.flips")
    out["kernels.mutate_sites.calls"] = c("kernels.mutate_sites.calls")
    out["kernels.mutate_sites.sites"] = sites
    out["kernels.mutate_sites.flips"] = flips
    out["kernels.mutate_sites.self_s"] = kernel_s
    out["kernels.ns_per_site"] = _ratio(kernel_s * 1e9, sites)
    out["kernels.msites_per_s"] = _ratio(sites / 1e6, kernel_s)
    out["kernels.flips_per_site"] = _ratio(flips, sites)
    out["kernels.bytes_computed"] = n("kernels.bytes_computed")
    for arm in ("hot", "fidelity"):
        out[f"kernels.{arm}.self_s"] = s(f"{arm}:kernels.mutate_sites.self_s")
        out[f"kernels.{arm}.flips"] = n(f"{arm}:kernels.flips")

    immune_s = s("replicator.immune_step.self_s")
    cull_s = s("replicator.cull_to_capacity.self_s")
    out["replicator.days"] = n("replicator.days")
    out["replicator.immune_step.self_s"] = immune_s
    out["replicator.immune_step.virions"] = n("replicator.immune_virions")
    out["replicator.immune_us_per_virion"] = _ratio(immune_s * 1e6, n("replicator.immune_virions"))
    out["replicator.posters"] = n("replicator.posters")
    out["replicator.kills"] = n("replicator.kills")
    out["replicator.cull_to_capacity.self_s"] = cull_s
    out["replicator.culled"] = n("replicator.culled")
    out["replicator.replicate_population.self_s"] = s("replicator.replicate_population.self_s")
    out["replicator.hot_path_share"] = _ratio(
        kernel_s + immune_s + cull_s, s("replicator_run.total_s")
    )

    run_s = s("soup.run_until.total_s")
    out["soup.events"] = n("soup.events")
    out["soup.run_until.self_s"] = s("soup.run_until.self_s")
    for part in ("soup_experiment", "soup_reactor", "treatment", "control"):
        out[f"soup.{part.removeprefix('soup_')}.us_per_event"] = _ratio(
            s(f"{part}:soup.run_until.total_s") * 1e6, n(f"{part}:soup.events")
        )
    out["soup.audit.calls"] = c("soup.audit.calls")
    out["soup.audit.self_s"] = s("soup.audit.self_s")
    out["soup.audit.share"] = _ratio(s("soup.audit.total_s"), run_s)
    out["soup.species_peak"] = n("soup.species_peak")

    out["lifespan.cohort_step.self_s"] = s("lifespan.cohort_step.self_s")
    out["lifespan.cohort_census.calls"] = c("lifespan.cohort_census.calls")
    out["lifespan.cohort_census.self_s"] = s("lifespan.cohort_census.self_s")
    out["lifespan.census_us_per_day"] = _ratio(
        s("lifespan.cohort_census.self_s") * 1e6, c("lifespan.cohort_census.calls")
    )
    for fn in ("life_table", "growth_rate"):
        out[f"lifespan.{fn}.calls"] = c(f"lifespan.{fn}.calls")
        out[f"lifespan.{fn}.self_s"] = s(f"lifespan.{fn}.self_s")
    grid = n("lifespan.sweep_grid_points")
    out["lifespan.sweep_grid_points"] = grid
    out["lifespan.sweep_memo_hit_ratio"] = _ratio(
        grid - c("lifespan_sweep:lifespan.growth_rate.calls"), grid
    )

    loaded = n("registry.events_loaded")
    out["registry.from_jsonl.self_s"] = s("registry.from_jsonl.self_s")
    out["registry.events_loaded"] = loaded
    out["registry.us_per_event_loaded"] = _ratio(s("registry.from_jsonl.total_s") * 1e6, loaded)
    out["registry.append.self_s"] = s("registry.append.self_s")
    out["registry.to_jsonl.self_s"] = s("registry.to_jsonl.self_s")
    out["registry.alive_objects.calls"] = c("registry.alive_objects.calls")
    out["registry.alive_objects.self_s"] = s("registry.alive_objects.self_s")
    for query in ("copy_number", "classify", "lineage", "longest_shared"):
        out[f"registry.{query}.self_s"] = s(f"registry.{query}.self_s")
    out["registry.longest_shared.contents"] = n("registry.longest_shared.contents")

    out["rng.stream.calls"] = c("rng.stream.calls")
    out["rng.stream.self_s"] = s("rng.stream.self_s")
    out["cli.main.self_s"] = s("cli.main.self_s")
    out["cli.artifact_bytes"] = n("cli.artifact_bytes")
    return out
