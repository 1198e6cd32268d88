//! `uis_batch`: library fRepair of UIS 20,000 tuples (the first point of
//! Fig. 8(d)) on a yago-profile in-memory KB, `parallel_repair` with two
//! workers, every pass on a fresh `MatchContext` — so each pass pays the
//! index build and a cold value cache, as a batch user cleaning a new
//! table does.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dr_core::{
    fast_repair, parallel_repair, ApplyOptions, CacheRegistry, DetectiveRule, MatchContext,
    ParallelOptions, RegistryConfig, RelationReport,
};
use dr_datasets::{KbProfile, UisWorld};
use dr_kb::{FxHashSet, KnowledgeBase};
use dr_relation::{inject, NoiseSpec, Relation};

use crate::layers::{distinct_probes, Split};
use crate::stats::{mean, median, peak_rss_mb, quantile, secs};
use crate::{setup_burst, Args, Outcome, SetupTimes, THREADS};

const TUPLES: usize = 20_000;
/// Set-ups per run (each about 60 ms); `setup_s` is the fastest.
const SETUPS: usize = 30;
/// Passes measured even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;

/// Order-sensitive digest of a relation: every cell and every `+` mark.
pub fn digest(relation: &Relation) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for tuple in relation.tuples() {
        tuple.cells().hash(&mut h);
        for attr in tuple.positive_attrs() {
            attr.index().hash(&mut h);
        }
        0xFFu8.hash(&mut h);
    }
    h.finish()
}

/// One measured pass: wall time of the `parallel_repair` call and its
/// report.
struct Pass {
    wall_s: f64,
    report: RelationReport,
    ok: bool,
}

/// Repairs a copy of `dirty` on a fresh context: cold indexes and a
/// relation-lifetime value cache, built and dropped inside the call.
fn pass(kb: &KnowledgeBase, rules: &[DetectiveRule], dirty: &Relation, want: u64) -> Pass {
    pass_on(&MatchContext::new(kb), rules, dirty, want)
}

/// Repairs a copy of `dirty` through `ctx` and checks it against the
/// reference digest `want`.
fn pass_on(ctx: &MatchContext<'_>, rules: &[DetectiveRule], dirty: &Relation, want: u64) -> Pass {
    let mut relation = dirty.clone();
    let opts = ParallelOptions {
        threads: THREADS,
        ..ParallelOptions::default()
    };
    let started = Instant::now();
    let report = parallel_repair(ctx, rules, &mut relation, &opts);
    let wall_s = secs(started.elapsed());
    let ok = report.resilience.failed == 0
        && report.resilience.degraded == 0
        && digest(&relation) == want;
    Pass { wall_s, report, ok }
}

/// Set-up: KB build and rule compilation.
fn setup(world: &UisWorld, times: &mut SetupTimes) -> (KnowledgeBase, Vec<DetectiveRule>) {
    let started = Instant::now();
    let kb = world.kb(&KbProfile::yago());
    times.build_s.push(secs(started.elapsed()));
    let rules = UisWorld::rules(&kb);
    times.setup_s.push(secs(started.elapsed()));
    (kb, rules)
}

/// Per-layer metrics `uis_batch` does not exercise: no request, decode,
/// delta or snapshot happens in a library pass.
const NOT_EXERCISED: &[&str] = &[
    "kb.image_open_s",
    "kb.delta_apply_s",
    "relation.decode_s",
    "core.cache.sweep_s",
    "core.cache.invalidated_entries",
    "core.snapshot.persist_s",
    "core.snapshot.bytes_per_persist",
    "core.snapshot.saves",
    "serve.handle_s",
    "serve.transport_s",
    "serve.handler_residual_s",
    "serve.queue_wait_s",
    "serve.keepalive_reuse",
    "serve.shed",
    "serve.delta_p50_ms",
    "serve.delta_p90_ms",
];

pub fn run(args: &Args) -> Outcome {
    // Inputs (not part of set-up): the world, and its relation with 10%
    // noise outside `Name`.
    let world = UisWorld::generate(TUPLES, args.seed);
    let dirty = {
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        inject(
            &clean,
            &NoiseSpec::new(0.10, args.seed).with_excluded(vec![name]),
            &world.semantic_source(),
        )
        .0
    };

    let mut times = SetupTimes::default();
    let (kb, rules) = setup_burst(SETUPS, || setup(&world, &mut times));

    // Reference output: sequential fRepair, once.
    let mut reference = dirty.clone();
    let ref_report = fast_repair(
        &MatchContext::new(&kb),
        &rules,
        &mut reference,
        &ApplyOptions::default(),
    );
    let want = digest(&reference);
    eprintln!(
        "perfbench: uis_batch seed {}: {} tuples, {} rules, {} edges; set-up {:.3}s; \
         reference {} changes",
        args.seed,
        dirty.len(),
        rules.len(),
        kb.num_edges(),
        times.setup_s(),
        ref_report.total_changes()
    );
    let probes = if args.trace {
        distinct_probes(&rules, [&dirty])
    } else {
        Vec::new()
    };

    // One unmeasured pass first: the allocator and page tables settle once
    // per process, not once per pass.
    let mut attempted = 1u64;
    let mut failed = u64::from(!pass(&kb, &rules, &dirty, want).ok);
    let mut pass_s = Vec::new();
    // Traced runs: wall time of each traced iteration, the pass and the
    // calls timed around it.
    let mut iteration_s = Vec::new();
    let mut candidates = Vec::new();
    // Per traced pass: one sample per per-layer metric, by metric name.
    let mut layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    while started.elapsed() < args.seconds || pass_s.len() < MIN_PASSES {
        attempted += 1;
        if !args.trace {
            let p = pass(&kb, &rules, &dirty, want);
            failed += u64::from(!p.ok);
            pass_s.push(p.wall_s);
            continue;
        }
        let iteration = Instant::now();

        // simmatch: the index build on a fresh memo, as the pass's own
        // prewarm does it. The context keeps its value cache in a registry
        // so that it can be warmed below.
        let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
        let fresh = MatchContext::with_registry(&kb, Arc::clone(&registry));
        let t0 = Instant::now();
        fresh.prewarm(&rules);
        let index_build_s = secs(t0.elapsed());

        let p = pass(&kb, &rules, &dirty, want);
        pass_s.push(p.wall_s);
        let r = &p.report;

        // Replays through the prewarmed fresh context.
        let t0 = Instant::now();
        let mut found = 0usize;
        for (value, ty, sim) in &probes {
            found += black_box(fresh.candidates(*ty, *sim, value)).len();
        }
        let probe_s = secs(t0.elapsed());
        candidates.push(found as f64);

        // kb: every adjacency pair the pass's rows read, read once.
        let mut out_pairs = FxHashSet::default();
        let mut in_pairs = FxHashSet::default();
        for fp in &r.footprints {
            out_pairs.extend(fp.out_pairs.iter().copied());
            in_pairs.extend(fp.in_pairs.iter().copied());
        }
        let t0 = Instant::now();
        for &(s, rel) in &out_pairs {
            black_box(fresh.kb_objects(s, rel));
        }
        for &(o, rel) in &in_pairs {
            black_box(fresh.kb_subjects(o, rel));
        }
        let adjacency_s = secs(t0.elapsed());

        // core.repair on its own: the repair loop of the same relation once
        // the indexes and the value cache are warm, so that it neither
        // probes nor reads adjacency. The first pass through `fresh` fills
        // the registry's value cache; the second is the one timed. Both
        // must give the reference output too.
        let warm_fill = pass_on(&fresh, &rules, &dirty, want);
        let warm = pass_on(&fresh, &rules, &dirty, want);
        failed += u64::from(!(p.ok && warm_fill.ok && warm.ok));

        for (name, value) in [
            ("simmatch.index_build_s", index_build_s),
            ("simmatch.probe_s", probe_s),
            ("kb.adjacency_s", adjacency_s),
            (
                "kb.adjacency_reads",
                (out_pairs.len() + in_pairs.len()) as f64,
            ),
            ("core.repair.prewarm_s", secs(r.timing.prewarm)),
            ("core.repair.loop_s", secs(r.timing.repair)),
            ("warm_loop_s", secs(warm.report.timing.repair)),
            ("core.repair.rules_applied", r.total_applications() as f64),
            ("core.cache.node_hits", r.cache.node_hits as f64),
            ("core.cache.node_misses", r.cache.node_misses as f64),
            ("core.cache.edge_hits", r.cache.edge_hits as f64),
            ("core.cache.edge_misses", r.cache.edge_misses as f64),
            ("core.cache.evictions", r.cache.evictions as f64),
            // Every miss inserts one entry, except when both workers miss
            // the same key at once (the first insert wins).
            (
                "core.cache.entries",
                (r.cache.misses() - r.cache.evictions) as f64,
            ),
            ("core.cache.hit_ratio", r.cache.hit_rate()),
        ] {
            layer.entry(name).or_default().push(value);
        }
        iteration_s.push(secs(iteration.elapsed()));
    }

    let mut metrics = BTreeMap::new();
    let ok_ratio = 1.0 - failed as f64 / attempted as f64;
    if !args.trace {
        let p50 = median(&pass_s);
        metrics.insert("setup_s".into(), times.setup_s());
        metrics.insert("peak_rss_mb".into(), peak_rss_mb());
        metrics.insert("ok_ratio".into(), ok_ratio);
        metrics.insert("tuples_per_s".into(), TUPLES as f64 / p50);
        metrics.insert("repair_rps".into(), 1.0 / p50);
        metrics.insert("repair_p50_ms".into(), p50 * 1e3);
        metrics.insert("repair_p95_ms".into(), quantile(&pass_s, 0.95) * 1e3);
        eprintln!(
            "perfbench: uis_batch {} passes, p50 {:.1} ms, {:.0} tuples/s",
            pass_s.len(),
            p50 * 1e3,
            TUPLES as f64 / p50
        );
    } else {
        for name in NOT_EXERCISED {
            metrics.insert((*name).to_owned(), 0.0);
        }
        let mut layer: BTreeMap<&str, f64> =
            layer.iter().map(|(name, v)| (*name, mean(v))).collect();
        let warm_loop = layer.remove("warm_loop_s").unwrap_or(0.0);
        for (name, value) in &layer {
            metrics.insert((*name).to_owned(), *value);
        }
        let op = mean(&pass_s);
        let prewarm = layer["core.repair.prewarm_s"];
        let loop_s = layer["core.repair.loop_s"];
        for (name, value) in [
            ("kb.build_s", times.build_s()),
            ("simmatch.probes", probes.len() as f64),
            (
                "simmatch.candidates_per_probe",
                mean(&candidates) / probes.len().max(1) as f64,
            ),
            ("core.repair.unattributed_s", op - prewarm - loop_s),
            ("trace.overhead_ratio", mean(&iteration_s) / op),
        ] {
            metrics.insert(name.to_owned(), value);
        }

        // The pass probes once per node miss, at the replay's cost per
        // probe. Replays run on one thread; inside the pass the same work
        // is spread over both workers, so it costs 1/THREADS of the wall.
        // `core.repair` is the warm loop, timed on its own: so the residual
        // shows how far these estimates, and the time outside both phases,
        // miss the cold pass.
        let per_probe = layer["simmatch.probe_s"] / probes.len().max(1) as f64;
        let probe_wall = per_probe * layer["core.cache.node_misses"] / THREADS as f64;
        let adjacency_wall = layer["kb.adjacency_s"] / THREADS as f64;
        let mut split = Split::new(op);
        split.add("simmatch", prewarm + probe_wall);
        split.add("kb", adjacency_wall);
        split.add("core.repair", warm_loop);
        split.report("uis_batch", &mut metrics);
    }
    Outcome {
        attempted,
        failed,
        checks_ok: true,
        metrics,
    }
}
