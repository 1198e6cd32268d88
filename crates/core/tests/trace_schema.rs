//! Golden-file and sampling-subset tests for the JSONL repair traces
//! (DESIGN.md §4d).
//!
//! The trace schema is a contract: events carry no wall-clock fields, so a
//! seeded single-tuple repair emits a byte-identical event sequence on
//! every run and machine — pinned here against a checked-in golden file.
//! The sampler is monotone in the rate, so any sampled trace is a subset
//! of the rate-1.0 trace under the same seed.

use dr_core::{fast_repair, parallel_repair, ApplyOptions, MatchContext, ParallelOptions};
use dr_kb::fixtures::nobel_mini_kb;
use dr_obs::{memory_tracer, Obs, Sampler, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/single_tuple_trace.jsonl");

fn traced_ctx(kb: &dr_kb::KnowledgeBase, sampler: Sampler) -> (MatchContext<'_>, TraceBuf) {
    let (tracer, buf) = memory_tracer(sampler);
    let obs = Arc::new(Obs::with_tracer(tracer));
    (MatchContext::new(kb).with_obs(obs), buf)
}

type TraceBuf = Arc<Mutex<Vec<u8>>>;

fn lines(buf: &TraceBuf) -> Vec<String> {
    String::from_utf8(buf.lock().clone())
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Every line must parse as a flat JSON object with an `ev` field — a
/// minimal structural validation mirroring the CI `jq -e` check.
fn assert_jsonl_shape(lines: &[String]) {
    for line in lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an object: {line}"
        );
        assert!(line.contains("\"ev\":\""), "no ev field: {line}");
        assert!(!line.contains('\n'), "embedded newline: {line}");
    }
}

/// Regenerates the golden file. Run explicitly after an intentional schema
/// change: `cargo test -p dr-core --test trace_schema -- --ignored`.
#[test]
#[ignore = "writes the golden file; run only to regenerate it"]
fn regenerate_golden() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let (ctx, buf) = traced_ctx(&kb, Sampler::new(42, 1.0));
    let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
    relation.push(dr_core::fixtures::table1_dirty().tuple(0).clone());
    fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/single_tuple_trace.jsonl"
    );
    std::fs::write(path, buf.lock().as_slice()).unwrap();
}

/// A seeded single-tuple fast repair emits exactly the documented event
/// sequence, byte for byte.
#[test]
fn single_tuple_trace_matches_golden() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let (ctx, buf) = traced_ctx(&kb, Sampler::new(42, 1.0));
    let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
    relation.push(dr_core::fixtures::table1_dirty().tuple(0).clone());
    fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());

    let got = lines(&buf);
    assert_jsonl_shape(&got);
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        got, want,
        "trace drifted from the golden file; if the schema change is \
         intentional, regenerate crates/core/tests/golden/single_tuple_trace.jsonl"
    );
}

/// The same seed and data produce the same trace on repeated runs.
#[test]
fn traces_are_deterministic_across_runs() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let run = || {
        let (ctx, buf) = traced_ctx(&kb, Sampler::new(7, 0.5));
        let mut relation = dr_core::fixtures::table1_dirty();
        fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
        lines(&buf)
    };
    assert_eq!(run(), run());
}

/// Under one seed, the rows a rate-r sampler keeps are a subset of the
/// rows rate 1.0 keeps — so on the deterministic one-worker repairer the
/// sampled trace's lines are exactly a sub-multiset of the full trace's.
#[test]
fn sampled_trace_is_subset_of_full_trace() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let run = |rate: f64| {
        let (ctx, buf) = traced_ctx(&kb, Sampler::new(99, rate));
        let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
        let base = dr_core::fixtures::table1_dirty();
        for _ in 0..8 {
            for t in base.tuples() {
                relation.push(t.clone());
            }
        }
        fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
        lines(&buf)
    };
    let full = run(1.0);
    for rate in [0.0, 0.25, 0.5] {
        let sampled = run(rate);
        assert_jsonl_shape(&sampled);
        let mut budgeted: HashMap<&str, usize> = HashMap::new();
        for line in &full {
            *budgeted.entry(line.as_str()).or_default() += 1;
        }
        for line in &sampled {
            let left = budgeted
                .get_mut(line.as_str())
                .unwrap_or_else(|| panic!("rate {rate}: line not in full trace: {line}"));
            assert!(*left > 0, "rate {rate}: line over-represented: {line}");
            *left -= 1;
        }
        assert!(sampled.len() < full.len() || rate == 1.0 || full.len() == sampled.len());
    }
}

/// The rows appearing in a sampled trace (by `tuple_start` events).
fn sampled_rows(lines: &[String]) -> Vec<u64> {
    let mut rows: Vec<u64> = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"tuple_start\""))
        .map(|l| {
            let rest = &l[l.find("\"row\":").unwrap() + 6..];
            rest[..rest.find('}').unwrap()].parse().unwrap()
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Reads the unsigned number after `"key":` in a flat trace line.
fn num_field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag).unwrap() + tag.len()..];
    let end = rest.find([',', '}']).unwrap();
    rest[..end].parse().unwrap()
}

/// Splits a trace into its relation envelope (every line without a `row`
/// field, in order) and its per-row blocks (`tuple_start` through
/// `outcome`, sorted). Each `cache` event's shared hit/miss split is folded
/// into its sum: which of two concurrent rows fills a shared value-cache
/// entry first is scheduling-dependent, but the number of shared lookups a
/// row makes is not.
fn envelope_and_blocks(lines: &[String]) -> (Vec<String>, Vec<Vec<String>>) {
    let mut envelope = Vec::new();
    let mut blocks = Vec::new();
    let mut block = Vec::new();
    for line in lines {
        if !line.contains("\"row\":") {
            envelope.push(line.clone());
            continue;
        }
        if line.contains("\"ev\":\"cache\"") {
            let shared = num_field(line, "shared_hits") + num_field(line, "shared_misses");
            let head = &line[..line.find(",\"shared_hits\"").unwrap()];
            block.push(format!("{head},\"shared_lookups\":{shared}}}"));
        } else {
            block.push(line.clone());
        }
        if line.contains("\"ev\":\"outcome\"") {
            blocks.push(std::mem::take(&mut block));
        }
    }
    assert!(block.is_empty(), "unterminated per-row block: {block:?}");
    blocks.sort();
    (envelope, blocks)
}

/// One worker and four run the same driver, so their traces agree: the
/// relation envelope line for line (same `algo`, same phases), and the
/// per-row blocks as a set — the scheduler interleaves the blocks, and the
/// shared-cache hit/miss split inside them is scheduling-dependent, but
/// the sampler keys on the row index alone, so both runs keep exactly the
/// same rows, each a subset of the rate-1.0 rows.
#[test]
fn parallel_sampling_selects_the_same_rows() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let run = |rate: f64, threads: usize| {
        let (ctx, buf) = traced_ctx(&kb, Sampler::new(99, rate));
        let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
        let base = dr_core::fixtures::table1_dirty();
        for _ in 0..8 {
            for t in base.tuples() {
                relation.push(t.clone());
            }
        }
        parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        );
        lines(&buf)
    };
    let full_rows = sampled_rows(&run(1.0, 4));
    let sequential = run(0.5, 1);
    let parallel = run(0.5, 4);
    assert_jsonl_shape(&sequential);
    assert_jsonl_shape(&parallel);
    let parallel_rows = sampled_rows(&parallel);
    assert_eq!(
        parallel_rows,
        sampled_rows(&sequential),
        "sampling is thread-count invariant"
    );
    assert!(parallel_rows.iter().all(|r| full_rows.contains(r)));
    assert!(parallel_rows.len() < full_rows.len());

    let (seq_envelope, seq_blocks) = envelope_and_blocks(&sequential);
    let (par_envelope, par_blocks) = envelope_and_blocks(&parallel);
    assert_eq!(seq_envelope, par_envelope, "relation envelope differs");
    assert_eq!(seq_blocks.len(), parallel_rows.len());
    assert_eq!(seq_blocks, par_blocks, "per-row blocks differ");
}

/// Rate 0 still emits the relation-level envelope (start, phases, end) —
/// only per-tuple spans are sampled away.
#[test]
fn rate_zero_keeps_relation_envelope_only() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let (ctx, buf) = traced_ctx(&kb, Sampler::new(1, 0.0));
    let mut relation = dr_core::fixtures::table1_dirty();
    fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    let got = lines(&buf);
    let evs: Vec<&str> = got
        .iter()
        .map(|l| {
            let rest = &l[l.find("\"ev\":\"").unwrap() + 6..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    assert_eq!(
        evs,
        [
            "relation_start",
            "phase_enter",
            "phase_exit",
            "phase_enter",
            "phase_exit",
            "relation_end"
        ]
    );
}

/// A custom sink (anything `Write + Send`) receives the same bytes the
/// in-memory helper captures.
#[test]
fn file_sink_round_trips() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let dir = std::env::temp_dir().join(format!("dr-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    {
        let file = std::fs::File::create(&path).unwrap();
        let tracer = Tracer::new(Box::new(file), Sampler::new(42, 1.0));
        let obs = Arc::new(Obs::with_tracer(tracer));
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
        relation.push(dr_core::fixtures::table1_dirty().tuple(0).clone());
        fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
        obs.tracer().unwrap().flush();
    }
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(written, GOLDEN);
}
