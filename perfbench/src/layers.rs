//! The per-layer self-time split of one end-to-end operation.
//!
//! Each workload measures, from outside the program, how long one
//! operation takes end to end (`op_s`) and how much of it each layer
//! spends on its own (self time: the layer's time minus the time of the
//! layers it calls). Each workload times at least one layer apart from
//! the operation itself, so the self times are not a partition of `op_s`
//! by construction; how far they miss it is the residual, reported as
//! `trace.residual_share` = |Σ self − op| ÷ op.

use std::collections::BTreeMap;

use dr_core::{DetectiveRule, NodeType};
use dr_kb::FxHashSet;
use dr_relation::Relation;
use dr_simmatch::SimFn;

/// Layers of the self-time split, in report order.
pub const LAYERS: &[&str] = &[
    "serve",
    "relation",
    "simmatch",
    "kb",
    "core.repair",
    "core.snapshot",
];

/// The distinct `(value, node type, sim)` lookups the rules' columns ask
/// of the match indexes over `relations`: what `simmatch` replays.
pub fn distinct_probes<'a>(
    rules: &[DetectiveRule],
    relations: impl IntoIterator<Item = &'a Relation>,
) -> Vec<(String, NodeType, SimFn)> {
    let mut seen = FxHashSet::default();
    for relation in relations {
        for rule in rules {
            for node in rule
                .evidence()
                .iter()
                .chain([rule.positive(), rule.negative()])
            {
                for tuple in relation.tuples() {
                    seen.insert((tuple.get(node.col).to_owned(), node.ty, node.sim));
                }
            }
        }
    }
    seen.into_iter().collect()
}

/// Self seconds per layer for one mean operation of `op_s` seconds.
pub struct Split {
    op_s: f64,
    self_s: BTreeMap<&'static str, f64>,
}

impl Split {
    pub fn new(op_s: f64) -> Self {
        Split {
            op_s,
            self_s: BTreeMap::new(),
        }
    }

    /// Charges `secs` of self time to `layer` (one of [`LAYERS`]).
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        *self.self_s.entry(layer).or_default() += secs;
    }

    /// Writes `trace.<layer>.self_s`/`.share`, `trace.op_s` and
    /// `trace.residual_share` into `metrics`, and prints the split to
    /// stderr.
    pub fn report(&self, workload: &str, metrics: &mut BTreeMap<String, f64>) {
        eprintln!(
            "perfbench: {workload} layer split of one operation ({:.3} ms):",
            self.op_s * 1e3
        );
        let mut sum = 0.0;
        for &layer in LAYERS {
            let s = self.self_s.get(layer).copied().unwrap_or(0.0);
            sum += s;
            let share = s / self.op_s;
            eprintln!(
                "perfbench:   {layer:<14} {:>10.4} ms  {:>6.1}%",
                s * 1e3,
                share * 1e2
            );
            metrics.insert(format!("trace.{layer}.self_s"), s);
            metrics.insert(format!("trace.{layer}.share"), share);
        }
        let residual = (sum - self.op_s).abs() / self.op_s;
        eprintln!(
            "perfbench:   {:<14} {:>10.4} ms  {:>6.1}%",
            "residual",
            (self.op_s - sum) * 1e3,
            residual * 1e2
        );
        metrics.insert("trace.op_s".into(), self.op_s);
        metrics.insert("trace.residual_share".into(), residual);
    }
}
