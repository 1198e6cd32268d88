//! `ValueCache::encode_hottest` writes the `.drsnap` image straight from the
//! cache's shards; `snapshot::encode` writes it from an exported payload.
//! Over random caches — any shard count, bounded or unbounded, with a
//! random subset of entries referenced so the hottest-first order matters —
//! the two must produce the same bytes, and the bytes must decode back to
//! the exported payload.

use dr_core::repair::snapshot::{decode, encode};
use dr_core::{
    MatchContext, NodeType, SchemaNode, SnapshotKey, SnapshotPayload, ValueCache, ValueCacheConfig,
};
use dr_kb::fixtures::nobel_mini_kb;
use dr_kb::{ClassId, InstanceId, LiteralId, Node, PredId};
use dr_relation::AttrId;
use dr_simmatch::SimFn;
use proptest::prelude::*;

/// A generated schema node: `(column, type, sim tag, sim argument)`, where
/// type 4 is the literal pool and 0..4 are class ids.
type RawSchemaNode = (usize, usize, u8, u32);

fn schema_node((col, ty, sim, arg): RawSchemaNode) -> SchemaNode {
    let ty = match ty {
        4 => NodeType::Literal,
        c => NodeType::Class(ClassId::from_index(c)),
    };
    let sim = match sim {
        0 => SimFn::Equal,
        1 => SimFn::EditDistance(arg % 3),
        _ => SimFn::Jaccard(1 + (arg % 999) as u16),
    };
    SchemaNode::new(AttrId::from_index(col), ty, sim)
}

fn raw_schema_node() -> (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<u8>,
    std::ops::Range<u32>,
) {
    (0..6, 0..5, 0..3, 0..1000)
}

#[allow(clippy::type_complexity)]
fn payload(
    nodes: Vec<(RawSchemaNode, String, Vec<(bool, usize)>)>,
    edges: Vec<(
        (RawSchemaNode, usize, RawSchemaNode),
        String,
        String,
        bool,
        Vec<usize>,
    )>,
) -> SnapshotPayload {
    SnapshotPayload {
        nodes: nodes
            .into_iter()
            .map(|(sn, value, cands)| {
                let cands = cands
                    .into_iter()
                    .map(|(instance, id)| {
                        if instance {
                            Node::Instance(InstanceId::from_index(id))
                        } else {
                            Node::Literal(LiteralId::from_index(id))
                        }
                    })
                    .collect();
                (schema_node(sn), value, cands)
            })
            .collect(),
        edges: edges
            .into_iter()
            .map(|((from, rel, to), from_value, to_value, ok, probed)| {
                (
                    (schema_node(from), PredId::from_index(rel), schema_node(to)),
                    from_value,
                    to_value,
                    ok,
                    probed.into_iter().map(InstanceId::from_index).collect(),
                )
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_hottest_matches_encode_of_export(
        nodes in prop::collection::vec(
            (raw_schema_node(), "[a-d]{0,4}", prop::collection::vec((any::<bool>(), 0usize..50), 0..4)),
            0..40,
        ),
        edges in prop::collection::vec(
            ((raw_schema_node(), 0usize..5, raw_schema_node()), "[a-c]{0,3}", "[a-c]{0,3}", any::<bool>(),
             prop::collection::vec(0usize..50, 0..4)),
            0..40,
        ),
        sizing in (0usize..4, 0usize..3, 0usize..48),
        hit_mask in any::<u64>(),
        key in (any::<u64>(), any::<u64>()),
    ) {
        let payload = payload(nodes, edges);
        let (shards, cache_budget, persist_budget) = ([1, 2, 4, 16][sizing.0], [0, 8, 24][sizing.1], sizing.2);
        let key = SnapshotKey { kb_content_hash: key.0, schema_fingerprint: key.1 };
        let cache = ValueCache::with_config(ValueCacheConfig { shards, max_entries: cache_budget });
        cache.import(&payload);
        // Lookups of imported keys set the clock bits that order the
        // export. In a bounded cache some keys were evicted on import;
        // their lookups miss and compute against the fixture KB (every
        // generated class and predicate id exists there).
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        for (i, (sn, value, _)) in payload.nodes.iter().enumerate() {
            if hit_mask >> (i % 64) & 1 == 1 {
                let _ = cache.candidates(&ctx, sn, value);
            }
        }
        for (i, ((from, rel, to), from_value, to_value, _, _)) in payload.edges.iter().enumerate() {
            if hit_mask >> ((i + 32) % 64) & 1 == 1 {
                let _ = cache.edge_ok(&ctx, from, *rel, to, from_value, to_value);
            }
        }

        for max in [0, persist_budget] {
            let exported = cache.export_hottest(max);
            let direct = cache.encode_hottest(key, max);
            prop_assert_eq!(&direct, &encode(key, &exported));
            prop_assert_eq!(decode(&direct, key).expect("decodes"), exported);
        }
    }
}
