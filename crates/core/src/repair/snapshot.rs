//! On-disk snapshots of [`ValueCache`](crate::repair::value_cache::ValueCache)
//! contents — the persistence half of the caching hierarchy's level 0
//! (DESIGN.md §4a).
//!
//! A snapshot file holds a bounded set of `(schema-node, value) → candidates`
//! and `(edge-sig, value, value) → connected` entries, keyed on disk by
//! `(KB content hash, schema fingerprint)`. The content hash
//! ([`dr_kb::content_hash`]) pins down the KB's exact id assignment, so the
//! raw [`Node`] ids inside the entries are meaningful to any process whose KB
//! hashes identically; any other process simply never opens the file.
//!
//! ## Format (version 2, little-endian)
//!
//! ```text
//! magic            [u8; 4] = b"DRVC"
//! version          u32
//! kb content hash  u64
//! schema fp        u64
//! node count       u32
//! edge count       u32
//! node entries     { SchemaNode, value: str, candidates: [Node] } × n
//! edge entries     { SchemaNode, PredId, SchemaNode, from: str, to: str,
//!                    ok: u8, probed: u32 count + [u32 instance id] } × m
//! checksum         u64  (FxHash of every preceding byte)
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes; `SchemaNode` is
//! `{col: u32, ty: tag u8 + u32, sim: tag u8 + u32}`; `Node` is a tag byte
//! plus a `u32` id. Version 2 added the per-edge `probed` instance list —
//! the hit-attribution record footprint-based invalidation needs
//! ([`EdgeEntry`](crate::repair::value_cache::EdgeEntry)); version-1 files
//! are rejected as [`SnapshotError::BadVersion`] and degrade to a cold
//! start like any other unusable snapshot.
//!
//! ## Safety model
//!
//! Snapshots are an *optimization*, never a source of truth. Every load
//! failure — missing file, short read, bad magic, unknown version, checksum
//! mismatch, malformed entry, out-of-bounds id — degrades to a cold cache
//! with a [`SnapshotError`] diagnostic; no partial state is ever installed.
//! Writes go through a temp file in the same directory followed by an atomic
//! rename, so readers never observe a half-written snapshot.

use crate::graph::schema::{NodeType, SchemaNode};
use crate::repair::value_cache::EdgeSig;
use dr_kb::hash::FxHasher;
use dr_kb::{ClassId, InstanceId, KbRef, LiteralId, Node, PredId};
use dr_relation::{AttrId, Schema};
use dr_simmatch::SimFn;
use std::fmt;
use std::hash::Hasher;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File magic: "DR value cache".
pub const MAGIC: [u8; 4] = *b"DRVC";

/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 2;

/// File extension used for snapshot files.
pub const EXTENSION: &str = "drsnap";

/// Disk identity of a snapshot: unlike the in-process
/// [`CacheKey`](crate::repair::registry::CacheKey), the KB half is the
/// process-independent content hash, not the generation id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    /// The KB's deterministic content hash ([`KbRef::content_hash`]) the
    /// entries were computed against.
    pub kb_content_hash: u64,
    /// [`Schema::fingerprint`] of the relation schema.
    pub schema_fingerprint: u64,
}

impl SnapshotKey {
    /// The disk identity for `(kb, schema)` — either KB backend.
    pub fn for_pair<'a>(kb: impl Into<KbRef<'a>>, schema: &Schema) -> Self {
        Self {
            kb_content_hash: kb.into().content_hash(),
            schema_fingerprint: schema.fingerprint(),
        }
    }

    /// The file this key lives at under `dir`.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!(
            "vc-{:016x}-{:016x}.{EXTENSION}",
            self.kb_content_hash, self.schema_fingerprint
        ))
    }
}

/// The portable contents of one value cache: an explicit list of node and
/// edge entries, hottest first (the export order decides what survives a
/// bounded persist).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotPayload {
    /// `(schema node, cell value) → candidate nodes`.
    pub nodes: Vec<(SchemaNode, String, Vec<Node>)>,
    /// `(edge signature, from value, to value) → (connected, probed
    /// instances)` — the probed list is the entry's invalidation footprint.
    pub edges: Vec<(EdgeSig, String, String, bool, Vec<InstanceId>)>,
}

impl SnapshotPayload {
    /// Total entries across both maps.
    pub fn len(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// Whether the payload holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Checks every id embedded in the payload against the live `(kb,
    /// schema)` pair. A snapshot that passes the key check can still be a
    /// hash collision or a forged file; ids out of range would index out of
    /// bounds much later, so reject the whole payload up front.
    pub fn validate<'a>(
        &self,
        kb: impl Into<KbRef<'a>>,
        schema: &Schema,
    ) -> Result<(), SnapshotError> {
        let kb = kb.into();
        let attrs = schema.arity();
        let node_ok = |n: &Node| match *n {
            Node::Instance(i) => i.index() < kb.num_instances(),
            Node::Literal(l) => l.index() < kb.num_literals(),
        };
        let schema_node_ok = |sn: &SchemaNode| {
            sn.col.index() < attrs
                && match sn.ty {
                    NodeType::Class(c) => c.index() < kb.num_classes(),
                    NodeType::Literal => true,
                }
        };
        for (sn, _, cands) in &self.nodes {
            if !schema_node_ok(sn) || !cands.iter().all(node_ok) {
                return Err(SnapshotError::Malformed("node entry id out of bounds"));
            }
        }
        for ((from, rel, to), _, _, _, probed) in &self.edges {
            if !schema_node_ok(from) || !schema_node_ok(to) || rel.index() >= kb.num_preds() {
                return Err(SnapshotError::Malformed("edge entry id out of bounds"));
            }
            if !probed.iter().all(|i| i.index() < kb.num_instances()) {
                return Err(SnapshotError::Malformed("probed instance id out of bounds"));
            }
        }
        Ok(())
    }
}

/// Why a snapshot failed to load (or save). Every variant degrades to a cold
/// cache; none aborts a repair.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error (including "no snapshot yet" — see
    /// [`SnapshotError::is_absence`]).
    Io(io::Error),
    /// File shorter than the fixed header + checksum.
    TooShort(usize),
    /// Leading magic bytes are not `DRVC`.
    BadMagic([u8; 4]),
    /// Written by an unknown (newer or older) format version.
    BadVersion(u32),
    /// Stored checksum does not match the bytes — torn write or bit rot.
    ChecksumMismatch {
        /// Checksum recorded in the file trailer.
        stored: u64,
        /// Checksum recomputed over the preceding bytes.
        computed: u64,
    },
    /// Header key does not match the `(kb, schema)` the caller asked for.
    KeyMismatch {
        /// Key recorded in the file header.
        found: SnapshotKey,
        /// Key the caller expected.
        expected: SnapshotKey,
    },
    /// Body ended mid-entry or an entry failed structural validation.
    Malformed(&'static str),
}

impl SnapshotError {
    /// Whether this is the benign "no snapshot file exists" case — a routine
    /// cold start rather than a corruption event worth a diagnostic.
    pub fn is_absence(&self) -> bool {
        matches!(self, SnapshotError::Io(e) if e.kind() == io::ErrorKind::NotFound)
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o: {e}"),
            SnapshotError::TooShort(n) => write!(f, "file too short ({n} bytes)"),
            SnapshotError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch (stored {stored:#x}, computed {computed:#x})"
                )
            }
            SnapshotError::KeyMismatch { found, expected } => write!(
                f,
                "key mismatch (found kb={:#x} schema={:#x}, expected kb={:#x} schema={:#x})",
                found.kb_content_hash,
                found.schema_fingerprint,
                expected.kb_content_hash,
                expected.schema_fingerprint
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ----- encoding -----------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_sim(buf: &mut Vec<u8>, sim: SimFn) {
    let (tag, arg) = match sim {
        SimFn::Equal => (0u8, 0u32),
        SimFn::EditDistance(k) => (1, k),
        SimFn::Jaccard(pm) => (2, u32::from(pm)),
        SimFn::Cosine(pm) => (3, u32::from(pm)),
    };
    buf.push(tag);
    put_u32(buf, arg);
}

fn put_schema_node(buf: &mut Vec<u8>, sn: &SchemaNode) {
    put_u32(buf, sn.col.index() as u32);
    match sn.ty {
        NodeType::Literal => {
            buf.push(0);
            put_u32(buf, 0);
        }
        NodeType::Class(c) => {
            buf.push(1);
            put_u32(buf, c.index() as u32);
        }
    }
    put_sim(buf, sn.sim);
}

fn put_node(buf: &mut Vec<u8>, n: Node) {
    match n {
        Node::Instance(i) => {
            buf.push(0);
            put_u32(buf, i.index() as u32);
        }
        Node::Literal(l) => {
            buf.push(1);
            put_u32(buf, l.index() as u32);
        }
    }
}

/// Byte offset of the node-count field in the header (after magic,
/// version, and the two key halves).
const COUNTS_AT: usize = 24;

/// Streaming writer of the snapshot byte format: the header goes out with
/// zero counts, entries are appended as they are visited, and
/// [`Encoder::finish`] patches the real counts into the header before
/// appending the checksum. Both [`encode`] and
/// [`ValueCache::encode_hottest`](crate::repair::value_cache::ValueCache::encode_hottest)
/// write through it, so a payload and a live cache holding the same
/// entries encode to the same bytes. Node entries must all precede edge
/// entries, as the format lays them out.
pub(crate) struct Encoder {
    buf: Vec<u8>,
    nodes: u32,
    edges: u32,
}

impl Encoder {
    /// Starts an image for `key`, sized for about `entries` entries.
    pub(crate) fn new(key: SnapshotKey, entries: usize) -> Self {
        let mut buf = Vec::with_capacity(64 + entries * 48);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, FORMAT_VERSION);
        put_u64(&mut buf, key.kb_content_hash);
        put_u64(&mut buf, key.schema_fingerprint);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        Self {
            buf,
            nodes: 0,
            edges: 0,
        }
    }

    /// Appends one `(schema node, value) → candidates` entry.
    pub(crate) fn node(&mut self, sn: &SchemaNode, value: &str, cands: &[Node]) {
        debug_assert_eq!(self.edges, 0, "node entries precede edge entries");
        let buf = &mut self.buf;
        put_schema_node(buf, sn);
        put_str(buf, value);
        put_u32(buf, cands.len() as u32);
        for &c in cands {
            put_node(buf, c);
        }
        self.nodes += 1;
    }

    /// Appends one `(edge signature, from, to) → (ok, probed)` entry.
    pub(crate) fn edge(
        &mut self,
        (from, rel, to): &EdgeSig,
        from_value: &str,
        to_value: &str,
        ok: bool,
        probed: &[InstanceId],
    ) {
        let buf = &mut self.buf;
        put_schema_node(buf, from);
        put_u32(buf, rel.index() as u32);
        put_schema_node(buf, to);
        put_str(buf, from_value);
        put_str(buf, to_value);
        buf.push(u8::from(ok));
        put_u32(buf, probed.len() as u32);
        for i in probed {
            put_u32(buf, i.index() as u32);
        }
        self.edges += 1;
    }

    /// Entries appended so far.
    pub(crate) fn len(&self) -> usize {
        self.nodes as usize + self.edges as usize
    }

    /// Patches the entry counts into the header and appends the checksum.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.buf[COUNTS_AT..COUNTS_AT + 4].copy_from_slice(&self.nodes.to_le_bytes());
        self.buf[COUNTS_AT + 4..COUNTS_AT + 8].copy_from_slice(&self.edges.to_le_bytes());
        let mut h = FxHasher::default();
        h.write(&self.buf);
        let checksum = h.finish();
        put_u64(&mut self.buf, checksum);
        self.buf
    }
}

/// Serializes `payload` under `key` into the version-2 byte format,
/// checksum included.
pub fn encode(key: SnapshotKey, payload: &SnapshotPayload) -> Vec<u8> {
    let mut enc = Encoder::new(key, payload.len());
    for (sn, value, cands) in &payload.nodes {
        enc.node(sn, value, cands);
    }
    for (sig, from_value, to_value, ok, probed) in &payload.edges {
        enc.edge(sig, from_value, to_value, *ok, probed);
    }
    enc.finish()
}

// ----- decoding -----------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Malformed("body truncated mid-entry"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8"))
    }

    fn sim(&mut self) -> Result<SimFn, SnapshotError> {
        let tag = self.u8()?;
        let arg = self.u32()?;
        Ok(match tag {
            0 => SimFn::Equal,
            1 => SimFn::EditDistance(arg),
            2 => SimFn::Jaccard(
                u16::try_from(arg).map_err(|_| SnapshotError::Malformed("sim arg overflow"))?,
            ),
            3 => SimFn::Cosine(
                u16::try_from(arg).map_err(|_| SnapshotError::Malformed("sim arg overflow"))?,
            ),
            _ => return Err(SnapshotError::Malformed("unknown sim tag")),
        })
    }

    fn schema_node(&mut self) -> Result<SchemaNode, SnapshotError> {
        let col = self.u32()? as usize;
        let ty_tag = self.u8()?;
        let ty_arg = self.u32()? as usize;
        let ty = match ty_tag {
            0 => NodeType::Literal,
            1 => NodeType::Class(ClassId::from_index(ty_arg)),
            _ => return Err(SnapshotError::Malformed("unknown node-type tag")),
        };
        if col > usize::from(u16::MAX) {
            return Err(SnapshotError::Malformed("column id overflow"));
        }
        let sim = self.sim()?;
        Ok(SchemaNode::new(AttrId::from_index(col), ty, sim))
    }

    fn node(&mut self) -> Result<Node, SnapshotError> {
        let tag = self.u8()?;
        let id = self.u32()? as usize;
        Ok(match tag {
            0 => Node::Instance(InstanceId::from_index(id)),
            1 => Node::Literal(LiteralId::from_index(id)),
            _ => return Err(SnapshotError::Malformed("unknown node tag")),
        })
    }
}

/// Minimum plausible file: header (4+4+8+8+4+4) + trailing checksum (8).
const MIN_LEN: usize = 40;

/// Decodes a snapshot byte image, verifying magic, version, checksum, and
/// the expected key before parsing the body. The `expected` key is the one
/// derived from the live `(kb, schema)` pair; a file whose header disagrees
/// is treated exactly like corruption (cold start).
pub fn decode(bytes: &[u8], expected: SnapshotKey) -> Result<SnapshotPayload, SnapshotError> {
    if bytes.len() < MIN_LEN {
        return Err(SnapshotError::TooShort(bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let mut h = FxHasher::default();
    h.write(body);
    let computed = h.finish();
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    let magic: [u8; 4] = cur.take(4)?.try_into().expect("4-byte magic");
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let found = SnapshotKey {
        kb_content_hash: cur.u64()?,
        schema_fingerprint: cur.u64()?,
    };
    if found != expected {
        return Err(SnapshotError::KeyMismatch { found, expected });
    }
    let node_count = cur.u32()? as usize;
    let edge_count = cur.u32()? as usize;

    let mut payload = SnapshotPayload::default();
    for _ in 0..node_count {
        let sn = cur.schema_node()?;
        let value = cur.string()?;
        let n_cands = cur.u32()? as usize;
        // Each candidate costs 5 bytes on disk; a count the remaining bytes
        // cannot hold is corrupt (checksum collisions are the only way here).
        if n_cands > (cur.bytes.len() - cur.pos) / 5 {
            return Err(SnapshotError::Malformed("candidate count exceeds body"));
        }
        let mut cands = Vec::with_capacity(n_cands);
        for _ in 0..n_cands {
            cands.push(cur.node()?);
        }
        payload.nodes.push((sn, value, cands));
    }
    for _ in 0..edge_count {
        let from = cur.schema_node()?;
        let rel = PredId::from_index(cur.u32()? as usize);
        let to = cur.schema_node()?;
        let from_value = cur.string()?;
        let to_value = cur.string()?;
        let ok = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Malformed("edge flag not 0/1")),
        };
        let n_probed = cur.u32()? as usize;
        // Each probed id costs 4 bytes on disk; reject counts the remaining
        // bytes cannot hold before allocating.
        if n_probed > (cur.bytes.len() - cur.pos) / 4 {
            return Err(SnapshotError::Malformed("probed count exceeds body"));
        }
        let mut probed = Vec::with_capacity(n_probed);
        for _ in 0..n_probed {
            probed.push(InstanceId::from_index(cur.u32()? as usize));
        }
        payload
            .edges
            .push(((from, rel, to), from_value, to_value, ok, probed));
    }
    if cur.pos != cur.bytes.len() {
        return Err(SnapshotError::Malformed("trailing bytes after entries"));
    }
    Ok(payload)
}

// ----- file i/o -----------------------------------------------------------

/// Writes `payload` under `key` into `dir`, atomically: the bytes go to a
/// write-unique temp file first and are renamed over the final path, so a
/// concurrent reader sees either the old snapshot or the new one, never a
/// torn write. The temp name carries the pid *and* a process-global write
/// counter: two concurrent persists of the same key — two processes, or two
/// in-process callers (a server's background flusher and an eviction
/// write-back) — each own their temp file, so neither can truncate the
/// other mid-write and rename a torn snapshot. Creates `dir` if missing.
pub fn write_snapshot(
    dir: &Path,
    key: SnapshotKey,
    payload: &SnapshotPayload,
) -> Result<PathBuf, SnapshotError> {
    write_snapshot_bytes(dir, key, &encode(key, payload))
}

/// [`write_snapshot`] for an already encoded image.
pub(crate) fn write_snapshot_bytes(
    dir: &Path,
    key: SnapshotKey,
    bytes: &[u8],
) -> Result<PathBuf, SnapshotError> {
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let final_path = key.path_in(dir);
    let tmp_path = dir.join(format!(
        ".vc-{:016x}-{:016x}.{}.{}.tmp",
        key.kb_content_hash,
        key.schema_fingerprint,
        std::process::id(),
        WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp_path, &final_path) {
        let _ = std::fs::remove_file(&tmp_path);
        return Err(e.into());
    }
    Ok(final_path)
}

/// Reads and decodes the snapshot for `key` from `dir`. A missing file is
/// reported as `SnapshotError::Io(NotFound)` ([`SnapshotError::is_absence`]);
/// everything else means the file existed but could not be trusted.
pub fn read_snapshot(dir: &Path, key: SnapshotKey) -> Result<SnapshotPayload, SnapshotError> {
    let bytes = std::fs::read(key.path_in(dir))?;
    decode(&bytes, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::nobel_schema;
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_kb::KnowledgeBase;

    fn sample_key() -> SnapshotKey {
        SnapshotKey {
            kb_content_hash: 0xDEAD_BEEF_0BAD_F00D,
            schema_fingerprint: 0x0123_4567_89AB_CDEF,
        }
    }

    fn sample_payload(kb: &KnowledgeBase, schema: &Schema) -> SnapshotPayload {
        let city = SchemaNode::new(
            schema.attr_expect("City"),
            NodeType::Class(kb.class_named(names::CITY).expect("city class")),
            SimFn::Equal,
        );
        let name = SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Class(kb.class_named(names::LAUREATE).expect("laureate class")),
            SimFn::EditDistance(2),
        );
        let works_at = kb.pred_named(names::WORKS_AT).expect("worksAt");
        let haifa = kb.instances_labeled("Haifa")[0];
        SnapshotPayload {
            nodes: vec![
                (city, "Haifa".into(), vec![Node::Instance(haifa)]),
                (name, "Nobody".into(), vec![]),
            ],
            edges: vec![
                (
                    (name, works_at, city),
                    "A".into(),
                    "B".into(),
                    false,
                    vec![],
                ),
                (
                    (city, works_at, name),
                    "Haifa".into(),
                    "X".into(),
                    true,
                    vec![haifa],
                ),
            ],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let payload = sample_payload(&kb, &schema);
        let key = sample_key();
        let bytes = encode(key, &payload);
        let back = decode(&bytes, key).expect("roundtrip");
        assert_eq!(back, payload);
        assert_eq!(back.len(), 4);
        assert!(!back.is_empty());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let key = sample_key();
        let bytes = encode(key, &SnapshotPayload::default());
        assert_eq!(bytes.len(), MIN_LEN);
        assert!(decode(&bytes, key).expect("empty").is_empty());
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let bytes = encode(sample_key(), &sample_payload(&kb, &schema));
        let other = SnapshotKey {
            kb_content_hash: 1,
            schema_fingerprint: 2,
        };
        assert!(matches!(
            decode(&bytes, other),
            Err(SnapshotError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn file_roundtrip_and_absence() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let dir = std::env::temp_dir().join(format!("drsnap-unit-{}", std::process::id()));
        let key = SnapshotKey::for_pair(&kb, &schema);
        assert!(read_snapshot(&dir, key).expect_err("missing").is_absence());
        let payload = sample_payload(&kb, &schema);
        let path = write_snapshot(&dir, key, &payload).expect("write");
        assert_eq!(path, key.path_in(&dir));
        let back = read_snapshot(&dir, key).expect("read");
        assert_eq!(back, payload);
        back.validate(&kb, &schema).expect("ids in bounds");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_out_of_bounds_ids() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let mut payload = sample_payload(&kb, &schema);
        payload.nodes[0]
            .2
            .push(Node::Instance(InstanceId::from_index(kb.num_instances())));
        assert!(matches!(
            payload.validate(&kb, &schema),
            Err(SnapshotError::Malformed(_))
        ));

        let mut payload = sample_payload(&kb, &schema);
        payload.edges[0].0 .1 = PredId::from_index(kb.num_preds());
        assert!(payload.validate(&kb, &schema).is_err());

        let mut payload = sample_payload(&kb, &schema);
        payload.edges[1]
            .4
            .push(InstanceId::from_index(kb.num_instances()));
        assert!(payload.validate(&kb, &schema).is_err());

        let mut payload = sample_payload(&kb, &schema);
        payload.nodes[0].0.col = AttrId::from_index(schema.arity());
        assert!(payload.validate(&kb, &schema).is_err());
    }

    /// A pre-probed-list (version 1) file is rejected as `BadVersion` — the
    /// registry turns that into a capped diagnostic and a cold start.
    #[test]
    fn version_1_files_are_rejected() {
        let key = sample_key();
        let mut bytes = encode(key, &SnapshotPayload::default());
        // Rewrite the version field (bytes 4..8) and re-checksum.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let mut h = FxHasher::default();
        h.write(&bytes[..body_len]);
        let checksum = h.finish();
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode(&bytes, key).expect_err("v1 must be rejected");
        assert!(matches!(err, SnapshotError::BadVersion(1)));
        assert!(!err.is_absence());
    }

    #[test]
    fn errors_render_diagnostics() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let key = sample_key();
        let bytes = encode(key, &sample_payload(&kb, &schema));
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        let err = decode(&flipped, key).expect_err("corrupt");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(!err.is_absence());
    }
}
