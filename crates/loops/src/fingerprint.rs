//! Stable fingerprints for cache keys.
//!
//! The corpus-execution harness (`swp-harness`) keys its on-disk result
//! cache by `(ddg fingerprint, machine fingerprint, config fingerprint)`.
//! Those keys must be *stable*: the same loop and machine must hash to
//! the same value across processes, runs, and Rust releases — which
//! rules out `std::hash::DefaultHasher` (its algorithm is explicitly
//! unspecified). This module hand-rolls FNV-1a 64, a fixed published
//! algorithm, over a canonical byte encoding of the hashed structures.
//!
//! The encoding is length-prefixed (every variable-length field is
//! preceded by its length) so distinct structures cannot collide by
//! concatenation ambiguity, and every integer is serialized as
//! little-endian `u64`.

use swp_ddg::Ddg;
use swp_machine::Machine;

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher with a stable, documented
/// algorithm (unlike `std`'s `DefaultHasher`).
///
/// ```
/// use swp_loops::fingerprint::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// let a = h.finish();
/// let mut h2 = Fnv64::new();
/// h2.write(b"hello");
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs an integer as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string, length-prefixed so field boundaries are
    /// unambiguous.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Renders a fingerprint as the fixed-width hex form used in the JSONL
/// artifact schema (16 lowercase hex digits).
pub fn to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses the fixed-width hex form back to a fingerprint.
pub fn from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Stable fingerprint of a dependence graph: covers node names, classes,
/// latencies, and every edge with its distance, all in creation order.
/// Two structurally identical graphs built in the same order fingerprint
/// identically; any change to a node or edge changes the value.
pub fn ddg_fingerprint(ddg: &Ddg) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(ddg.num_nodes() as u64);
    for (_, node) in ddg.nodes() {
        h.write_str(&node.name);
        h.write_u64(node.class.index() as u64);
        h.write_u64(u64::from(node.latency));
    }
    h.write_u64(ddg.num_edges() as u64);
    for e in ddg.edges() {
        h.write_u64(e.src.index() as u64);
        h.write_u64(e.dst.index() as u64);
        h.write_u64(u64::from(e.distance));
    }
    h.finish()
}

/// Stable fingerprint of a machine description: covers every unit type's
/// name, copy count, latency, and full reservation-table mark pattern,
/// plus the issue-bundle constraints (width and every slot group) —
/// machines differing only in bundle limits must never alias, or the
/// harness and daemon result caches would serve one machine's answers
/// for the other.
pub fn machine_fingerprint(machine: &Machine) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(machine.num_classes() as u64);
    for t in machine.types() {
        h.write_str(&t.name);
        h.write_u64(u64::from(t.count));
        h.write_u64(u64::from(t.latency));
        let rt = &t.reservation;
        h.write_u64(rt.stages() as u64);
        for s in 0..rt.stages() {
            let offs = rt.stage_offsets(s);
            h.write_u64(offs.len() as u64);
            for l in offs {
                h.write_u64(l as u64);
            }
        }
    }
    match machine.bundle() {
        None => h.write_u64(0),
        Some(b) => {
            h.write_u64(1);
            h.write_u64(u64::from(b.width));
            h.write_u64(b.groups.len() as u64);
            for g in &b.groups {
                h.write_str(&g.name);
                h.write_u64(u64::from(g.cap));
                h.write_u64(g.classes.len() as u64);
                for &c in &g.classes {
                    h.write_u64(c as u64);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{generate, SuiteConfig};
    use swp_ddg::OpClass;

    #[test]
    fn fnv_matches_published_vectors() {
        // Classic FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hex_round_trips() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(from_hex(&to_hex(fp)), Some(fp));
        }
        assert_eq!(from_hex("zzzz"), None);
        assert_eq!(from_hex("00"), None);
    }

    #[test]
    fn ddg_fingerprint_is_stable_and_sensitive() {
        let build = || {
            let mut g = Ddg::new();
            let a = g.add_node("a", OpClass::new(0), 1);
            let b = g.add_node("b", OpClass::new(1), 2);
            g.add_edge(a, b, 0).unwrap();
            g
        };
        let fp = ddg_fingerprint(&build());
        assert_eq!(fp, ddg_fingerprint(&build()));

        // Any field change moves the fingerprint.
        let mut g = build();
        let c = g.add_node("c", OpClass::new(0), 1);
        assert_ne!(fp, ddg_fingerprint(&g));
        g.add_edge(c, c, 1).unwrap();
        let with_edge = ddg_fingerprint(&g);
        let mut g2 = build();
        let c2 = g2.add_node("c", OpClass::new(0), 1);
        g2.add_edge(c2, c2, 2).unwrap(); // distance differs
        assert_ne!(with_edge, ddg_fingerprint(&g2));
    }

    #[test]
    fn corpus_fingerprints_are_distinct_and_reproducible() {
        let cfg = SuiteConfig {
            num_loops: 64,
            ..SuiteConfig::pldi95_default()
        };
        let a: Vec<u64> = generate(&cfg)
            .iter()
            .map(|l| ddg_fingerprint(&l.ddg))
            .collect();
        let b: Vec<u64> = generate(&cfg)
            .iter()
            .map(|l| ddg_fingerprint(&l.ddg))
            .collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        // Loops may legitimately coincide structurally, but most differ.
        assert!(dedup.len() > 56, "suspiciously many collisions");
    }

    #[test]
    fn machine_fingerprints_distinguish_models() {
        let fps = [
            machine_fingerprint(&Machine::example_pldi95()),
            machine_fingerprint(&Machine::example_clean()),
            machine_fingerprint(&Machine::ppc604()),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
        assert_eq!(fps[0], machine_fingerprint(&Machine::example_pldi95()));
    }

    #[test]
    fn machine_fingerprints_cover_bundle_fields() {
        use swp_machine::{BundleSpec, SlotGroup};
        let base = Machine::example_clean();
        let width = |w| {
            Machine::example_clean()
                .with_bundle(BundleSpec::width(w))
                .unwrap()
        };
        // No-bundle vs bundle, and distinct widths, must never alias:
        // these keys drive the harness and daemon result caches.
        assert_ne!(machine_fingerprint(&base), machine_fingerprint(&width(2)));
        assert_ne!(
            machine_fingerprint(&width(2)),
            machine_fingerprint(&width(3))
        );
        // Slot groups are covered too: cap, member set, and name.
        let grouped = |cap, classes: Vec<usize>| {
            Machine::example_clean()
                .with_bundle(BundleSpec {
                    width: 2,
                    groups: vec![SlotGroup {
                        name: "g".into(),
                        cap,
                        classes,
                    }],
                })
                .unwrap()
        };
        assert_ne!(
            machine_fingerprint(&width(2)),
            machine_fingerprint(&grouped(1, vec![1]))
        );
        assert_ne!(
            machine_fingerprint(&grouped(1, vec![1])),
            machine_fingerprint(&grouped(2, vec![1]))
        );
        assert_ne!(
            machine_fingerprint(&grouped(1, vec![1])),
            machine_fingerprint(&grouped(1, vec![2]))
        );
    }
}
