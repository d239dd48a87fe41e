//! `pbrs-placement` — rack-aware stripe placement shared by the block store
//! and the cluster simulator.
//!
//! The paper's §2.1 observation is that placement *creates* the network
//! problem: every block of a stripe lives in a different rack, so every
//! helper byte of a recovery crosses a top-of-rack switch. This crate is the
//! single model of that decision, consumed by both sides of the workspace:
//!
//! * the **cluster simulator** places its sampled stripes over racks of
//!   machines and attributes recovery traffic to the TOR switches;
//! * the **block store** places each stripe's chunks over a pool of mounted
//!   [`ChunkBackend`]s (one `chunkd` endpoint group = one rack), so the same
//!   cross-rack-vs-intra-rack split becomes measurable on real sockets.
//!
//! Both consume the same three types:
//!
//! * [`RackMap`] — named racks, each owning a set of disk (or machine)
//!   indices that together cover `0..disk_count` exactly;
//! * [`PlacementPolicy`] — how a stripe's shards are spread over the racks:
//!   [`PlacementPolicy::RackDisjoint`] (the paper's production layout: every
//!   shard in a distinct rack), [`PlacementPolicy::RackAware`] (grouped:
//!   fill as few racks as possible so repairs can find same-rack helpers),
//!   or [`PlacementPolicy::Identity`] (shard `i` on disk `i`, the store's
//!   legacy fixed layout);
//! * [`PlacementMap`] — a validated `(rack map, policy, width, seed)`
//!   quadruple that deterministically assigns every stripe key a disk set.
//!
//! Placement is **deterministic**: the same seed and stripe key always
//! produce the same disk set (an internal SplitMix64 generator, no external
//! RNG). Consumers that want randomness feed a random seed; consumers that
//! persist placements (the store's manifest) can also re-derive them.
//!
//! [`ChunkBackend`]: https://docs.rs/pbrs-store
//!
//! # Example
//!
//! ```
//! use pbrs_placement::{PlacementMap, PlacementPolicy, RackMap};
//!
//! // Six racks of two disks each, a (4, 2) code: width 6 over 12 disks.
//! let racks = RackMap::uniform(6, 2);
//! let map = PlacementMap::new(racks, PlacementPolicy::RackDisjoint, 6, 42).unwrap();
//! let disks = map.disks_for(0);
//! assert_eq!(disks.len(), 6);
//! // Rack-disjoint: all six shards land in six distinct racks.
//! let mut rack_ids: Vec<usize> = disks.iter().map(|&d| map.racks().rack_of(d).unwrap()).collect();
//! rack_ids.sort_unstable();
//! rack_ids.dedup();
//! assert_eq!(rack_ids.len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::str::FromStr;

/// Errors from rack-map construction and stripe placement.
///
/// The paper-relevant one is [`PlacementError::WidthExceedsRacks`]: a
/// rack-disjoint stripe needs at least as many racks as shards (§2.1's
/// layout is impossible otherwise). It used to be an assertion deep in the
/// simulator; it is now a typed error surfaced through configuration
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The rack map has no racks at all.
    NoRacks,
    /// A rack has no disks.
    EmptyRack {
        /// Name of the empty rack.
        rack: String,
    },
    /// A disk index appears in more than one rack.
    DuplicateDisk {
        /// The repeated disk index.
        disk: usize,
    },
    /// The racks' disk indices do not cover `0..disk_count` exactly.
    NonContiguousDisks {
        /// The first index in `0..disk_count` owned by no rack.
        missing: usize,
        /// Total disks claimed by the map.
        disks: usize,
    },
    /// A rack-disjoint stripe is wider than the number of racks.
    WidthExceedsRacks {
        /// Shards per stripe.
        width: usize,
        /// Racks available.
        racks: usize,
    },
    /// A stripe is wider than the whole disk pool.
    WidthExceedsDisks {
        /// Shards per stripe.
        width: usize,
        /// Disks available.
        disks: usize,
    },
    /// The identity policy needs exactly one disk per shard.
    IdentityPoolMismatch {
        /// Shards per stripe.
        width: usize,
        /// Disks in the pool.
        disks: usize,
    },
    /// A policy name failed to parse.
    UnknownPolicy {
        /// The rejected name.
        name: String,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoRacks => write!(f, "rack map has no racks"),
            PlacementError::EmptyRack { rack } => write!(f, "rack {rack:?} has no disks"),
            PlacementError::DuplicateDisk { disk } => {
                write!(f, "disk {disk} appears in more than one rack")
            }
            PlacementError::NonContiguousDisks { missing, disks } => write!(
                f,
                "rack map claims {disks} disks but owns no disk {missing}; \
                 racks must cover 0..{disks} exactly"
            ),
            PlacementError::WidthExceedsRacks { width, racks } => write!(
                f,
                "stripe width {width} exceeds rack count {racks}; \
                 rack-disjoint placement impossible"
            ),
            PlacementError::WidthExceedsDisks { width, disks } => {
                write!(f, "stripe width {width} exceeds the {disks}-disk pool")
            }
            PlacementError::IdentityPoolMismatch { width, disks } => write!(
                f,
                "identity placement needs exactly {width} disks (one per shard), \
                 but the pool has {disks}"
            ),
            PlacementError::UnknownPolicy { name } => write!(
                f,
                "unknown placement policy {name:?} \
                 (expected identity, rack-disjoint or rack-aware)"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Named racks partitioning a disk pool: rack `r` owns `disks(r)`, and all
/// racks together own `0..disk_count` exactly once.
///
/// "Disk" is the store's word; for the simulator the same indices are
/// machines. Either way, two indices in the same rack exchange bytes through
/// the rack's own switch, and indices in different racks pay the cross-rack
/// (TOR/aggregation) path the paper measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackMap {
    names: Vec<String>,
    disks: Vec<Vec<usize>>,
    /// `rack_of[disk]` = index of the owning rack.
    rack_of: Vec<usize>,
}

impl RackMap {
    /// Builds a rack map from `(name, disks)` groups.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NoRacks`], [`PlacementError::EmptyRack`],
    /// [`PlacementError::DuplicateDisk`], or
    /// [`PlacementError::NonContiguousDisks`] when the groups do not
    /// partition `0..total` exactly.
    pub fn new(groups: Vec<(String, Vec<usize>)>) -> Result<Self, PlacementError> {
        if groups.is_empty() {
            return Err(PlacementError::NoRacks);
        }
        let total: usize = groups.iter().map(|(_, d)| d.len()).sum();
        let mut rack_of = vec![usize::MAX; total];
        for (rack, (name, disks)) in groups.iter().enumerate() {
            if disks.is_empty() {
                return Err(PlacementError::EmptyRack { rack: name.clone() });
            }
            for &disk in disks {
                if disk >= total {
                    return Err(PlacementError::NonContiguousDisks {
                        missing: rack_of
                            .iter()
                            .position(|&r| r == usize::MAX)
                            .unwrap_or(total),
                        disks: total,
                    });
                }
                if rack_of[disk] != usize::MAX {
                    return Err(PlacementError::DuplicateDisk { disk });
                }
                rack_of[disk] = rack;
            }
        }
        if let Some(missing) = rack_of.iter().position(|&r| r == usize::MAX) {
            return Err(PlacementError::NonContiguousDisks {
                missing,
                disks: total,
            });
        }
        let (names, disks) = groups.into_iter().unzip();
        Ok(RackMap {
            names,
            disks,
            rack_of,
        })
    }

    /// A map with `racks` racks of `disks_per_rack` disks each, named
    /// `rack-00`, `rack-01`, …; disk `i` lives in rack `i / disks_per_rack`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn uniform(racks: usize, disks_per_rack: usize) -> Self {
        assert!(racks > 0, "rack map needs at least one rack");
        assert!(disks_per_rack > 0, "racks need at least one disk");
        let groups = (0..racks)
            .map(|r| {
                (
                    format!("rack-{r:02}"),
                    (r * disks_per_rack..(r + 1) * disks_per_rack).collect(),
                )
            })
            .collect();
        // pbrs-lint: allow(panic-hygiene) -- a uniform partition of the pool always satisfies the group checks
        Self::new(groups).expect("uniform groups partition the pool")
    }

    /// A map where every disk is its own rack — the degenerate topology in
    /// which *all* traffic between disks is cross-rack. This is the store's
    /// legacy model (and the paper's worst case), so it is the default for
    /// stores opened without an explicit rack map.
    pub fn per_disk(disks: usize) -> Self {
        Self::uniform(disks, 1)
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.names.len()
    }

    /// Total disks across all racks.
    pub fn disk_count(&self) -> usize {
        self.rack_of.len()
    }

    /// Name of rack `rack`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn rack_name(&self, rack: usize) -> &str {
        &self.names[rack]
    }

    /// Disk indices of rack `rack`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn rack_disks(&self, rack: usize) -> &[usize] {
        &self.disks[rack]
    }

    /// The rack owning `disk`, or `None` when the index is out of range.
    pub fn rack_of(&self, disk: usize) -> Option<usize> {
        self.rack_of.get(disk).copied()
    }

    /// Whether two disks share a rack (bytes between them stay behind one
    /// TOR switch). Out-of-range indices are never in the same rack.
    pub fn same_rack(&self, a: usize, b: usize) -> bool {
        match (self.rack_of(a), self.rack_of(b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }

    /// Whether a placement is rack-disjoint: no two of its disks share a
    /// rack.
    pub fn is_rack_disjoint(&self, placement: &[usize]) -> bool {
        let mut racks: Vec<usize> = placement.iter().filter_map(|&d| self.rack_of(d)).collect();
        if racks.len() != placement.len() {
            return false; // out-of-range disk
        }
        racks.sort_unstable();
        racks.windows(2).all(|w| w[0] != w[1])
    }
}

/// How a stripe's shards are spread over the racks of a [`RackMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Shard `i` on disk `i`; the pool must have exactly one disk per shard.
    /// This is the store's legacy fixed layout and involves no randomness.
    Identity,
    /// Every shard in a distinct, pseudo-randomly chosen rack, on a random
    /// disk within that rack — the paper's §2.1 production placement, under
    /// which *every* helper read of a recovery crosses racks.
    RackDisjoint,
    /// Grouped placement: shards fill pseudo-randomly ordered racks one rack
    /// at a time, so a stripe occupies as few racks as possible and a repair
    /// can usually find same-rack helpers (the remedy explored by the
    /// rack-aware-recovery literature).
    RackAware,
}

impl PlacementPolicy {
    /// The policy's canonical name (`identity`, `rack-disjoint`,
    /// `rack-aware`), used in manifests and config files.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Identity => "identity",
            PlacementPolicy::RackDisjoint => "rack-disjoint",
            PlacementPolicy::RackAware => "rack-aware",
        }
    }

    /// Checks that stripes of `width` shards can be placed on `racks` under
    /// this policy.
    ///
    /// # Errors
    ///
    /// Returns the typed constraint violation: rack-disjoint needs
    /// `width <= racks.racks()`, rack-aware needs `width <=
    /// racks.disk_count()`, identity needs `width == racks.disk_count()`.
    pub fn validate_width(&self, racks: &RackMap, width: usize) -> Result<(), PlacementError> {
        match self {
            PlacementPolicy::Identity => {
                if width != racks.disk_count() {
                    return Err(PlacementError::IdentityPoolMismatch {
                        width,
                        disks: racks.disk_count(),
                    });
                }
            }
            PlacementPolicy::RackDisjoint => {
                if width > racks.racks() {
                    return Err(PlacementError::WidthExceedsRacks {
                        width,
                        racks: racks.racks(),
                    });
                }
            }
            PlacementPolicy::RackAware => {
                if width > racks.disk_count() {
                    return Err(PlacementError::WidthExceedsDisks {
                        width,
                        disks: racks.disk_count(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PlacementPolicy {
    type Err = PlacementError;

    fn from_str(s: &str) -> Result<Self, PlacementError> {
        match s {
            "identity" => Ok(PlacementPolicy::Identity),
            "rack-disjoint" => Ok(PlacementPolicy::RackDisjoint),
            "rack-aware" => Ok(PlacementPolicy::RackAware),
            other => Err(PlacementError::UnknownPolicy {
                name: other.to_string(),
            }),
        }
    }
}

/// A validated stripe→disk placement map: given a stripe key, returns the
/// `width` disks holding that stripe's shards, deterministically derived
/// from the map's seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    racks: RackMap,
    policy: PlacementPolicy,
    width: usize,
    seed: u64,
}

impl PlacementMap {
    /// Builds a map, validating that `width`-shard stripes fit the racks
    /// under `policy` (so the per-stripe lookups are infallible).
    ///
    /// # Errors
    ///
    /// Returns the [`PlacementPolicy::validate_width`] violation, or
    /// [`PlacementError::WidthExceedsDisks`] for a zero-width stripe pool.
    pub fn new(
        racks: RackMap,
        policy: PlacementPolicy,
        width: usize,
        seed: u64,
    ) -> Result<Self, PlacementError> {
        policy.validate_width(&racks, width)?;
        Ok(PlacementMap {
            racks,
            policy,
            width,
            seed,
        })
    }

    /// The rack map placed onto.
    pub fn racks(&self) -> &RackMap {
        &self.racks
    }

    /// The placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The disks holding the stripe identified by `key`, shard `i` on the
    /// `i`-th returned disk. Deterministic: the same map and key always
    /// return the same placement.
    pub fn disks_for(&self, key: u64) -> Vec<usize> {
        place(&self.racks, self.policy, self.width, self.seed ^ mix64(key))
    }

    /// [`PlacementMap::disks_for`] keyed by an object name and a stripe
    /// index — the store's per-stripe lookup.
    pub fn disks_for_object_stripe(&self, object: &str, stripe: u64) -> Vec<usize> {
        self.disks_for(object_stripe_key(object, stripe))
    }
}

/// One-shot stripe placement without building a [`PlacementMap`]: validates
/// the width each call and places the stripe identified by `key` under
/// `seed`. Callers placing many same-width stripes should prefer a
/// [`PlacementMap`] (validates once); callers whose width varies per call
/// (the simulator) use this.
///
/// # Errors
///
/// Same as [`PlacementPolicy::validate_width`].
pub fn place_stripe(
    racks: &RackMap,
    policy: PlacementPolicy,
    width: usize,
    seed: u64,
    key: u64,
) -> Result<Vec<usize>, PlacementError> {
    policy.validate_width(racks, width)?;
    Ok(place(racks, policy, width, seed ^ mix64(key)))
}

/// The placement kernel shared by [`PlacementMap::disks_for`] and
/// [`place_stripe`]: feasibility is already validated, `mixed` is the fully
/// mixed per-stripe seed.
fn place(racks: &RackMap, policy: PlacementPolicy, width: usize, mixed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(mixed);
    match policy {
        PlacementPolicy::Identity => (0..width).collect(),
        PlacementPolicy::RackDisjoint => {
            let mut rack_order: Vec<usize> = (0..racks.racks()).collect();
            shuffle(&mut rack_order, &mut rng);
            rack_order
                .into_iter()
                .take(width)
                .map(|rack| {
                    let disks = racks.rack_disks(rack);
                    disks[rng.below(disks.len() as u64) as usize]
                })
                .collect()
        }
        PlacementPolicy::RackAware => {
            let mut rack_order: Vec<usize> = (0..racks.racks()).collect();
            shuffle(&mut rack_order, &mut rng);
            // Largest racks first — greedy largest-first provably fills the
            // stripe with the minimum number of racks; the stable sort keeps
            // the shuffled order as the tie-break among equal-sized racks
            // (uniform maps therefore stay fully randomised).
            rack_order.sort_by_key(|&rack| core::cmp::Reverse(racks.rack_disks(rack).len()));
            let mut placement = Vec::with_capacity(width);
            for rack in rack_order {
                if placement.len() == width {
                    break;
                }
                let mut disks = racks.rack_disks(rack).to_vec();
                shuffle(&mut disks, &mut rng);
                let take = disks.len().min(width - placement.len());
                placement.extend_from_slice(&disks[..take]);
            }
            placement
        }
    }
}

/// The deterministic stripe key of `(object, stripe)`: FNV-1a over the
/// object name, mixed with the stripe index. Stable across runs and
/// platforms, so persisted and re-derived placements agree.
pub fn object_stripe_key(object: &str, stripe: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in object.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^ mix64(stripe)
}

/// SplitMix64: a tiny, well-mixed deterministic generator. Placement needs
/// reproducibility and spread, not cryptographic quality, and an internal
/// generator keeps this crate dependency-free.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform-ish value in `0..n` (`n > 0`). The modulo bias is below
    /// `n / 2^64`, far beneath anything placement statistics can observe.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next() % n
    }
}

/// The SplitMix64 finalizer, also used to mix stripe keys.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by the internal generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_map_construction_and_lookup() {
        let map = RackMap::new(vec![
            ("left".into(), vec![0, 2]),
            ("right".into(), vec![1, 3, 4]),
        ])
        .unwrap();
        assert_eq!(map.racks(), 2);
        assert_eq!(map.disk_count(), 5);
        assert_eq!(map.rack_name(0), "left");
        assert_eq!(map.rack_of(2), Some(0));
        assert_eq!(map.rack_of(4), Some(1));
        assert_eq!(map.rack_of(5), None);
        assert!(map.same_rack(1, 4));
        assert!(!map.same_rack(0, 1));
        assert!(!map.same_rack(0, 99));
        assert!(map.is_rack_disjoint(&[0, 1]));
        assert!(!map.is_rack_disjoint(&[1, 3]));
        assert!(!map.is_rack_disjoint(&[0, 99]));
    }

    #[test]
    fn rack_map_rejects_bad_groups() {
        assert_eq!(RackMap::new(vec![]), Err(PlacementError::NoRacks));
        assert!(matches!(
            RackMap::new(vec![("a".into(), vec![])]),
            Err(PlacementError::EmptyRack { .. })
        ));
        assert_eq!(
            RackMap::new(vec![("a".into(), vec![0, 1]), ("b".into(), vec![1])]),
            Err(PlacementError::DuplicateDisk { disk: 1 })
        );
        // {0, 2} is not a prefix: disk 1 is owned by nobody.
        assert!(matches!(
            RackMap::new(vec![("a".into(), vec![0, 2])]),
            Err(PlacementError::NonContiguousDisks { missing: 1, .. })
        ));
    }

    #[test]
    fn uniform_and_per_disk_builders() {
        let map = RackMap::uniform(3, 4);
        assert_eq!(map.racks(), 3);
        assert_eq!(map.disk_count(), 12);
        assert_eq!(map.rack_disks(1), &[4, 5, 6, 7]);
        assert_eq!(map.rack_name(2), "rack-02");

        let solo = RackMap::per_disk(5);
        assert_eq!(solo.racks(), 5);
        assert!(!solo.same_rack(0, 1), "per-disk racks never share");
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            PlacementPolicy::Identity,
            PlacementPolicy::RackDisjoint,
            PlacementPolicy::RackAware,
        ] {
            assert_eq!(policy.to_string().parse::<PlacementPolicy>(), Ok(policy));
        }
        assert!(matches!(
            "nope".parse::<PlacementPolicy>(),
            Err(PlacementError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn width_validation_is_typed_not_a_panic() {
        let racks = RackMap::uniform(4, 2);
        assert_eq!(
            PlacementPolicy::RackDisjoint.validate_width(&racks, 5),
            Err(PlacementError::WidthExceedsRacks { width: 5, racks: 4 })
        );
        assert_eq!(
            PlacementPolicy::RackAware.validate_width(&racks, 9),
            Err(PlacementError::WidthExceedsDisks { width: 9, disks: 8 })
        );
        assert_eq!(
            PlacementPolicy::Identity.validate_width(&racks, 6),
            Err(PlacementError::IdentityPoolMismatch { width: 6, disks: 8 })
        );
        // Width 8 on 4 racks × 2 disks: too wide for disjoint, fine for
        // rack-aware, exact for identity.
        assert!(matches!(
            PlacementMap::new(racks.clone(), PlacementPolicy::RackDisjoint, 8, 1),
            Err(PlacementError::WidthExceedsRacks { .. })
        ));
        assert!(PlacementMap::new(racks.clone(), PlacementPolicy::RackAware, 8, 1).is_ok());
        assert!(PlacementMap::new(racks, PlacementPolicy::Identity, 8, 1).is_ok());
    }

    #[test]
    fn placement_is_deterministic() {
        let map =
            PlacementMap::new(RackMap::uniform(6, 3), PlacementPolicy::RackDisjoint, 6, 7).unwrap();
        let again =
            PlacementMap::new(RackMap::uniform(6, 3), PlacementPolicy::RackDisjoint, 6, 7).unwrap();
        for key in 0..50 {
            assert_eq!(map.disks_for(key), again.disks_for(key));
        }
        assert_eq!(
            map.disks_for_object_stripe("obj", 3),
            again.disks_for_object_stripe("obj", 3)
        );
        // Different seeds diverge somewhere.
        let other =
            PlacementMap::new(RackMap::uniform(6, 3), PlacementPolicy::RackDisjoint, 6, 8).unwrap();
        assert!((0..50).any(|key| map.disks_for(key) != other.disks_for(key)));
    }

    #[test]
    fn rack_disjoint_spreads_and_rack_aware_groups() {
        let racks = RackMap::uniform(7, 2);
        let disjoint =
            PlacementMap::new(racks.clone(), PlacementPolicy::RackDisjoint, 6, 11).unwrap();
        let aware = PlacementMap::new(racks.clone(), PlacementPolicy::RackAware, 6, 11).unwrap();
        for key in 0..200 {
            let d = disjoint.disks_for(key);
            assert!(racks.is_rack_disjoint(&d), "{d:?}");
            let a = aware.disks_for(key);
            let mut used: Vec<usize> = a.iter().map(|&x| racks.rack_of(x).unwrap()).collect();
            used.sort_unstable();
            used.dedup();
            // Grouped: 6 shards over 2-disk racks use exactly 3 racks.
            assert_eq!(used.len(), 3, "{a:?}");
        }
    }

    #[test]
    fn rack_aware_uses_minimal_racks_on_non_uniform_maps() {
        // One 4-disk rack plus a solo disk: a width-4 stripe must fit in
        // the big rack alone, never spill onto the solo rack.
        let racks = RackMap::new(vec![
            ("big".into(), vec![0, 1, 2, 3]),
            ("solo".into(), vec![4]),
        ])
        .unwrap();
        let map = PlacementMap::new(racks.clone(), PlacementPolicy::RackAware, 4, 3).unwrap();
        for key in 0..100 {
            let disks = map.disks_for(key);
            let mut used: Vec<usize> = disks.iter().map(|&d| racks.rack_of(d).unwrap()).collect();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used, vec![0], "key {key}: {disks:?}");
        }
        // Width 5 needs both racks.
        let map = PlacementMap::new(racks.clone(), PlacementPolicy::RackAware, 5, 3).unwrap();
        assert_eq!(map.disks_for(9).len(), 5);
    }

    #[test]
    fn identity_is_the_fixed_layout() {
        let map =
            PlacementMap::new(RackMap::per_disk(6), PlacementPolicy::Identity, 6, 99).unwrap();
        for key in 0..10 {
            assert_eq!(map.disks_for(key), vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn placements_use_the_whole_pool_over_time() {
        let map = PlacementMap::new(RackMap::uniform(10, 3), PlacementPolicy::RackDisjoint, 6, 5)
            .unwrap();
        let mut seen = [false; 30];
        for key in 0..500 {
            for d in map.disks_for(key) {
                seen[d] = true;
            }
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= 29,
            "placement should spread across the pool"
        );
    }

    #[test]
    fn object_stripe_keys_differ() {
        // Distinct objects and stripes produce distinct keys (collisions
        // are possible in principle, but not among these).
        let mut keys = std::collections::HashSet::new();
        for object in ["a", "b", "obj-1", "obj-2"] {
            for stripe in 0..100 {
                assert!(keys.insert(object_stripe_key(object, stripe)));
            }
        }
    }
}
