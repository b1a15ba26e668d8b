//! The design registry: every known design family, resolvable by name.
//!
//! The registry is the single place a new design has to be listed for
//! the whole stack to see it: `fc_sweep`'s `--designs`/`--grid
//! designspace` parsing, grid presets, the catalogue printed by
//! `--list-designs`, and the bench harness all enumerate
//! [`DESIGN_FAMILIES`] instead of matching on a closed enum.
//!
//! # Adding a design
//!
//! 1. Implement the model in `fc-cache` (a `DramCacheModel`).
//! 2. Add a [`CacheSpec`](crate::CacheSpec) variant and a
//!    [`DesignSpec`] constructor (with the design's DRAM specs), its
//!    JSON encode/decode arms, and its arm in
//!    [`DesignSpec::build`], which boxes the model into the
//!    `fc_cache::BoxedModel` that the memory system calls.
//! 3. Append one [`DesignFamily`] row here.
//!
//! Sweeps, the CLI, hashing and the emitters pick the design up with
//! no further changes.

use crate::design::DesignSpec;

/// One named design family: a constructor over the capacity axis.
#[derive(Clone, Copy)]
pub struct DesignFamily {
    /// CLI / registry name (lowercase, no spaces).
    pub name: &'static str,
    /// One-line description for catalogue listings.
    pub summary: &'static str,
    /// Whether the family has a stacked-capacity axis (the baseline
    /// and ideal bounds do not).
    pub scales_with_capacity: bool,
    builder: fn(u64) -> DesignSpec,
}

impl DesignFamily {
    /// Builds the family's spec at `mb` megabytes of stacked capacity
    /// (ignored by capacity-independent families).
    pub fn build(&self, mb: u64) -> DesignSpec {
        (self.builder)(mb)
    }

    /// Expands the family against a capacity list: one spec per
    /// capacity, or a single spec for capacity-independent families.
    pub fn expand(&self, capacities: &[u64]) -> Vec<DesignSpec> {
        if self.scales_with_capacity {
            capacities.iter().map(|&mb| self.build(mb)).collect()
        } else {
            vec![self.build(0)]
        }
    }
}

/// Every design family the reproduction knows, in catalogue order.
pub const DESIGN_FAMILIES: &[DesignFamily] = &[
    DesignFamily {
        name: "baseline",
        summary: "no die-stacked DRAM; every L2 miss goes off-chip",
        scales_with_capacity: false,
        builder: |_| DesignSpec::baseline(),
    },
    DesignFamily {
        name: "block",
        summary: "Loh & Hill block cache: tags in DRAM, MissMap, 64 B fills",
        scales_with_capacity: true,
        builder: DesignSpec::block,
    },
    DesignFamily {
        name: "page",
        summary: "page cache: SRAM tags, whole-page fetch (traffic blow-up)",
        scales_with_capacity: true,
        builder: DesignSpec::page,
    },
    DesignFamily {
        name: "footprint",
        summary: "Footprint Cache: page allocation, predicted-footprint fetch",
        scales_with_capacity: true,
        builder: DesignSpec::footprint,
    },
    DesignFamily {
        name: "subblock",
        summary: "sub-blocked (sectored) cache: page tags, demand-block fetch",
        scales_with_capacity: true,
        builder: DesignSpec::subblock,
    },
    DesignFamily {
        name: "hotpage",
        summary: "CHOP-style hot-page filter cache (4 KB pages)",
        scales_with_capacity: true,
        builder: DesignSpec::hotpage,
    },
    DesignFamily {
        name: "pagedirty",
        summary: "page cache writing back only dirty blocks (ablation)",
        scales_with_capacity: true,
        builder: DesignSpec::page_dirty_wb,
    },
    DesignFamily {
        name: "alloy",
        summary: "Alloy: direct-mapped TAD units, compound tag+data access",
        scales_with_capacity: true,
        builder: DesignSpec::alloy,
    },
    DesignFamily {
        name: "banshee",
        summary: "Banshee: frequency-based replacement, bandwidth-aware fills",
        scales_with_capacity: true,
        builder: DesignSpec::banshee,
    },
    DesignFamily {
        name: "gemini",
        summary: "Gemini: hot pages direct-mapped, cold pages set-associative",
        scales_with_capacity: true,
        builder: DesignSpec::gemini,
    },
    DesignFamily {
        name: "ideal",
        summary: "die-stacked main memory: never misses (upper bound)",
        scales_with_capacity: false,
        builder: |_| DesignSpec::ideal(),
    },
    DesignFamily {
        name: "ideallow",
        summary: "ideal with halved DRAM latency (Figure 1 bound)",
        scales_with_capacity: false,
        builder: |_| DesignSpec::ideal_low_latency(),
    },
];

/// Looks up a family by (case-insensitive) name.
pub fn design_family(name: &str) -> Option<&'static DesignFamily> {
    DESIGN_FAMILIES
        .iter()
        .find(|f| f.name.eq_ignore_ascii_case(name.trim()))
}

/// The largest stacked capacity, in MB, that [`resolve_designs`]
/// accepts: 8x the paper's largest (512 MB). A Block-based model
/// allocates a 0.6 GB tag array at this size; far larger requests
/// would abort the process on allocation, or wrap `mb << 20` to 0 at
/// 2^44 MB.
pub const MAX_CAPACITY_MB: u64 = 4096;

/// Resolves a comma-separated family list against a capacity list,
/// e.g. `"page,alloy"` × `[64, 256]` → four specs. Unknown names
/// report the full catalogue; a capacity above [`MAX_CAPACITY_MB`] is
/// an error.
pub fn resolve_designs(list: &str, capacities: &[u64]) -> Result<Vec<DesignSpec>, String> {
    if let Some(mb) = capacities.iter().find(|&&mb| mb > MAX_CAPACITY_MB) {
        return Err(format!(
            "capacity {mb} MB exceeds the {MAX_CAPACITY_MB} MB ceiling"
        ));
    }
    let mut specs = Vec::new();
    for name in list.split(',') {
        let family = design_family(name).ok_or_else(|| {
            format!(
                "unknown design `{}`; pick from: {}",
                name.trim(),
                DESIGN_FAMILIES
                    .iter()
                    .map(|f| f.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        specs.extend(family.expand(capacities));
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for f in DESIGN_FAMILIES {
            assert!(seen.insert(f.name), "duplicate family {}", f.name);
            assert_eq!(f.name, f.name.to_ascii_lowercase());
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(design_family("Footprint").is_some());
        assert!(design_family(" ALLOY ").is_some());
        assert!(design_family("warpdrive").is_none());
    }

    #[test]
    fn expansion_respects_capacity_axis() {
        let caps = [64, 256];
        assert_eq!(design_family("page").unwrap().expand(&caps).len(), 2);
        assert_eq!(design_family("baseline").unwrap().expand(&caps).len(), 1);
    }

    #[test]
    fn resolve_crosses_families_and_capacities() {
        let specs = resolve_designs("page,alloy,baseline", &[64, 128]).unwrap();
        assert_eq!(specs.len(), 5);
        assert!(resolve_designs("page,warpdrive", &[64]).is_err());
        assert!(resolve_designs("block", &[MAX_CAPACITY_MB]).is_ok());
        assert!(resolve_designs("block", &[64, MAX_CAPACITY_MB + 1]).is_err());
    }

    #[test]
    fn every_family_builds_at_64mb() {
        for f in DESIGN_FAMILIES {
            let spec = f.build(64);
            drop(spec.build());
        }
    }
}
