//! Designs as data: the serializable [`DesignSpec`] that replaces the
//! old hardcoded `DesignKind` enum.
//!
//! A spec names a cache model ([`CacheSpec`]) and the DRAM systems it
//! runs against ([`DramSpec`]: a Table 3 preset plus row-policy and
//! timing overrides). Everything downstream — sweep grids, the result
//! store's stable hashes, the CLI, the experiment harness — consumes
//! specs; adding a design means adding a [`CacheSpec`] variant and a
//! registry row (see [`registry`](crate::registry)), not editing every
//! layer.
//!
//! Specs round-trip through JSON ([`DesignSpec::to_json`] /
//! [`DesignSpec::from_json`]) so grids can be described, stored and
//! diffed outside the binary.

use fc_cache::{
    AlloyCache, BansheeCache, BlockBasedCache, BoxedModel, GeminiCache, HotPageCache, IdealCache,
    NoCache, PageBasedCache, SubBlockCache, WritebackGranularity,
};
use fc_dram::{DramConfig, RowPolicy};
use fc_types::record::{json_object, RecordWriter};
use fc_types::PageGeometry;
use footprint_cache::{FootprintCache, FootprintCacheConfig, KeyKind};
use serde::{Deserialize, Serialize};

use crate::json::JsonValue;
use crate::memsys::MemorySystem;

/// A named DRAM configuration from Table 3 that a [`DramSpec`] starts
/// from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramPreset {
    /// One off-chip DDR3-1600 channel, closed-page, 64 B interleave.
    OffChipDdr3_1600,
    /// Off-chip DDR3-1600, open-page, 2 KB row interleave.
    OffChipOpenRow,
    /// Four stacked DDR3-3200 channels, open-page, 2 KB row interleave.
    StackedDdr3_3200,
}

impl DramPreset {
    fn resolve(self) -> DramConfig {
        match self {
            DramPreset::OffChipDdr3_1600 => DramConfig::off_chip_ddr3_1600(),
            DramPreset::OffChipOpenRow => DramConfig::off_chip_open_row(),
            DramPreset::StackedDdr3_3200 => DramConfig::stacked_ddr3_3200(),
        }
    }

    fn json_name(self) -> &'static str {
        match self {
            DramPreset::OffChipDdr3_1600 => "off-chip-ddr3-1600",
            DramPreset::OffChipOpenRow => "off-chip-open-row",
            DramPreset::StackedDdr3_3200 => "stacked-ddr3-3200",
        }
    }

    fn from_json_name(name: &str) -> Result<Self, String> {
        match name {
            "off-chip-ddr3-1600" => Ok(DramPreset::OffChipDdr3_1600),
            "off-chip-open-row" => Ok(DramPreset::OffChipOpenRow),
            "stacked-ddr3-3200" => Ok(DramPreset::StackedDdr3_3200),
            other => Err(format!("unknown DRAM preset `{other}`")),
        }
    }
}

/// One DRAM system of a design: a preset plus the per-design overrides
/// Section 5.2 applies (row-buffer policy, the ideal-low-latency
/// timing halving).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramSpec {
    /// Base configuration.
    pub preset: DramPreset,
    /// Row-policy override (`None` keeps the preset's policy).
    pub policy: Option<RowPolicy>,
    /// Halve the device latency (the Figure 1 "Low-Latency" bound).
    pub halved_latency: bool,
}

impl DramSpec {
    /// A spec that uses `preset` unmodified.
    pub fn preset(preset: DramPreset) -> Self {
        Self {
            preset,
            policy: None,
            halved_latency: false,
        }
    }

    /// Overrides the row-buffer policy.
    pub fn with_policy(mut self, policy: RowPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Halves the device latency.
    pub fn with_halved_latency(mut self) -> Self {
        self.halved_latency = true;
        self
    }

    /// Materializes the [`DramConfig`].
    pub fn resolve(&self) -> DramConfig {
        let mut config = self.preset.resolve();
        if let Some(policy) = self.policy {
            config = config.with_policy(policy);
        }
        if self.halved_latency {
            config = config.with_timings(config.timings.halved_latency());
        }
        config
    }

    fn write(self, w: &mut RecordWriter<'_>) {
        w.text("preset", self.preset.json_name());
        let policy = self.policy.map(|p| match p {
            RowPolicy::Open => "open",
            RowPolicy::Closed => "closed",
        });
        w.text_or_null("policy", policy);
        w.bool("halved_latency", self.halved_latency);
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let preset = DramPreset::from_json_name(v.field("preset")?.as_str()?)?;
        let policy = match v.field("policy")? {
            JsonValue::Null => None,
            other => Some(match other.as_str()? {
                "open" => RowPolicy::Open,
                "closed" => RowPolicy::Closed,
                p => return Err(format!("unknown row policy `{p}`")),
            }),
        };
        Ok(Self {
            preset,
            policy,
            halved_latency: v.field("halved_latency")?.as_bool()?,
        })
    }
}

/// The cache model of a design, with every parameter that matters to
/// the simulation. `mb` fields are stacked capacity in megabytes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CacheSpec {
    /// No DRAM cache (the baseline pod).
    None,
    /// Die-stacked main memory: never misses.
    Ideal,
    /// Loh & Hill block-based cache with MissMap.
    Block {
        /// Stacked capacity in MB.
        mb: u64,
    },
    /// Page-based cache (whole-page fetch).
    Page {
        /// Stacked capacity in MB.
        mb: u64,
        /// Page size in bytes.
        page_bytes: u32,
        /// Dirty-eviction writeback granularity.
        writeback: WritebackGranularity,
    },
    /// Footprint Cache (the paper's design), fully configured.
    Footprint {
        /// Full configuration (capacity lives in `config`).
        config: FootprintCacheConfig,
    },
    /// Sub-blocked (sectored) cache: page tags, demand-block fetch.
    SubBlock {
        /// Stacked capacity in MB.
        mb: u64,
        /// Page size in bytes.
        page_bytes: u32,
    },
    /// CHOP-style hot-page filter cache.
    HotPage {
        /// Stacked capacity in MB.
        mb: u64,
        /// Page size in bytes.
        page_bytes: u32,
        /// Off-chip accesses before a page is declared hot.
        threshold: u32,
    },
    /// Alloy-style direct-mapped TAD cache (tags in DRAM, compound
    /// tag+data accesses).
    Alloy {
        /// Stacked capacity in MB.
        mb: u64,
    },
    /// Banshee-style page cache with frequency-based, bandwidth-aware
    /// replacement.
    Banshee {
        /// Stacked capacity in MB.
        mb: u64,
        /// Page size in bytes.
        page_bytes: u32,
    },
    /// Gemini-style hybrid mapping: hot pages direct-mapped, cold pages
    /// set-associative.
    Gemini {
        /// Stacked capacity in MB.
        mb: u64,
        /// Page size in bytes.
        page_bytes: u32,
        /// Cold-region hits before promotion to the direct region.
        promote_hits: u32,
    },
}

impl CacheSpec {
    fn write(self, w: &mut RecordWriter<'_>) {
        // Most families are a kind, a capacity and a page size.
        let sized = |w: &mut RecordWriter<'_>, kind, mb, page_bytes: Option<u32>| {
            w.text("kind", kind);
            w.u64("mb", mb);
            if let Some(b) = page_bytes {
                w.u64("page_bytes", b.into());
            }
        };
        match self {
            CacheSpec::None => w.text("kind", "none"),
            CacheSpec::Ideal => w.text("kind", "ideal"),
            CacheSpec::Block { mb } => sized(w, "block", mb, None),
            CacheSpec::Page {
                mb,
                page_bytes,
                writeback,
            } => {
                sized(w, "page", mb, Some(page_bytes));
                w.text(
                    "writeback",
                    match writeback {
                        WritebackGranularity::Page => "page",
                        WritebackGranularity::DirtyBlocks => "dirty-blocks",
                    },
                );
            }
            CacheSpec::Footprint { config } => {
                w.text("kind", "footprint");
                w.u64("capacity_bytes", config.capacity_bytes);
                w.u64("page_bytes", config.geom.page_size() as u64);
                w.u64("ways", config.ways as u64);
                w.u64("fht_entries", config.fht_entries as u64);
                w.u64("fht_ways", config.fht_ways as u64);
                w.u64("st_entries", config.st_entries as u64);
                w.bool("singleton_optimization", config.singleton_optimization);
                w.text(
                    "key_kind",
                    match config.key_kind {
                        KeyKind::PcOffset => "pc-offset",
                        KeyKind::PcOnly => "pc-only",
                        KeyKind::OffsetOnly => "offset-only",
                    },
                );
            }
            CacheSpec::SubBlock { mb, page_bytes } => sized(w, "subblock", mb, Some(page_bytes)),
            CacheSpec::HotPage {
                mb,
                page_bytes,
                threshold,
            } => {
                sized(w, "hotpage", mb, Some(page_bytes));
                w.u64("threshold", threshold.into());
            }
            CacheSpec::Alloy { mb } => sized(w, "alloy", mb, None),
            CacheSpec::Banshee { mb, page_bytes } => sized(w, "banshee", mb, Some(page_bytes)),
            CacheSpec::Gemini {
                mb,
                page_bytes,
                promote_hits,
            } => {
                sized(w, "gemini", mb, Some(page_bytes));
                w.u64("promote_hits", promote_hits.into());
            }
        }
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let mb = || v.field("mb")?.as_u64();
        let page_bytes = || v.field("page_bytes")?.as_u32();
        match v.field("kind")?.as_str()? {
            "none" => Ok(CacheSpec::None),
            "ideal" => Ok(CacheSpec::Ideal),
            "block" => Ok(CacheSpec::Block { mb: mb()? }),
            "page" => Ok(CacheSpec::Page {
                mb: mb()?,
                page_bytes: page_bytes()?,
                writeback: match v.field("writeback")?.as_str()? {
                    "page" => WritebackGranularity::Page,
                    "dirty-blocks" => WritebackGranularity::DirtyBlocks,
                    other => return Err(format!("unknown writeback granularity `{other}`")),
                },
            }),
            "footprint" => {
                let config = FootprintCacheConfig {
                    capacity_bytes: v.field("capacity_bytes")?.as_u64()?,
                    geom: PageGeometry::new(v.field("page_bytes")?.as_usize()?),
                    ways: v.field("ways")?.as_usize()?,
                    fht_entries: v.field("fht_entries")?.as_usize()?,
                    fht_ways: v.field("fht_ways")?.as_usize()?,
                    st_entries: v.field("st_entries")?.as_usize()?,
                    singleton_optimization: v.field("singleton_optimization")?.as_bool()?,
                    key_kind: match v.field("key_kind")?.as_str()? {
                        "pc-offset" => KeyKind::PcOffset,
                        "pc-only" => KeyKind::PcOnly,
                        "offset-only" => KeyKind::OffsetOnly,
                        other => return Err(format!("unknown key kind `{other}`")),
                    },
                };
                Ok(CacheSpec::Footprint { config })
            }
            "subblock" => Ok(CacheSpec::SubBlock {
                mb: mb()?,
                page_bytes: page_bytes()?,
            }),
            "hotpage" => Ok(CacheSpec::HotPage {
                mb: mb()?,
                page_bytes: page_bytes()?,
                threshold: v.field("threshold")?.as_u32()?,
            }),
            "alloy" => Ok(CacheSpec::Alloy { mb: mb()? }),
            "banshee" => Ok(CacheSpec::Banshee {
                mb: mb()?,
                page_bytes: page_bytes()?,
            }),
            "gemini" => Ok(CacheSpec::Gemini {
                mb: mb()?,
                page_bytes: page_bytes()?,
                promote_hits: v.field("promote_hits")?.as_u32()?,
            }),
            other => Err(format!("unknown cache kind `{other}`")),
        }
    }
}

/// A complete, self-describing memory-system design: cache model plus
/// stacked and off-chip DRAM specs. This is what sweep grids enumerate,
/// the result store hashes, and [`Simulation`](crate::Simulation)
/// builds.
///
/// # Examples
///
/// ```
/// use fc_sim::DesignSpec;
///
/// let spec = DesignSpec::footprint(256);
/// assert_eq!(spec.label(), "Footprint 256MB");
/// assert_eq!(spec.capacity_mb(), Some(256));
/// let round_trip = DesignSpec::from_json(&spec.to_json()).unwrap();
/// assert_eq!(spec, round_trip);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesignSpec {
    /// The DRAM cache model.
    pub cache: CacheSpec,
    /// The die-stacked DRAM (`None` for the baseline pod).
    pub stacked: Option<DramSpec>,
    /// The off-chip DRAM.
    pub offchip: DramSpec,
}

impl DesignSpec {
    /// No die-stacked DRAM: every L2 miss goes off-chip.
    pub fn baseline() -> Self {
        Self {
            cache: CacheSpec::None,
            stacked: None,
            offchip: DramSpec::preset(DramPreset::OffChipDdr3_1600),
        }
    }

    /// Loh & Hill block-based cache with MissMap (closed-page stack).
    pub fn block(mb: u64) -> Self {
        Self {
            cache: CacheSpec::Block { mb },
            stacked: Some(
                DramSpec::preset(DramPreset::StackedDdr3_3200).with_policy(RowPolicy::Closed),
            ),
            offchip: DramSpec::preset(DramPreset::OffChipDdr3_1600),
        }
    }

    /// Page-based cache (whole-page fetch and writeback).
    pub fn page(mb: u64) -> Self {
        Self {
            cache: CacheSpec::Page {
                mb,
                page_bytes: PageGeometry::default().page_size() as u32,
                writeback: WritebackGranularity::Page,
            },
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// Page-based cache that writes back only dirty blocks (ablation).
    pub fn page_dirty_wb(mb: u64) -> Self {
        let mut spec = Self::page(mb);
        if let CacheSpec::Page { writeback, .. } = &mut spec.cache {
            *writeback = WritebackGranularity::DirtyBlocks;
        }
        spec
    }

    /// Footprint Cache (the paper's design) at the paper's defaults.
    pub fn footprint(mb: u64) -> Self {
        Self::footprint_custom(FootprintCacheConfig::new(mb << 20))
    }

    /// Footprint Cache with a custom configuration (the sensitivity
    /// studies).
    pub fn footprint_custom(config: FootprintCacheConfig) -> Self {
        Self {
            cache: CacheSpec::Footprint { config },
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// The footprint key-kind ablation variant.
    pub fn footprint_with_key(mb: u64, key: KeyKind) -> Self {
        Self::footprint_custom(FootprintCacheConfig::new(mb << 20).with_key_kind(key))
    }

    /// Footprint Cache without the singleton optimization (Section 6.5).
    pub fn footprint_no_singleton(mb: u64) -> Self {
        Self::footprint_custom(
            FootprintCacheConfig::new(mb << 20).with_singleton_optimization(false),
        )
    }

    /// Sub-blocked (sectored) cache.
    pub fn subblock(mb: u64) -> Self {
        Self {
            cache: CacheSpec::SubBlock {
                mb,
                page_bytes: PageGeometry::default().page_size() as u32,
            },
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// CHOP-style hot-page filter cache (4 KB pages, hot after 2
    /// accesses — \[13\] finds 4 KB optimal).
    pub fn hotpage(mb: u64) -> Self {
        Self {
            cache: CacheSpec::HotPage {
                mb,
                page_bytes: 4096,
                threshold: 2,
            },
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// Alloy-style direct-mapped TAD cache: compound tag+data stacked
    /// accesses under a closed-page policy (TAD streams have no row
    /// reuse), block-granular off-chip fills.
    pub fn alloy(mb: u64) -> Self {
        Self {
            cache: CacheSpec::Alloy { mb },
            stacked: Some(
                DramSpec::preset(DramPreset::StackedDdr3_3200).with_policy(RowPolicy::Closed),
            ),
            offchip: DramSpec::preset(DramPreset::OffChipDdr3_1600),
        }
    }

    /// Banshee-style bandwidth-aware page cache.
    pub fn banshee(mb: u64) -> Self {
        Self {
            cache: CacheSpec::Banshee {
                mb,
                page_bytes: PageGeometry::default().page_size() as u32,
            },
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// Gemini-style hybrid-mapped cache (promotion after 4 cold hits).
    pub fn gemini(mb: u64) -> Self {
        Self {
            cache: CacheSpec::Gemini {
                mb,
                page_bytes: PageGeometry::default().page_size() as u32,
                promote_hits: 4,
            },
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// Die-stacked main memory: never misses (Figures 1, 6, 7 "Ideal").
    pub fn ideal() -> Self {
        Self {
            cache: CacheSpec::Ideal,
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200)),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// Die-stacked main memory with halved DRAM latency (Figure 1's
    /// "High-BW & Low-Latency").
    pub fn ideal_low_latency() -> Self {
        Self {
            cache: CacheSpec::Ideal,
            stacked: Some(DramSpec::preset(DramPreset::StackedDdr3_3200).with_halved_latency()),
            offchip: DramSpec::preset(DramPreset::OffChipOpenRow),
        }
    }

    /// Short label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match &self.cache {
            CacheSpec::None => "Baseline".into(),
            CacheSpec::Ideal => {
                if self.stacked.is_some_and(|s| s.halved_latency) {
                    "Ideal low-latency".into()
                } else {
                    "Ideal".into()
                }
            }
            CacheSpec::Block { mb } => format!("Block-based {mb}MB"),
            CacheSpec::Page { mb, writeback, .. } => match writeback {
                WritebackGranularity::Page => format!("Page-based {mb}MB"),
                WritebackGranularity::DirtyBlocks => format!("Page (dirty-block WB) {mb}MB"),
            },
            CacheSpec::Footprint { config } => {
                let default = FootprintCacheConfig::new(config.capacity_bytes);
                if *config == default {
                    format!("Footprint {}MB", config.capacity_bytes >> 20)
                } else {
                    format!(
                        "Footprint {}MB ({}B pages, {} FHT, {:?}{})",
                        config.capacity_bytes >> 20,
                        config.geom.page_size(),
                        config.fht_entries,
                        config.key_kind,
                        if config.singleton_optimization {
                            ""
                        } else {
                            ", no-ST"
                        }
                    )
                }
            }
            CacheSpec::SubBlock { mb, .. } => format!("Sub-blocked {mb}MB"),
            CacheSpec::HotPage { mb, .. } => format!("Hot-page {mb}MB"),
            CacheSpec::Alloy { mb } => format!("Alloy {mb}MB"),
            CacheSpec::Banshee { mb, .. } => format!("Banshee {mb}MB"),
            CacheSpec::Gemini { mb, .. } => format!("Gemini {mb}MB"),
        }
    }

    /// Stacked-DRAM capacity in MB, or `None` for capacity-independent
    /// designs (baseline, ideal). Run sizing for those lives in
    /// `fc_sweep::RunScale`, not here.
    pub fn capacity_mb(&self) -> Option<u64> {
        match &self.cache {
            CacheSpec::None | CacheSpec::Ideal => None,
            CacheSpec::Block { mb }
            | CacheSpec::Page { mb, .. }
            | CacheSpec::SubBlock { mb, .. }
            | CacheSpec::HotPage { mb, .. }
            | CacheSpec::Alloy { mb }
            | CacheSpec::Banshee { mb, .. }
            | CacheSpec::Gemini { mb, .. } => Some(*mb),
            CacheSpec::Footprint { config } => Some(config.capacity_bytes >> 20),
        }
    }

    /// How much functional warming this design's state needs relative
    /// to a plain page-organized cache of equal capacity — the sampled
    /// simulator scales its capacity-proportional warm windows by this
    /// factor. Designs whose metadata carries history beyond the tag
    /// array remember longer: Footprint Cache's predictor (FHT +
    /// singleton table) roughly doubles the horizon, and Banshee's
    /// frequency counters accumulate over several cache turnovers.
    /// Designs with no stacked state at all (baseline, ideal) return 0:
    /// only the shared L2 needs warming.
    pub fn warm_scale(&self) -> u64 {
        match &self.cache {
            CacheSpec::None | CacheSpec::Ideal => 0,
            CacheSpec::Footprint { .. } => 2,
            CacheSpec::Banshee { .. } => 6,
            _ => 1,
        }
    }

    /// Instantiates the design's cache model, boxed as a
    /// [`BoxedModel`] (the one place a registry model is boxed), and
    /// its DRAM systems.
    pub fn build(&self) -> MemorySystem {
        let cache: BoxedModel = match self.cache {
            CacheSpec::None => Box::new(NoCache::new()),
            CacheSpec::Ideal => Box::new(IdealCache::new()),
            CacheSpec::Block { mb } => Box::new(BlockBasedCache::new(mb << 20)),
            CacheSpec::Page {
                mb,
                page_bytes,
                writeback,
            } => Box::new(PageBasedCache::with_granularity(
                mb << 20,
                PageGeometry::new(page_bytes as usize),
                writeback,
            )),
            CacheSpec::Footprint { config } => Box::new(FootprintCache::new(config)),
            CacheSpec::SubBlock { mb, page_bytes } => Box::new(SubBlockCache::new(
                mb << 20,
                PageGeometry::new(page_bytes as usize),
            )),
            CacheSpec::HotPage {
                mb,
                page_bytes,
                threshold,
            } => Box::new(HotPageCache::new(
                mb << 20,
                PageGeometry::new(page_bytes as usize),
                threshold,
            )),
            CacheSpec::Alloy { mb } => Box::new(AlloyCache::new(mb << 20)),
            CacheSpec::Banshee { mb, page_bytes } => Box::new(BansheeCache::new(
                mb << 20,
                PageGeometry::new(page_bytes as usize),
            )),
            CacheSpec::Gemini {
                mb,
                page_bytes,
                promote_hits,
            } => Box::new(GeminiCache::new(
                mb << 20,
                PageGeometry::new(page_bytes as usize),
                promote_hits,
            )),
        };
        MemorySystem::new(
            cache,
            self.stacked.map(|s| s.resolve()),
            self.offchip.resolve(),
        )
    }

    /// Serializes the spec as a canonical JSON document. The encoding
    /// is stable (fixed field order), so it doubles as the hashing
    /// input for `fc_sweep`'s result store.
    pub fn to_json(&self) -> String {
        json_object(|w| {
            w.text("label", &self.label());
            w.object("cache", |w| self.cache.write(w));
            w.opt_object("stacked", self.stacked, |w, s| s.write(w));
            w.object("offchip", |w| self.offchip.write(w));
        })
    }

    /// Parses a spec from [`to_json`](DesignSpec::to_json)'s format.
    /// The `label` field is informational and ignored on input.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        let cache = CacheSpec::from_json(v.field("cache")?)?;
        let stacked = match v.field("stacked")? {
            JsonValue::Null => None,
            other => Some(DramSpec::from_json(other)?),
        };
        let offchip = DramSpec::from_json(v.field("offchip")?)?;
        Ok(Self {
            cache,
            stacked,
            offchip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DESIGN_FAMILIES;

    /// One spec per family, plus the ablation variants.
    fn catalogue() -> Vec<DesignSpec> {
        let mut specs: Vec<DesignSpec> = DESIGN_FAMILIES.iter().map(|f| f.build(64)).collect();
        specs.push(DesignSpec::footprint_no_singleton(64));
        specs.push(DesignSpec::footprint_with_key(64, KeyKind::PcOnly));
        specs.push(DesignSpec::page_dirty_wb(64));
        specs
    }

    #[test]
    fn every_design_builds() {
        for spec in catalogue() {
            let m = spec.build();
            assert!(!spec.label().is_empty());
            drop(m);
        }
    }

    #[test]
    fn labels_carry_capacity() {
        assert_eq!(DesignSpec::footprint(256).label(), "Footprint 256MB");
        assert!(DesignSpec::footprint_no_singleton(128)
            .label()
            .contains("128MB"));
        assert_eq!(DesignSpec::alloy(64).label(), "Alloy 64MB");
        assert_eq!(DesignSpec::gemini(128).label(), "Gemini 128MB");
    }

    #[test]
    fn json_round_trips_every_design() {
        for spec in catalogue() {
            let json = spec.to_json();
            let back = DesignSpec::from_json(&json).unwrap_or_else(|e| {
                panic!("{}: {e}\n{json}", spec.label());
            });
            assert_eq!(spec, back, "round-trip changed {}", spec.label());
            // Serialization is canonical: a second trip is bit-identical.
            assert_eq!(json, back.to_json());
        }
    }

    #[test]
    fn json_rejects_malformed_specs() {
        assert!(DesignSpec::from_json("{}").is_err());
        assert!(DesignSpec::from_json("not json").is_err());
        let wrong_kind = DesignSpec::footprint(64)
            .to_json()
            .replace("footprint", "warpdrive");
        assert!(DesignSpec::from_json(&wrong_kind).is_err());
    }

    #[test]
    fn capacity_is_none_only_for_capacity_independent_designs() {
        assert_eq!(DesignSpec::baseline().capacity_mb(), None);
        assert_eq!(DesignSpec::ideal().capacity_mb(), None);
        assert_eq!(DesignSpec::ideal_low_latency().capacity_mb(), None);
        assert_eq!(DesignSpec::banshee(128).capacity_mb(), Some(128));
        assert_eq!(DesignSpec::footprint(512).capacity_mb(), Some(512));
    }

    #[test]
    fn dram_spec_overrides_apply() {
        let closed = DesignSpec::block(64).stacked.unwrap().resolve();
        assert_eq!(closed.policy, RowPolicy::Closed);
        let halved = DesignSpec::ideal_low_latency().stacked.unwrap().resolve();
        assert_eq!(halved.timings.t_cas, 6);
    }

    #[test]
    fn custom_footprint_label_distinguishes_ablations() {
        let plain = DesignSpec::footprint(64).label();
        let no_st = DesignSpec::footprint_no_singleton(64).label();
        assert_ne!(plain, no_st);
        assert!(no_st.contains("no-ST"));
    }
}
