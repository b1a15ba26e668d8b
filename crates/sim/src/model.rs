//! [`DesignModel`]: the closed enum over every registry design.
//!
//! The detailed hot loop used to reach cache models exclusively through
//! `Box<dyn DramCacheModel>` — one indirect call per access, per
//! writeback, per warmup touch. Wrapping the concrete models in an enum
//! lets the hot loop dispatch via `match`: the compiler monomorphizes
//! each arm into a direct (often inlined) call, and the memory system
//! stores the model by value with no pointer chase. The boxed trait
//! object survives as the [`Extension`](DesignModel::Extension) escape
//! hatch so out-of-tree models still plug in at registry boundaries —
//! they simply keep paying the vtable cost the in-tree designs no
//! longer do.

use fc_cache::{
    AccessPlan, AlloyCache, BansheeCache, BlockBasedCache, BoxedModel, DramCacheModel,
    DramCacheStats, GeminiCache, HotPageCache, IdealCache, NoCache, PageBasedCache,
    PredictionCounters, StorageItem, SubBlockCache,
};
use fc_types::{MemAccess, PhysAddr};
use footprint_cache::FootprintCache;

/// One DRAM-cache design, enum-dispatched.
///
/// Every in-tree design gets its own variant (match dispatch on the hot
/// path); anything else enters through [`DesignModel::Extension`] and
/// keeps dynamic dispatch. Construct variants with the `From` impls —
/// `FootprintCache::new(config).into()` — or from any boxed model.
#[derive(Clone)]
pub enum DesignModel {
    /// No DRAM cache (the baseline pod).
    Baseline(NoCache),
    /// Die-stacked main memory: never misses.
    Ideal(IdealCache),
    /// Loh & Hill block-based cache with MissMap.
    Block(BlockBasedCache),
    /// Page-based cache (whole-page fetch).
    Page(PageBasedCache),
    /// Footprint Cache (the paper's design).
    Footprint(Box<FootprintCache>),
    /// Sub-blocked (sectored) cache.
    SubBlock(SubBlockCache),
    /// CHOP-style hot-page filter cache.
    HotPage(HotPageCache),
    /// Alloy-style direct-mapped TAD cache.
    Alloy(AlloyCache),
    /// Banshee-style frequency/bandwidth-aware page cache.
    Banshee(BansheeCache),
    /// Gemini-style hybrid-mapped page cache.
    Gemini(GeminiCache),
    /// Any other [`DramCacheModel`]: the dyn-dispatch escape hatch for
    /// out-of-tree designs.
    Extension(BoxedModel),
}

/// Uniform match dispatch: every variant binds its model as `$m` and
/// evaluates `$body` (boxed variants auto-deref).
macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            DesignModel::Baseline($m) => $body,
            DesignModel::Ideal($m) => $body,
            DesignModel::Block($m) => $body,
            DesignModel::Page($m) => $body,
            DesignModel::Footprint($m) => $body,
            DesignModel::SubBlock($m) => $body,
            DesignModel::HotPage($m) => $body,
            DesignModel::Alloy($m) => $body,
            DesignModel::Banshee($m) => $body,
            DesignModel::Gemini($m) => $body,
            DesignModel::Extension($m) => $body,
        }
    };
}

impl DesignModel {
    /// The model as a trait object (introspection at non-hot
    /// boundaries: reports, storage tables, tests).
    pub fn as_dyn(&self) -> &(dyn DramCacheModel + Send + Sync) {
        match self {
            DesignModel::Baseline(m) => m,
            DesignModel::Ideal(m) => m,
            DesignModel::Block(m) => m,
            DesignModel::Page(m) => m,
            DesignModel::Footprint(m) => m.as_ref(),
            DesignModel::SubBlock(m) => m,
            DesignModel::HotPage(m) => m,
            DesignModel::Alloy(m) => m,
            DesignModel::Banshee(m) => m,
            DesignModel::Gemini(m) => m,
            DesignModel::Extension(m) => m.as_ref(),
        }
    }
}

impl DramCacheModel for DesignModel {
    fn access(&mut self, req: MemAccess) -> AccessPlan {
        dispatch!(self, m => m.access(req))
    }

    fn writeback(&mut self, addr: PhysAddr) -> AccessPlan {
        dispatch!(self, m => m.writeback(addr))
    }

    fn stats(&self) -> &DramCacheStats {
        dispatch!(self, m => m.stats())
    }

    fn storage(&self) -> Vec<StorageItem> {
        dispatch!(self, m => m.storage())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, m => m.name())
    }

    fn prediction_counters(&self) -> Option<PredictionCounters> {
        dispatch!(self, m => m.prediction_counters())
    }

    fn warm_access(&mut self, req: MemAccess) {
        dispatch!(self, m => m.warm_access(req))
    }

    fn warm_writeback(&mut self, addr: PhysAddr) {
        dispatch!(self, m => m.warm_writeback(addr))
    }
}

macro_rules! from_concrete {
    ($($ty:ty => $variant:ident),* $(,)?) => {
        $(impl From<$ty> for DesignModel {
            fn from(model: $ty) -> Self {
                DesignModel::$variant(model)
            }
        })*
    };
}

from_concrete! {
    NoCache => Baseline,
    IdealCache => Ideal,
    BlockBasedCache => Block,
    PageBasedCache => Page,
    SubBlockCache => SubBlock,
    HotPageCache => HotPage,
    AlloyCache => Alloy,
    BansheeCache => Banshee,
    GeminiCache => Gemini,
}

impl From<FootprintCache> for DesignModel {
    fn from(model: FootprintCache) -> Self {
        // Boxed: the footprint state block is much larger than the
        // other variants; keeping it behind one pointer keeps the enum
        // itself register-sized for the common designs.
        DesignModel::Footprint(Box::new(model))
    }
}

impl From<BoxedModel> for DesignModel {
    fn from(model: BoxedModel) -> Self {
        DesignModel::Extension(model)
    }
}

/// Any boxed concrete model enters through the extension hatch — this
/// keeps long-standing `MemorySystem::new(Box::new(model), …)` call
/// sites compiling. In-tree models passed *unboxed* take their enum
/// variant instead (static dispatch); prefer that on hot paths.
impl<T: DramCacheModel + Send + Sync + 'static> From<Box<T>> for DesignModel {
    fn from(model: Box<T>) -> Self {
        DesignModel::Extension(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::{PageGeometry, Pc};

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    #[test]
    fn enum_and_boxed_dispatch_agree() {
        let mut as_enum: DesignModel = PageBasedCache::new(1 << 20, PageGeometry::new(2048)).into();
        let mut as_box: DesignModel = DesignModel::Extension(Box::new(PageBasedCache::new(
            1 << 20,
            PageGeometry::new(2048),
        )));
        for i in 0..200u64 {
            let a = as_enum.access(read(i * 0x940));
            let b = as_box.access(read(i * 0x940));
            assert_eq!(a, b, "plan diverged at access {i}");
        }
        assert_eq!(as_enum.stats(), as_box.stats());
        assert_eq!(as_enum.name(), as_box.name());
    }

    #[test]
    fn boxed_concrete_models_enter_the_extension_hatch() {
        let model: DesignModel = Box::new(NoCache::new()).into();
        assert!(matches!(model, DesignModel::Extension(_)));
        let direct: DesignModel = NoCache::new().into();
        assert!(matches!(direct, DesignModel::Baseline(_)));
    }

    #[test]
    fn as_dyn_reaches_the_inner_model() {
        let model: DesignModel = IdealCache::new().into();
        assert_eq!(model.as_dyn().name(), IdealCache::new().name());
    }

    #[test]
    fn clone_preserves_state() {
        let mut model: DesignModel = SubBlockCache::new(1 << 20, PageGeometry::new(2048)).into();
        for i in 0..50u64 {
            model.access(read(i * 0x1000));
        }
        let snapshot = model.clone();
        assert_eq!(snapshot.stats(), model.stats());
        model.access(read(0x990000));
        assert_ne!(snapshot.stats().accesses, model.stats().accesses);
    }
}
