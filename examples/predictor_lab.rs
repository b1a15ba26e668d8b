//! Anatomy of the footprint predictor, on the public API only: train the
//! FHT by hand, watch PC & offset keys resolve to footprints, and watch
//! the Singleton Table catch a misclassified page — the Section 4
//! machinery in twenty lines.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p fc-repro --example predictor_lab
//! ```

use fc_cache::DramCacheModel;
use fc_types::{MemAccess, Pc, PhysAddr};
use footprint_cache::{FootprintCache, FootprintCacheConfig, KeyKind};

const PAGE: u64 = 2048;

fn read(cache: &mut FootprintCache, pc: u64, page: u64, offset: u64) -> String {
    let plan = cache.access(MemAccess::read(
        Pc::new(pc),
        PhysAddr::new(page * PAGE + offset * 64),
        0,
    ));
    let outcome = if plan.bypass {
        "BYPASS (singleton)"
    } else if plan.hit {
        "hit"
    } else {
        "miss"
    };
    format!(
        "pc={pc:#x} page={page} block={offset:>2} -> {outcome:<18} fetched {} block(s) off-chip",
        plan.offchip_read_blocks()
    )
}

fn main() {
    let mut cache = FootprintCache::new(FootprintCacheConfig::new(1 << 20));

    println!("— teaching: a 'get_record' function touches blocks 4,5,6,7 of a page —");
    for offset in [4u64, 5, 6, 7] {
        println!("  {}", read(&mut cache, 0x400, 10, offset));
    }
    cache.flush(); // evictions send demanded vectors to the FHT
    println!(
        "  (history is written by evictions and read by future misses; the
   teaching misses themselves found no history: {:.0}% FHT lookup hits)",
        cache.fht().lookup_hit_ratio() * 100.0
    );

    println!("\n— prediction: the same code touches a page it has never seen —");
    println!("  {}", read(&mut cache, 0x400, 20, 4));
    for offset in [5u64, 6, 7] {
        println!("  {}", read(&mut cache, 0x400, 20, offset));
    }

    println!("\n— singleton path: a hash probe touches exactly one block —");
    println!("  {}", read(&mut cache, 0x900, 30, 12));
    cache.flush();
    println!("  {}", read(&mut cache, 0x900, 40, 12)); // predicted singleton
    println!("\n— a second access to that page proves it was not a singleton —");
    println!("  {}", read(&mut cache, 0x901, 40, 13)); // promotion
    println!("  {}", read(&mut cache, 0x900, 40, 12)); // now resident

    let m = cache.metrics();
    println!(
        "\npredictor metrics: covered={} under={} over={} bypasses={} promotions={}",
        m.covered, m.underpredicted, m.overpredicted, m.singleton_bypasses, m.singleton_promotions
    );

    println!("\n— key ablation: PC-only key conflates differently-aligned pages —");
    for kind in [KeyKind::PcOffset, KeyKind::PcOnly, KeyKind::OffsetOnly] {
        println!(
            "  {kind:?}: key(pc=0x400, off=4) = {:#x}",
            kind.key(0x400, 4)
        );
    }
}
