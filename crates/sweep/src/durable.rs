//! On-disk backend for the memoized result store.
//!
//! # File layout
//!
//! A store directory holds:
//!
//! * `meta.json` — `{"version":1,"shards":N,"vnodes":V,"generation":G}`.
//!   `generation` increments whenever the store's contents change shape
//!   (a shard is quarantined, the ring is resized); artifacts record it
//!   in provenance so a result can be traced to the store state that
//!   produced it.
//! * `shard-0000.jsonl` … `shard-NNNN.jsonl` — append-only record
//!   files. Each line is `{"h":"<16-hex fnv1a>","k":"<canonical>",
//!   "v":{…}}`; `h` is redundant with `k` and serves as a per-record
//!   integrity check on load.
//! * `shard-XXXX.jsonl.corrupt-<gen>` — a quarantined shard file,
//!   renamed aside when a load finds an undecodable record. The good
//!   prefix is salvaged into a fresh shard file; the lost suffix is
//!   simply recomputed on demand.
//!
//! Keys are placed on shards by the consistent-hash
//! [`HashRing`] over the *mixed* FNV point
//! hash, so growing the shard count relocates only ~K/n keys (see
//! `ring.rs`). Writes are appends (flushed per record); rewrites —
//! compaction of duplicate keys, salvage, resize — go through
//! [`fc_types::atomic_write`], so a reader or a kill mid-write never
//! observes a truncated file.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fc_obs::metrics;
use fc_sim::json::{escape, JsonValue};
use fc_sim::SimReport;
use fc_types::fnv1a;

use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::store::PointKey;

/// A value type the durable store can persist: a single-line JSON
/// encoding and its exact inverse. Implemented for [`SimReport`];
/// sampled reports stay in-memory for now (their grids are cheap to
/// recompute by design).
pub trait StoreValue: Sized {
    /// Encodes the value as one line of JSON (no embedded newlines).
    fn to_store_json(&self) -> String;
    /// Decodes a value previously produced by
    /// [`to_store_json`](Self::to_store_json). Must round-trip
    /// bit-identically, including every `f64`.
    fn from_store_json(v: &JsonValue) -> Result<Self, String>;
}

/// Version written to `meta.json`; bump on layout changes.
const STORE_VERSION: u64 = 1;

/// Default number of disk shards for a new store directory.
pub const DEFAULT_DISK_SHARDS: u32 = 8;

struct DiskShard {
    loaded: bool,
    writer: Option<File>,
}

/// The durable backend: a directory of ring-placed shard files plus
/// the decode/encode hooks captured at construction (kept as function
/// pointers so `ResultStore<T>`'s methods stay free of trait bounds).
pub struct Durable<T> {
    dir: PathBuf,
    ring: HashRing,
    generation: AtomicU64,
    disk: Vec<Mutex<DiskShard>>,
    encode: fn(&T) -> String,
    decode: fn(&JsonValue) -> Result<T, String>,
}

impl<T> Durable<T> {
    /// Opens (or creates) a store directory with `shards` disk shards.
    /// If the directory already exists with a different shard count,
    /// its contents are re-placed onto the new ring — the in-file move
    /// is wholesale (every shard file is rewritten atomically), but the
    /// *ring* guarantees future growth only relocates ~K/n keys, and
    /// generation is bumped so provenance records the migration.
    pub fn open(dir: &Path, shards: u32) -> Result<Self, String>
    where
        T: StoreValue,
    {
        assert!(shards > 0, "a durable store needs at least one shard");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create store dir {}: {e}", dir.display()))?;
        let meta_path = dir.join("meta.json");
        let (on_disk_shards, mut generation) = match std::fs::read_to_string(&meta_path) {
            Ok(text) => {
                let meta = JsonValue::parse(&text)
                    .map_err(|e| format!("parse {}: {e}", meta_path.display()))?;
                let version = meta.field("version")?.as_u64()?;
                if version != STORE_VERSION {
                    return Err(format!(
                        "store {} is version {version}, this build reads version {STORE_VERSION}",
                        dir.display()
                    ));
                }
                (
                    meta.field("shards")?.as_u32()?,
                    meta.field("generation")?.as_u64()?,
                )
            }
            Err(_) => (shards, 0),
        };

        let store = Self {
            dir: dir.to_path_buf(),
            ring: HashRing::new(shards),
            generation: AtomicU64::new(generation),
            disk: (0..shards)
                .map(|_| {
                    Mutex::new(DiskShard {
                        loaded: false,
                        writer: None,
                    })
                })
                .collect(),
            encode: T::to_store_json,
            decode: T::from_store_json,
        };

        if on_disk_shards != shards && on_disk_shards > 0 {
            store.migrate_shard_count(on_disk_shards)?;
            generation = store.generation.load(Ordering::Relaxed);
        }
        // Gauges, not counters: re-opening a store reports its current
        // shape, it does not accumulate across opens.
        metrics::gauge("store.shards").set(shards as i64);
        metrics::gauge("store.generation").set(generation as i64);
        // (Re)write meta so a fresh directory is recognizable and a
        // migrated one records its new shape.
        store.write_meta(shards, generation)?;
        Ok(store)
    }

    /// Opens `dir` keeping its existing shard count, or creates it
    /// with [`DEFAULT_DISK_SHARDS`] — the right call when the caller
    /// has no opinion about the shard count (the CLI's `--store`).
    pub fn open_default(dir: &Path) -> Result<Self, String>
    where
        T: StoreValue,
    {
        let existing = std::fs::read_to_string(dir.join("meta.json"))
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .and_then(|meta| meta.get("shards").and_then(|s| s.as_u32().ok()));
        Self::open(dir, existing.unwrap_or(DEFAULT_DISK_SHARDS))
    }

    fn write_meta(&self, shards: u32, generation: u64) -> Result<(), String> {
        let meta = format!(
            "{{\"version\":{STORE_VERSION},\"shards\":{shards},\"vnodes\":{DEFAULT_VNODES},\"generation\":{generation}}}\n"
        );
        fc_types::atomic_write(&self.dir.join("meta.json"), meta.as_bytes())
            .map_err(|e| format!("write store meta: {e}"))
    }

    fn shard_path(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("shard-{shard:04}.jsonl"))
    }

    /// The disk shard that owns `key` on the ring.
    pub fn shard_of(&self, key: &PointKey) -> u32 {
        self.ring.shard_for_hash(key.hash64())
    }

    /// The store generation (bumped on quarantine and resize).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    fn bump_generation(&self) -> u64 {
        let gen = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let _ = self.write_meta(self.ring.shards(), gen);
        gen
    }

    fn encode_record(&self, key: &PointKey, value: &T) -> String {
        format!(
            "{{\"h\":\"{:016x}\",\"k\":\"{}\",\"v\":{}}}\n",
            key.hash64(),
            escape(key.canonical()),
            (self.encode)(value)
        )
    }

    /// Parses one shard-file line into a key/value pair, verifying the
    /// embedded hash against the canonical key.
    fn decode_record(&self, line: &str) -> Result<(PointKey, T), String> {
        let v = JsonValue::parse(line)?;
        let hash = u64::from_str_radix(v.field("h")?.as_str()?, 16)
            .map_err(|e| format!("bad record hash: {e}"))?;
        let canonical = v.field("k")?.as_str()?.to_string();
        if fnv1a(canonical.as_bytes()) != hash {
            return Err("record hash does not match its key".to_string());
        }
        let value = (self.decode)(v.field("v")?)?;
        Ok((PointKey::from_canonical(canonical), value))
    }

    /// Loads a shard file on first access, feeding each decoded record
    /// to `sink` (duplicate keys keep the *last* record — appends win).
    /// A corrupt or truncated record quarantines the file: the good
    /// prefix is salvaged into a fresh shard file, the original moves
    /// aside as `…corrupt-<gen>`, and the lost suffix is recomputed on
    /// demand by callers that miss. Never panics on bad input.
    pub fn ensure_loaded(&self, shard: u32, mut sink: impl FnMut(PointKey, T)) {
        let mut disk = self.disk[shard as usize].lock().expect("disk shard lock");
        if disk.loaded {
            return;
        }
        disk.loaded = true;
        let path = self.shard_path(shard);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return, // no shard file yet: empty shard
        };
        metrics::counter("store.loads").add(1);
        metrics::counter("store.records_loaded")
            .add(text.lines().filter(|l| !l.is_empty()).count() as u64);

        let mut good_lines: Vec<&str> = Vec::new();
        let mut records: Vec<(PointKey, T)> = Vec::new();
        let mut corrupt: Option<String> = None;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            match self.decode_record(line) {
                Ok(pair) => {
                    good_lines.push(line);
                    records.push(pair);
                }
                Err(e) => {
                    corrupt = Some(e);
                    break;
                }
            }
        }
        // A final line without a trailing newline is an interrupted
        // append even if it happens to decode; `lines()` already treats
        // it like any other line, and decode catches the torn case.

        if let Some(reason) = corrupt {
            metrics::counter("store.quarantined").add(1);
            let gen = self.bump_generation();
            let aside = path.with_extension(format!("jsonl.corrupt-{gen}"));
            eprintln!(
                "fc-sweep store: quarantining {} -> {} ({reason}); salvaged {} records",
                path.display(),
                aside.display(),
                records.len()
            );
            // Close any stale writer before moving the file aside.
            disk.writer = None;
            if std::fs::rename(&path, &aside).is_ok() {
                let mut salvaged = String::new();
                for line in &good_lines {
                    salvaged.push_str(line);
                    salvaged.push('\n');
                }
                if let Err(e) = fc_types::atomic_write(&path, salvaged.as_bytes()) {
                    eprintln!("fc-sweep store: salvage write failed: {e}");
                }
            }
        } else {
            // Clean file: compact away duplicate keys if appends have
            // piled up rewrites of the same points.
            let distinct = {
                let mut hashes: Vec<u64> = records.iter().map(|(k, _)| k.hash64()).collect();
                hashes.sort_unstable();
                hashes.dedup();
                hashes.len()
            };
            if distinct < records.len() {
                metrics::counter("store.compactions").add(1);
                let mut last: std::collections::HashMap<u64, &str> =
                    std::collections::HashMap::new();
                for ((k, _), line) in records.iter().zip(&good_lines) {
                    last.insert(k.hash64(), line);
                }
                let mut compacted = String::new();
                // Preserve first-seen order for determinism.
                let mut written = std::collections::HashSet::new();
                for ((k, _), _) in records.iter().zip(&good_lines) {
                    if written.insert(k.hash64()) {
                        compacted.push_str(last[&k.hash64()]);
                        compacted.push('\n');
                    }
                }
                disk.writer = None;
                if let Err(e) = fc_types::atomic_write(&path, compacted.as_bytes()) {
                    eprintln!("fc-sweep store: compaction write failed: {e}");
                }
            }
        }

        for (key, value) in records {
            sink(key, value);
        }
    }

    /// Appends one record to `key`'s shard file, flushing before
    /// returning. Append failures are reported and counted, never
    /// panicked on — the in-memory result is still valid.
    pub fn append(&self, key: &PointKey, value: &T) {
        let shard = self.shard_of(key);
        let line = self.encode_record(key, value);
        let mut disk = self.disk[shard as usize].lock().expect("disk shard lock");
        if disk.writer.is_none() {
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.shard_path(shard))
            {
                Ok(f) => disk.writer = Some(f),
                Err(e) => {
                    metrics::counter("store.append_errors").add(1);
                    eprintln!("fc-sweep store: cannot open shard {shard} for append: {e}");
                    return;
                }
            }
        }
        let writer = disk.writer.as_mut().expect("writer just opened");
        if let Err(e) = writer
            .write_all(line.as_bytes())
            .and_then(|_| writer.flush())
        {
            metrics::counter("store.append_errors").add(1);
            eprintln!("fc-sweep store: append to shard {shard} failed: {e}");
            disk.writer = None;
        }
    }

    /// Re-places every record onto a ring of the current size after the
    /// on-disk layout used `old_shards`. All shard files are rewritten
    /// atomically; generation is bumped once.
    fn migrate_shard_count(&self, old_shards: u32) -> Result<(), String> {
        let mut records: Vec<(PointKey, String)> = Vec::new();
        for s in 0..old_shards {
            let path = self.shard_path(s);
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            for line in text.lines().filter(|l| !l.is_empty()) {
                match self.decode_record(line) {
                    Ok((key, _)) => records.push((key, line.to_string())),
                    // Resize tolerates bad records the same way load
                    // does: drop them, they recompute on demand.
                    Err(e) => eprintln!("fc-sweep store: dropping record during resize: {e}"),
                }
            }
        }
        let new_shards = self.ring.shards();
        let mut buckets: Vec<String> = vec![String::new(); new_shards as usize];
        for (key, line) in &records {
            let s = self.ring.shard_for_hash(key.hash64());
            buckets[s as usize].push_str(line);
            buckets[s as usize].push('\n');
        }
        // Write the new layout first, then drop stale old files that no
        // longer exist in the new numbering.
        for (s, contents) in buckets.iter().enumerate() {
            let path = self.shard_path(s as u32);
            if contents.is_empty() {
                let _ = std::fs::remove_file(&path);
            } else {
                fc_types::atomic_write(&path, contents.as_bytes())
                    .map_err(|e| format!("resize write shard {s}: {e}"))?;
            }
        }
        for s in new_shards..old_shards {
            let _ = std::fs::remove_file(self.shard_path(s));
        }
        self.bump_generation();
        Ok(())
    }
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.field(key)?.as_u64()
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.field(key)?.as_f64()
}

fn dram_stats_json(d: &fc_dram::DramStats) -> String {
    let bins = d.queue_hist.bins();
    format!(
        "{{\"accesses\":{},\"activates\":{},\"row_hits\":{},\"row_misses\":{},\"read_blocks\":{},\"write_blocks\":{},\"compound_accesses\":{},\"busy_cycles\":{},\"queue_delay_cycles\":{},\"queue_hist\":[{}]}}",
        d.accesses,
        d.activates,
        d.row_hits,
        d.row_misses,
        d.read_blocks,
        d.write_blocks,
        d.compound_accesses,
        d.busy_cycles,
        d.queue_delay_cycles,
        bins.map(|b| b.to_string()).join(",")
    )
}

fn dram_stats_from_json(v: &JsonValue) -> Result<fc_dram::DramStats, String> {
    let bins_v = match v.field("queue_hist")? {
        JsonValue::Arr(items) => items,
        other => return Err(format!("expected queue_hist array, got {other:?}")),
    };
    let mut bins = [0u64; fc_dram::QueueDelayHist::BINS];
    if bins_v.len() != bins.len() {
        return Err(format!(
            "queue_hist has {} bins, expected {}",
            bins_v.len(),
            bins.len()
        ));
    }
    for (b, item) in bins.iter_mut().zip(bins_v) {
        *b = item.as_u64()?;
    }
    Ok(fc_dram::DramStats {
        accesses: u64_field(v, "accesses")?,
        activates: u64_field(v, "activates")?,
        row_hits: u64_field(v, "row_hits")?,
        row_misses: u64_field(v, "row_misses")?,
        read_blocks: u64_field(v, "read_blocks")?,
        write_blocks: u64_field(v, "write_blocks")?,
        compound_accesses: u64_field(v, "compound_accesses")?,
        busy_cycles: u64_field(v, "busy_cycles")?,
        queue_delay_cycles: u64_field(v, "queue_delay_cycles")?,
        queue_hist: fc_dram::QueueDelayHist::from_bins(bins),
    })
}

fn cache_stats_json(c: &fc_sim::DramCacheStats) -> String {
    format!(
        "{{\"accesses\":{},\"hits\":{},\"misses\":{},\"bypasses\":{},\"evictions\":{},\"dirty_evictions\":{},\"fill_blocks\":{},\"offchip_read_blocks\":{},\"offchip_write_blocks\":{},\"stacked_read_blocks\":{},\"stacked_write_blocks\":{},\"density\":[{}]}}",
        c.accesses,
        c.hits,
        c.misses,
        c.bypasses,
        c.evictions,
        c.dirty_evictions,
        c.fill_blocks,
        c.offchip_read_blocks,
        c.offchip_write_blocks,
        c.stacked_read_blocks,
        c.stacked_write_blocks,
        c.density.bins().map(|b| b.to_string()).join(",")
    )
}

fn cache_stats_from_json(v: &JsonValue) -> Result<fc_sim::DramCacheStats, String> {
    let bins_v = match v.field("density")? {
        JsonValue::Arr(items) => items,
        other => return Err(format!("expected density array, got {other:?}")),
    };
    let mut bins = [0u64; 6];
    if bins_v.len() != bins.len() {
        return Err(format!(
            "density has {} bins, expected {}",
            bins_v.len(),
            bins.len()
        ));
    }
    for (b, item) in bins.iter_mut().zip(bins_v) {
        *b = item.as_u64()?;
    }
    Ok(fc_sim::DramCacheStats {
        accesses: u64_field(v, "accesses")?,
        hits: u64_field(v, "hits")?,
        misses: u64_field(v, "misses")?,
        bypasses: u64_field(v, "bypasses")?,
        evictions: u64_field(v, "evictions")?,
        dirty_evictions: u64_field(v, "dirty_evictions")?,
        fill_blocks: u64_field(v, "fill_blocks")?,
        offchip_read_blocks: u64_field(v, "offchip_read_blocks")?,
        offchip_write_blocks: u64_field(v, "offchip_write_blocks")?,
        stacked_read_blocks: u64_field(v, "stacked_read_blocks")?,
        stacked_write_blocks: u64_field(v, "stacked_write_blocks")?,
        density: fc_sim::DensityHistogram::from_bins(bins),
    })
}

fn energy_json(e: &fc_sim::EnergyReport) -> String {
    // f64 via Display: Rust prints the shortest string that parses back
    // to the same bits, so the round trip is exact.
    format!(
        "{{\"act_pre_nj\":{},\"burst_nj\":{}}}",
        e.act_pre_nj, e.burst_nj
    )
}

fn energy_from_json(v: &JsonValue) -> Result<fc_sim::EnergyReport, String> {
    Ok(fc_sim::EnergyReport {
        act_pre_nj: f64_field(v, "act_pre_nj")?,
        burst_nj: f64_field(v, "burst_nj")?,
    })
}

impl StoreValue for SimReport {
    fn to_store_json(&self) -> String {
        let per_core: Vec<String> = self
            .per_core
            .iter()
            .map(|c| {
                format!(
                    "{{\"insts\":{},\"cycles\":{},\"l2_accesses\":{},\"l2_misses\":{}}}",
                    c.insts, c.cycles, c.l2_accesses, c.l2_misses
                )
            })
            .collect();
        let prediction = match &self.prediction {
            None => "null".to_string(),
            Some(p) => format!(
                "{{\"covered\":{},\"overpredicted\":{},\"underpredicted\":{},\"singleton_bypasses\":{},\"singleton_promotions\":{}}}",
                p.covered, p.overpredicted, p.underpredicted, p.singleton_bypasses, p.singleton_promotions
            ),
        };
        format!(
            "{{\"insts\":{},\"cycles\":{},\"per_core\":[{}],\"cache\":{},\"offchip\":{},\"stacked\":{},\"offchip_energy\":{},\"stacked_energy\":{},\"prediction\":{}}}",
            self.insts,
            self.cycles,
            per_core.join(","),
            cache_stats_json(&self.cache),
            dram_stats_json(&self.offchip),
            dram_stats_json(&self.stacked),
            energy_json(&self.offchip_energy),
            energy_json(&self.stacked_energy),
            prediction
        )
    }

    fn from_store_json(v: &JsonValue) -> Result<Self, String> {
        let per_core_v = match v.field("per_core")? {
            JsonValue::Arr(items) => items,
            other => return Err(format!("expected per_core array, got {other:?}")),
        };
        let per_core = per_core_v
            .iter()
            .map(|c| {
                Ok(fc_sim::CorePerf {
                    insts: u64_field(c, "insts")?,
                    cycles: u64_field(c, "cycles")?,
                    l2_accesses: u64_field(c, "l2_accesses")?,
                    l2_misses: u64_field(c, "l2_misses")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let prediction = match v.field("prediction")? {
            JsonValue::Null => None,
            p => Some(fc_sim::PredictionCounters {
                covered: u64_field(p, "covered")?,
                overpredicted: u64_field(p, "overpredicted")?,
                underpredicted: u64_field(p, "underpredicted")?,
                singleton_bypasses: u64_field(p, "singleton_bypasses")?,
                singleton_promotions: u64_field(p, "singleton_promotions")?,
            }),
        };
        Ok(SimReport {
            insts: u64_field(v, "insts")?,
            cycles: u64_field(v, "cycles")?,
            per_core,
            cache: cache_stats_from_json(v.field("cache")?)?,
            offchip: dram_stats_from_json(v.field("offchip")?)?,
            stacked: dram_stats_from_json(v.field("stacked")?)?,
            offchip_energy: energy_from_json(v.field("offchip_energy")?)?,
            stacked_energy: energy_from_json(v.field("stacked_energy")?)?,
            prediction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        let mut density = fc_sim::DensityHistogram::default();
        density.record(1);
        density.record(17);
        density.record(32);
        SimReport {
            insts: 123_456_789,
            cycles: 987_654_321,
            per_core: vec![
                fc_sim::CorePerf {
                    insts: 100,
                    cycles: 200,
                    l2_accesses: 50,
                    l2_misses: 5,
                },
                fc_sim::CorePerf {
                    insts: 300,
                    cycles: 400,
                    l2_accesses: 70,
                    l2_misses: 7,
                },
            ],
            cache: fc_sim::DramCacheStats {
                accesses: 1,
                hits: 2,
                misses: 3,
                bypasses: 4,
                evictions: 5,
                dirty_evictions: 6,
                fill_blocks: 7,
                offchip_read_blocks: 8,
                offchip_write_blocks: 9,
                stacked_read_blocks: 10,
                stacked_write_blocks: 11,
                density,
            },
            offchip: fc_dram::DramStats {
                accesses: 21,
                activates: 22,
                row_hits: 23,
                row_misses: 24,
                read_blocks: 25,
                write_blocks: 26,
                compound_accesses: 27,
                busy_cycles: 28,
                queue_delay_cycles: 29,
                queue_hist: fc_dram::QueueDelayHist::from_bins([1, 2, 3, 4, 5, 6, 7]),
            },
            stacked: fc_dram::DramStats::default(),
            offchip_energy: fc_sim::EnergyReport {
                act_pre_nj: 0.1 + 0.2, // deliberately non-representable
                burst_nj: 1.0 / 3.0,
            },
            stacked_energy: fc_sim::EnergyReport {
                act_pre_nj: 5e-324,
                burst_nj: 1.7e308,
            },
            prediction: Some(fc_sim::PredictionCounters {
                covered: 31,
                overpredicted: 32,
                underpredicted: 33,
                singleton_bypasses: 34,
                singleton_promotions: 35,
            }),
        }
    }

    #[test]
    fn sim_report_round_trips_bit_identically() {
        let report = sample_report();
        let line = report.to_store_json();
        assert!(!line.contains('\n'), "store encoding must be one line");
        let back = SimReport::from_store_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(report, back);
        // f64s specifically: exact bits, not approximate equality.
        assert_eq!(
            report.offchip_energy.act_pre_nj.to_bits(),
            back.offchip_energy.act_pre_nj.to_bits()
        );
        assert_eq!(
            report.stacked_energy.burst_nj.to_bits(),
            back.stacked_energy.burst_nj.to_bits()
        );
    }

    #[test]
    fn prediction_none_round_trips() {
        let mut report = sample_report();
        report.prediction = None;
        report.per_core.clear();
        let back = SimReport::from_store_json(&JsonValue::parse(&report.to_store_json()).unwrap())
            .unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn malformed_store_values_error_instead_of_panicking() {
        for bad in [
            "{}",
            r#"{"insts":1}"#,
            r#"{"insts":"x","cycles":1,"per_core":[],"cache":{},"offchip":{},"stacked":{},"offchip_energy":{},"stacked_energy":{},"prediction":null}"#,
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(SimReport::from_store_json(&v).is_err(), "input: {bad}");
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fc-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_load_recovers_records() {
        let dir = tmpdir("roundtrip");
        let durable: Durable<SimReport> = Durable::open(&dir, 4).unwrap();
        let report = sample_report();
        let keys: Vec<PointKey> = (0..20)
            .map(|i| PointKey::from_canonical(format!("point-{i}")))
            .collect();
        for k in &keys {
            durable.append(k, &report);
        }
        drop(durable);

        let durable: Durable<SimReport> = Durable::open(&dir, 4).unwrap();
        let mut seen = Vec::new();
        for s in 0..4 {
            durable.ensure_loaded(s, |k, v| {
                assert_eq!(v, report);
                seen.push(k);
            });
        }
        seen.sort_by(|a, b| a.canonical().cmp(b.canonical()));
        assert_eq!(seen.len(), keys.len());
        assert_eq!(durable.generation(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_record_quarantines_and_salvages_prefix() {
        let dir = tmpdir("quarantine");
        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let report = sample_report();
        for i in 0..5 {
            durable.append(&PointKey::from_canonical(format!("p{i}")), &report);
        }
        drop(durable);

        // Tear the last record in half, as a kill mid-append would.
        let path = dir.join("shard-0000.jsonl");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();

        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let mut recovered = 0;
        durable.ensure_loaded(0, |_, _| recovered += 1);
        assert_eq!(recovered, 4, "good prefix salvaged, torn record dropped");
        assert_eq!(durable.generation(), 1, "quarantine bumps generation");
        let corrupt_exists = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().contains("corrupt"));
        assert!(corrupt_exists, "original file moved aside");
        // The salvaged file is clean: a fresh open loads 4 records.
        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let mut again = 0;
        durable.ensure_loaded(0, |_, _| again += 1);
        assert_eq!(again, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_appends_compact_keep_last_on_load() {
        let dir = tmpdir("compact");
        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let key = PointKey::from_canonical("dup".into());
        let mut old = sample_report();
        old.insts = 1;
        let mut new = sample_report();
        new.insts = 2;
        durable.append(&key, &old);
        durable.append(&key, &new);
        drop(durable);

        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let mut loaded = Vec::new();
        durable.ensure_loaded(0, |_, v| loaded.push(v.insts));
        assert_eq!(loaded, vec![1, 2], "sink sees appends in order; last wins");
        // Compaction rewrote the file down to one record.
        let text = std::fs::read_to_string(dir.join("shard-0000.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"insts\":2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resize_re_places_existing_records() {
        let dir = tmpdir("resize");
        let durable: Durable<SimReport> = Durable::open(&dir, 2).unwrap();
        let report = sample_report();
        let keys: Vec<PointKey> = (0..30)
            .map(|i| PointKey::from_canonical(format!("resize-{i}")))
            .collect();
        for k in &keys {
            durable.append(k, &report);
        }
        drop(durable);

        let durable: Durable<SimReport> = Durable::open(&dir, 3).unwrap();
        assert!(durable.generation() >= 1, "resize bumps generation");
        let mut seen = 0;
        for s in 0..3 {
            durable.ensure_loaded(s, |k, _| {
                assert_eq!(durable.shard_of(&k), s, "record on its ring shard");
                seen += 1;
            });
        }
        assert_eq!(seen, keys.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unicode_canonical_keys_survive_persistence() {
        let dir = tmpdir("unicode");
        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let key = PointKey::from_canonical("wörk|😀|\"quoted\"|tab\t".into());
        durable.append(&key, &sample_report());
        drop(durable);
        let durable: Durable<SimReport> = Durable::open(&dir, 1).unwrap();
        let mut found = false;
        durable.ensure_loaded(0, |k, _| {
            assert_eq!(k.canonical(), "wörk|😀|\"quoted\"|tab\t");
            found = true;
        });
        assert!(found);
        std::fs::remove_dir_all(&dir).ok();
    }
}
