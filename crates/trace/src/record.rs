//! A single trace record.

use core::fmt;

use serde::{Deserialize, Serialize};

use fc_types::{AccessKind, CoreId, FnvHasher, MemAccess, Pc, PhysAddr};

/// One memory reference in a trace: the access itself plus the number of
/// instructions the issuing core executed since its previous memory
/// reference (used to advance simulated time at fixed IPC, Section 5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Program counter of the instruction performing the access.
    pub pc: Pc,
    /// Physical byte address accessed.
    pub addr: PhysAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// Issuing core.
    pub core: CoreId,
    /// Instructions executed on `core` since its previous record
    /// (including this one; always at least 1).
    pub inst_gap: u32,
}

impl TraceRecord {
    /// The [`MemAccess`] view of this record (drops the instruction gap).
    #[inline]
    pub fn access(&self) -> MemAccess {
        MemAccess {
            pc: self.pc,
            addr: self.addr,
            kind: self.kind,
            core: self.core,
        }
    }
}

/// FNV-1a digest of a record sequence over every field: `pc` and `addr`
/// (8 bytes each), `kind` (0 read, 1 write), `core`, and `inst_gap`
/// (4 bytes), all little-endian. Two streams with equal digests are, for
/// any practical purpose, the same records in the same order.
///
/// ```
/// use fc_trace::{records_digest, TraceGenerator, WorkloadKind};
///
/// let a = records_digest(TraceGenerator::new(WorkloadKind::WebSearch, 4, 7).take(1000));
/// let b = records_digest(TraceGenerator::new(WorkloadKind::WebSearch, 4, 7).take(1000));
/// let c = records_digest(TraceGenerator::new(WorkloadKind::WebSearch, 4, 8).take(1000));
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn records_digest(records: impl IntoIterator<Item = TraceRecord>) -> u64 {
    use std::hash::Hasher;
    let mut hash = FnvHasher::default();
    for r in records {
        hash.write(&r.pc.raw().to_le_bytes());
        hash.write(&r.addr.raw().to_le_bytes());
        hash.write(&[u8::from(r.kind.is_write()), r.core]);
        hash.write(&r.inst_gap.to_le_bytes());
    }
    hash.finish()
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} +{}", self.access(), self.inst_gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_view_preserves_fields() {
        let r = TraceRecord {
            pc: Pc::new(0x400),
            addr: PhysAddr::new(0x1234),
            kind: AccessKind::Write,
            core: 5,
            inst_gap: 17,
        };
        let a = r.access();
        assert_eq!(a.pc, r.pc);
        assert_eq!(a.addr, r.addr);
        assert_eq!(a.kind, r.kind);
        assert_eq!(a.core, r.core);
    }

    #[test]
    fn display_appends_gap() {
        let r = TraceRecord {
            pc: Pc::new(0x10),
            addr: PhysAddr::new(0x20),
            kind: AccessKind::Read,
            core: 0,
            inst_gap: 3,
        };
        assert_eq!(format!("{r}"), "core0 R 0x20 pc=0x10 +3");
    }
}
