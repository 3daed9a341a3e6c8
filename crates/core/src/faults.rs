//! Deterministic fault injection for the supervised batch executor.
//!
//! The same generate-once/replay-many discipline that makes the happy
//! path bit-identical at any thread count extends here to the *failure*
//! path: a fault is a pure function of `(seed, trace key, fault class)`,
//! never of wall-clock, thread id or allocation addresses. Injecting the
//! same spec into the same batch twice corrupts the same byte, stalls the
//! same record and panics the same job — so failure handling can be
//! regression-tested as tightly as the simulator itself.
//!
//! A fault is described by a [`FaultSpec`] (`class:selector`, the CLI's
//! `--inject` grammar), collected into a [`FaultSet`], and resolved per
//! job into a [`FaultPlan`]: the class plus a hash-derived *site* that
//! picks the corrupted record/offset. The classes map onto the detection
//! rungs of the integrity ladder (see `supervise`):
//!
//! | class          | mechanism                               | detected by |
//! |----------------|-----------------------------------------|-------------|
//! | `panic`        | forced panic in the worker              | `catch_unwind` |
//! | `stall`        | injected dispatch stall > cycle budget  | watchdog (transient → retry) |
//! | `truncate`     | per-record arrays shortened             | static validation |
//! | `bitflip`      | flag byte flipped                       | static validation |
//! | `image-corrupt`| dependence cursor bent, stale checksum  | checksum verification |
//! | `lsu-overflow` | dependence ordinal outside store window (a producer before record 0 when there is no list) | guarded replay walk (static validation) |
//! | `disk-corrupt` | stored image file bytes corrupted       | store integrity ladder (`valign-store`) |
//! | `io-error`     | store write-back fails outright         | write-failure stat, memory-tier fallback |
//! | `short-write`  | store write-back tears mid-file         | atomic temp-file discipline (never renamed) |
//! | `torn-frame`   | scorecard frame cut mid-payload         | client framing (`FrameError::Truncated`) |
//! | `disconnect`   | connection severed before delivery      | client `ServeError::Disconnected` |
//!
//! The last four classes never touch a simulated image: they fire in the
//! storage and service layers (`StoreDir` write-back, the serve
//! connection writer) and are no-ops inside the simulator proper.

use std::fmt;
use valign_pipeline::hash::WordHash;
use valign_pipeline::Sabotage;

/// The injectable failure classes (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Forced panic inside the job — exercises panic isolation.
    Panic,
    /// Artificial per-job stall past the cycle budget. Transient: models
    /// a hiccup, so it is only active on a job's first attempt and a
    /// retry succeeds.
    Stall,
    /// Trace truncation: the image's per-record arrays end early.
    Truncate,
    /// Bit-flip in a record's flag byte.
    BitFlip,
    /// `ReplayImage` cursor corruption with a stale stored checksum —
    /// the one class the load-time checksum (not validation) catches.
    ImageCorrupt,
    /// LSU-ring overflow: a store-to-load dependence ordinal far outside
    /// the trailing store window.
    LsuOverflow,
    /// On-disk corruption of the persistent store tier: the job's image
    /// is pushed through the `valign-store` container encode, its file
    /// bytes are deterministically damaged, and the decode must climb the
    /// integrity ladder and reject — the job then degrades to the
    /// reference walker. Never touches the in-memory image.
    DiskCorrupt,
    /// Store write-back fails outright (full or read-only disk model).
    /// The job keeps its in-memory image; the disk tier records a
    /// write-failure stat instead of aborting the batch.
    IoError,
    /// Store write-back tears partway through the temp file. The atomic
    /// rename discipline means the torn bytes are never visible under the
    /// content-addressed name.
    ShortWrite,
    /// The serve connection writer cuts a scorecard frame mid-payload and
    /// severs the stream — the client must surface a disconnect with
    /// whatever scorecards arrived intact.
    TornFrame,
    /// The serve connection is severed before a scorecard is written at
    /// all.
    Disconnect,
}

impl FaultClass {
    /// Every class, in spec order.
    pub const ALL: &'static [FaultClass] = &[
        FaultClass::Panic,
        FaultClass::Stall,
        FaultClass::Truncate,
        FaultClass::BitFlip,
        FaultClass::ImageCorrupt,
        FaultClass::LsuOverflow,
        FaultClass::DiskCorrupt,
        FaultClass::IoError,
        FaultClass::ShortWrite,
        FaultClass::TornFrame,
        FaultClass::Disconnect,
    ];

    /// The spec name used by `--inject class:selector`.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::Stall => "stall",
            FaultClass::Truncate => "truncate",
            FaultClass::BitFlip => "bitflip",
            FaultClass::ImageCorrupt => "image-corrupt",
            FaultClass::LsuOverflow => "lsu-overflow",
            FaultClass::DiskCorrupt => "disk-corrupt",
            FaultClass::IoError => "io-error",
            FaultClass::ShortWrite => "short-write",
            FaultClass::TornFrame => "torn-frame",
            FaultClass::Disconnect => "disconnect",
        }
    }

    /// Inverse of [`FaultClass::label`].
    pub fn from_label(label: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.label() == label)
    }

    /// The image corruption this class applies, `None` for the classes
    /// that never touch the in-memory image (`panic`, `stall`,
    /// `disk-corrupt` — the latter damages the *file* form instead — and
    /// the I/O and connection classes, which fire outside the simulator).
    pub fn sabotage(self) -> Option<Sabotage> {
        match self {
            FaultClass::Panic
            | FaultClass::Stall
            | FaultClass::DiskCorrupt
            | FaultClass::IoError
            | FaultClass::ShortWrite
            | FaultClass::TornFrame
            | FaultClass::Disconnect => None,
            FaultClass::Truncate => Some(Sabotage::Truncate),
            FaultClass::BitFlip => Some(Sabotage::FlagBitFlip),
            FaultClass::ImageCorrupt => Some(Sabotage::CursorCorrupt),
            FaultClass::LsuOverflow => Some(Sabotage::DepOverflow),
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A malformed `--inject` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending spec text.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec `{}`: {}", self.spec, self.reason)
    }
}

impl std::error::Error for FaultParseError {}

/// One parsed `class:selector` injection spec.
///
/// The selector names jobs by their `kernel.variant` label with prefix
/// matching per component: `luma` hits every luma block size,
/// `luma8x8.unaligned` exactly one kernel/variant, `*` (or a missing
/// component) everything. Jobs built from shared traces (not store keys)
/// carry the label `shared`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub class: FaultClass,
    /// Kernel-label prefix, `None` for any.
    kernel: Option<String>,
    /// Variant-label prefix, `None` for any.
    variant: Option<String>,
}

impl FaultSpec {
    /// Parses `class:selector` (e.g. `panic:luma8x8.unaligned`,
    /// `image-corrupt:*`, `stall:chroma`).
    pub fn parse(spec: &str) -> Result<FaultSpec, FaultParseError> {
        let err = |reason: &str| FaultParseError {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        let (class_str, selector) = spec
            .split_once(':')
            .ok_or_else(|| err("expected class:selector"))?;
        let class = FaultClass::from_label(class_str).ok_or_else(|| {
            err(&format!(
                "unknown class `{class_str}` (known: {})",
                FaultClass::ALL
                    .iter()
                    .map(|c| c.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        if selector.is_empty() {
            return Err(err("empty selector (use `*` for all jobs)"));
        }
        let component = |s: &str| {
            if s.is_empty() || s == "*" {
                None
            } else {
                Some(s.to_string())
            }
        };
        let (kernel, variant) = match selector.split_once('.') {
            Some((k, v)) => (component(k), component(v)),
            None => (component(selector), None),
        };
        Ok(FaultSpec {
            class,
            kernel,
            variant,
        })
    }

    /// Whether this spec selects a job labelled `label`
    /// (`kernel.variant`, or `shared` for store-bypassing traces).
    pub fn matches(&self, label: &str) -> bool {
        let (kernel, variant) = match label.split_once('.') {
            Some((k, v)) => (k, v),
            None => (label, ""),
        };
        self.kernel.as_deref().is_none_or(|p| kernel.starts_with(p))
            && self
                .variant
                .as_deref()
                .is_none_or(|p| variant.starts_with(p))
    }
}

/// A resolved per-job injection: the class plus the deterministic site
/// hash that picks which record/offset the fault lands on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to inject.
    pub class: FaultClass,
    /// Hash of `(seed, job label, class)` — the fault's position key.
    pub site: u64,
}

impl FaultPlan {
    /// Whether the fault fires on the job's `attempt`-th try (0-based).
    /// [`FaultClass::Stall`] is transient — a modelled hiccup that clears
    /// on retry; every other class is persistent.
    pub fn active(&self, attempt: u32) -> bool {
        self.class != FaultClass::Stall || attempt == 0
    }
}

/// The deterministic fault site for a job: a pure hash of the workload
/// seed, the job's label and the fault class, so equal batches inject
/// equal faults and distinct jobs (or classes) corrupt distinct places.
pub fn fault_site(seed: u64, label: &str, class: FaultClass) -> u64 {
    // "valign-flt" domain seed, distinct from the image-checksum domain.
    let mut h = WordHash::new(0x7661_6c69_676e_0002);
    h.write_u64(seed);
    h.write_bytes(label.as_bytes());
    h.write_bytes(class.label().as_bytes());
    h.finish()
}

/// An ordered collection of [`FaultSpec`]s; the first matching spec wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    specs: Vec<FaultSpec>,
}

impl FaultSet {
    /// The empty set: injects nothing (the clean sweep).
    pub fn none() -> FaultSet {
        FaultSet::default()
    }

    /// Builds a set from `--inject` spec strings, rejecting the first
    /// malformed one.
    pub fn parse(specs: &[String]) -> Result<FaultSet, FaultParseError> {
        let specs = specs
            .iter()
            .map(|s| FaultSpec::parse(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultSet { specs })
    }

    /// Adds one spec.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// Whether the set injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Resolves the plan for a job labelled `label` under workload
    /// `seed`: the first matching spec, with its deterministic site.
    pub fn plan_for(&self, label: &str, seed: u64) -> Option<FaultPlan> {
        self.specs
            .iter()
            .find(|s| s.matches(label))
            .map(|s| FaultPlan {
                class: s.class,
                site: fault_site(seed, label, s.class),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_round_trip() {
        for &c in FaultClass::ALL {
            assert_eq!(FaultClass::from_label(c.label()), Some(c));
        }
        assert_eq!(FaultClass::from_label("meteor"), None);
    }

    #[test]
    fn spec_parsing_accepts_the_grammar() {
        let s = FaultSpec::parse("panic:luma8x8.unaligned").expect("full selector");
        assert_eq!(s.class, FaultClass::Panic);
        assert!(s.matches("luma8x8.unaligned"));
        assert!(!s.matches("luma16x16.unaligned"));
        assert!(!s.matches("luma8x8.scalar"));

        let s = FaultSpec::parse("image-corrupt:*").expect("wildcard");
        assert!(s.matches("sad4x4.altivec"));
        assert!(s.matches("shared"));

        let s = FaultSpec::parse("stall:chroma").expect("kernel prefix");
        assert!(s.matches("chroma8x8.scalar"));
        assert!(!s.matches("luma8x8.scalar"));

        let s = FaultSpec::parse("bitflip:*.unaligned").expect("variant only");
        assert!(s.matches("luma4x4.unaligned"));
        assert!(!s.matches("luma4x4.altivec"));
    }

    #[test]
    fn spec_parsing_rejects_nonsense() {
        for bad in ["panic", "meteor:*", "panic:", ":x", ""] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let e = FaultSpec::parse("meteor:*").expect_err("unknown class");
        assert!(e.to_string().contains("meteor"), "{e}");
        assert!(e.to_string().contains("image-corrupt"), "lists known: {e}");
    }

    #[test]
    fn fault_sites_are_deterministic_and_distinct() {
        let a = fault_site(42, "luma8x8.unaligned", FaultClass::BitFlip);
        assert_eq!(a, fault_site(42, "luma8x8.unaligned", FaultClass::BitFlip));
        assert_ne!(a, fault_site(43, "luma8x8.unaligned", FaultClass::BitFlip));
        assert_ne!(a, fault_site(42, "luma8x8.altivec", FaultClass::BitFlip));
        assert_ne!(a, fault_site(42, "luma8x8.unaligned", FaultClass::Truncate));
    }

    #[test]
    fn first_matching_spec_wins_and_stall_is_transient() {
        let set = FaultSet::parse(&["stall:luma".to_string(), "panic:*".to_string()])
            .expect("both parse");
        let luma = set.plan_for("luma8x8.scalar", 7).expect("matched");
        assert_eq!(luma.class, FaultClass::Stall);
        assert!(luma.active(0) && !luma.active(1), "stall clears on retry");
        let other = set.plan_for("sad8x8.scalar", 7).expect("wildcard");
        assert_eq!(other.class, FaultClass::Panic);
        assert!(other.active(0) && other.active(2), "panic persists");
        assert!(FaultSet::none().plan_for("luma8x8.scalar", 7).is_none());
    }
}
