//! Diagnostics: what every rule emits, and how findings are rendered.
//!
//! The JSON renderings form a versioned schema (see [`SCHEMA_VERSION`]
//! and DESIGN.md §15): report objects carry `schema_version`, and the
//! `rule` field of every diagnostic is drawn from the closed
//! [`RuleName`] set, so downstream tooling can match on rule names
//! without breaking when rules are added (additions bump nothing; only
//! renaming or removing a rule, or changing field layout, bumps the
//! version).

use std::fmt;
use valign_core::serve::protocol::escape_json;

/// Version of the JSON diagnostic schema (`valign lint --json`,
/// `valign audit --json`). Bumped only on breaking changes: renaming or
/// removing a [`RuleName`], or changing the field layout of the report
/// or diagnostic objects. Adding rules or report fields is
/// backwards-compatible and does not bump it.
///
/// Version 2 replaced the two structural image rules (bitset and side
/// array) with `image-structure`; version 3 folded `image-deps` into
/// `image-dep-oracle`.
pub const SCHEMA_VERSION: u32 = 3;

/// The closed set of stable rule names, one per module of
/// [`crate::rules`] and in the same run order as
/// [`crate::rules::ALL_RULES`] (a unit test keeps them in lock step).
/// Downstream tooling should match on this enum (via [`RuleName::parse`])
/// rather than raw strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleName {
    /// `trace-wellformed`
    TraceWellformed,
    /// `alignment-invariant`
    AlignmentInvariant,
    /// `register-def-use`
    RegisterDefUse,
    /// `memory-dependence`
    MemoryDependence,
    /// `latency-completeness`
    LatencyCompleteness,
    /// `image-structure`
    ImageStructure,
    /// `image-dep-oracle`
    ImageDepOracle,
    /// `attribution-conservation`
    AttributionConservation,
    /// `outcome-consistency`
    OutcomeConsistency,
    /// `costmodel-soundness`
    CostmodelSoundness,
}

impl RuleName {
    /// Every rule, in [`crate::rules::ALL_RULES`] order.
    pub const ALL: &'static [RuleName] = &[
        RuleName::TraceWellformed,
        RuleName::AlignmentInvariant,
        RuleName::RegisterDefUse,
        RuleName::MemoryDependence,
        RuleName::LatencyCompleteness,
        RuleName::ImageStructure,
        RuleName::ImageDepOracle,
        RuleName::AttributionConservation,
        RuleName::OutcomeConsistency,
        RuleName::CostmodelSoundness,
    ];

    /// The stable wire name of this rule.
    pub const fn as_str(self) -> &'static str {
        match self {
            RuleName::TraceWellformed => "trace-wellformed",
            RuleName::AlignmentInvariant => "alignment-invariant",
            RuleName::RegisterDefUse => "register-def-use",
            RuleName::MemoryDependence => "memory-dependence",
            RuleName::LatencyCompleteness => "latency-completeness",
            RuleName::ImageStructure => "image-structure",
            RuleName::ImageDepOracle => "image-dep-oracle",
            RuleName::AttributionConservation => "attribution-conservation",
            RuleName::OutcomeConsistency => "outcome-consistency",
            RuleName::CostmodelSoundness => "costmodel-soundness",
        }
    }

    /// Parses a wire name back into the enum; `None` for unknown names.
    pub fn parse(name: &str) -> Option<RuleName> {
        RuleName::ALL.iter().copied().find(|r| r.as_str() == name)
    }
}

impl fmt::Display for RuleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a finding is.
///
/// Ordered: `Info < Warning < Error`. The lint gate fails only on
/// [`Severity::Error`]; warnings document model-visible oddities (natural
/// misalignment in scalar code, forwarding the LSU does not model) without
/// blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Context worth surfacing (e.g. a suppression summary).
    Info,
    /// A model-visible oddity that is not an invariant violation.
    Warning,
    /// An invariant the construction guarantees does not hold.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("INFO"),
            Severity::Warning => f.write_str("WARNING"),
            Severity::Error => f.write_str("ERROR"),
        }
    }
}

/// One finding of one rule over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule name (e.g. `"alignment-invariant"`).
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Kernel label of the analysed trace ("luma16x16", …).
    pub kernel: String,
    /// Variant label of the analysed trace ("scalar", …).
    pub variant: String,
    /// Trace index of the offending dynamic instruction, when the finding
    /// points at one (rule-level findings such as a latency-table gap
    /// carry `None`).
    pub instr_index: Option<u32>,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Renders the finding as one human-readable line.
    ///
    /// `ERROR [alignment-invariant] luma16x16/altivec #42: lvx EA ...`
    pub fn render_human(&self) -> String {
        let site = match self.instr_index {
            Some(i) => format!(" #{i}"),
            None => String::new(),
        };
        format!(
            "{} [{}] {}/{}{}: {}",
            self.severity, self.rule, self.kernel, self.variant, site, self.message
        )
    }

    /// Renders the finding as one JSON object.
    pub fn render_json(&self) -> String {
        let idx = match self.instr_index {
            Some(i) => i.to_string(),
            None => "null".to_string(),
        };
        format!(
            r#"{{"rule":"{}","severity":"{}","kernel":"{}","variant":"{}","instr_index":{},"message":"{}"}}"#,
            escape_json(self.rule),
            self.severity.label(),
            escape_json(&self.kernel),
            escape_json(&self.variant),
            idx,
            escape_json(&self.message)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "alignment-invariant",
            severity: Severity::Error,
            kernel: "luma16x16".to_string(),
            variant: "altivec".to_string(),
            instr_index: Some(42),
            message: "lvx EA 0x10005 not 16-byte aligned".to_string(),
        }
    }

    #[test]
    fn severities_are_ordered() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn human_line_carries_everything() {
        let line = sample().render_human();
        assert_eq!(
            line,
            "ERROR [alignment-invariant] luma16x16/altivec #42: lvx EA 0x10005 not 16-byte aligned"
        );
    }

    #[test]
    fn json_object_is_wellformed() {
        let d = sample().render_json();
        assert!(d.starts_with('{') && d.ends_with('}'));
        assert!(d.contains(r#""severity":"error""#));
        assert!(d.contains(r#""instr_index":42"#));
        let none = Diagnostic {
            instr_index: None,
            ..sample()
        };
        assert!(none.render_json().contains(r#""instr_index":null"#));
    }

    #[test]
    fn rule_names_round_trip() {
        for &rule in RuleName::ALL {
            assert_eq!(RuleName::parse(rule.as_str()), Some(rule));
            assert_eq!(rule.to_string(), rule.as_str());
        }
        assert_eq!(RuleName::parse("ALIGNMENT-INVARIANT"), None, "case-exact");
    }
}
