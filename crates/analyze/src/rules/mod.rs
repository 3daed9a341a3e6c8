//! The individual analysis rules.
//!
//! Each rule is a free function to a list of [`crate::Diagnostic`]s, and
//! exports its stable name as `RULE`. Trace rules take a
//! [`crate::TraceCtx`] (plus any rule-specific metadata) and are run by
//! [`crate::analyze_trace`]; the `image_*` audit rules take a
//! [`crate::ImageCtx`] over a packed replay image and are run by
//! [`crate::analyze_image`] — including on images decoded straight from
//! a `.vimg` store file, with no trace in sight. The
//! [`costmodel`] rule needs both (it replays the trace and compares
//! against the image's static bounds).
//!
//! The closed set of rule names is mirrored by
//! [`crate::diag::RuleName`]; a unit test here keeps the two in sync.

pub mod alignment;
pub mod conservation;
pub mod costmodel;
pub mod defuse;
pub mod image_dep_oracle;
pub mod image_structure;
pub mod latency;
pub mod memdep;
pub mod outcome;
pub mod wellformed;

/// Stable names of all rules, in the order [`crate::analyze_trace`] runs
/// them. The conservation, outcome and costmodel-soundness rules run
/// last and only on traces the earlier rules passed without an ERROR
/// (they replay the trace, which a malformed trace could crash).
pub const ALL_RULES: &[&str] = &[
    wellformed::RULE,
    alignment::RULE,
    defuse::RULE,
    memdep::RULE,
    latency::RULE,
    image_structure::RULE,
    image_dep_oracle::RULE,
    conservation::RULE,
    outcome::RULE,
    costmodel::RULE,
];

#[cfg(test)]
mod tests {
    use crate::diag::RuleName;

    #[test]
    fn rule_name_enum_mirrors_all_rules_exactly() {
        let from_enum: Vec<&str> = RuleName::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(super::ALL_RULES, from_enum.as_slice());
        for &name in super::ALL_RULES {
            assert_eq!(RuleName::parse(name).map(RuleName::as_str), Some(name));
        }
        assert_eq!(RuleName::parse("no-such-rule"), None);
    }
}
