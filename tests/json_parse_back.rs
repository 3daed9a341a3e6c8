//! Every hand-built JSON document the program emits parses back through
//! the protocol's reader (`Json::parse`), and every string it carries
//! comes back equal, even one holding a quote, a backslash, a newline
//! and U+0001. The emitters' own tests check substrings only, which a
//! malformed document passes.

use std::time::Duration;
use valign::analyze::audit::{FileAudit, MatrixAuditReport, PairAudit, StoreAuditReport};
use valign::analyze::{Diagnostic, LintReport, Severity};
use valign::core::explain::{Explain, ExplainRow};
use valign::core::serve::protocol::{
    render_accepted, render_batch_done, render_error, render_rejected, render_scorecard, Json,
};
use valign::core::serve::{
    DoneRecord, JobSpec, Journal, PendingRecord, Priority, Request, SubmitRequest, JOURNAL_FILE,
};
use valign::core::workload::KernelId;
use valign::core::{JobFailure, JobOutcome, OutcomeTally, SimContext, SimJob, TraceKey};
use valign::kernels::util::Variant;
use valign::pipeline::{costmodel, PipelineConfig};

/// A string every emitter must escape.
const ODD: &str = "a\"b\\c\nd\u{1}e";

/// Parses `doc` and counts the string values that carry [`ODD`] intact.
/// The reader accepts raw control bytes, so their escaping is checked on
/// the text.
fn odd_strings(doc: &str) -> usize {
    assert!(doc.bytes().all(|b| b >= 0x20), "raw control byte: {doc}");
    fn count(v: &Json) -> usize {
        match v {
            Json::Str(s) => usize::from(s.contains(ODD)),
            Json::Arr(items) => items.iter().map(count).sum(),
            Json::Obj(members) => members.iter().map(|(_, v)| count(v)).sum(),
            _ => 0,
        }
    }
    count(&Json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}")))
}

/// A finding with [`ODD`] in its four string fields.
fn odd_diagnostic(instr_index: Option<u32>) -> Diagnostic {
    Diagnostic {
        rule: ODD,
        severity: Severity::Error,
        kernel: ODD.to_string(),
        variant: ODD.to_string(),
        instr_index,
        message: ODD.to_string(),
    }
}

#[test]
fn every_emitted_json_document_parses_back() {
    let key = TraceKey {
        kernel: KernelId::Idct4x4,
        variant: Variant::Unaligned,
        execs: 4,
        seed: 7,
    };
    let ctx = SimContext::new(1);
    let result = ctx.run_batch(
        "parse-back",
        vec![SimJob::keyed(key, PipelineConfig::four_way())],
    )[0];
    let mut cfg = PipelineConfig::four_way();
    cfg.name = ODD;

    assert_eq!(odd_strings(&odd_diagnostic(Some(42)).render_json()), 4);
    let lint = LintReport {
        diagnostics: vec![odd_diagnostic(Some(3)), odd_diagnostic(None)],
        traces_analyzed: 2,
    };
    assert_eq!(odd_strings(&lint.render_json()), 8);
    let file = |decode_error: Option<String>, bounds| FileAudit {
        file: ODD.to_string(),
        label: ODD.to_string(),
        bytes: 1,
        records: 1,
        decode_error,
        checksum_rederived: true,
        diagnostics: vec![odd_diagnostic(None)],
        bounds,
    };
    let bounds = costmodel::bounds(&ctx.store().prepared(key).image, &cfg);
    let store = StoreAuditReport {
        root: ODD.into(),
        files: vec![
            file(Some(ODD.to_string()), vec![]),
            file(None, vec![bounds]),
        ],
        wall: Duration::ZERO,
    };
    // The root, six strings per file, one decode error, one bound's config.
    assert_eq!(odd_strings(&store.render_json()), 15);
    let matrix = MatrixAuditReport {
        pairs: vec![PairAudit {
            kernel: ODD.to_string(),
            variant: ODD.to_string(),
            diagnostics: vec![odd_diagnostic(None)],
            soundness_pass: true,
        }],
        wall: Duration::ZERO,
    };
    assert_eq!(odd_strings(&matrix.render_json()), 6);
    let explain = Explain {
        kernel: key.kernel,
        variant: key.variant,
        execs: key.execs,
        rows: vec![ExplainRow {
            config: ODD,
            result,
        }],
    };
    assert_eq!(odd_strings(&explain.render_json()), 1);

    assert_eq!(odd_strings(&render_error(ODD)), 1);
    assert_eq!(odd_strings(&render_accepted(3)), 0);
    assert_eq!(odd_strings(&render_rejected(ODD, Some(250))), 1);
    assert_eq!(odd_strings(&render_rejected(ODD, None)), 1);
    let job = SimJob::keyed(key, cfg);
    let card = render_scorecard(9, &job, &JobOutcome::Completed { result });
    assert_eq!(odd_strings(&card), 1);
    let cycles = Json::parse(&card)
        .unwrap()
        .get("cycles")
        .and_then(Json::as_u64);
    assert_eq!(cycles, Some(result.cycles));
    let quarantined = JobOutcome::Quarantined {
        failure: JobFailure::Panicked {
            message: ODD.to_string(),
        },
        attempts: 3,
    };
    // The config name and the failure message.
    assert_eq!(odd_strings(&render_scorecard(10, &job, &quarantined)), 2);
    let tally = OutcomeTally {
        completed: 1,
        retried: 1,
        degraded: 1,
        quarantined: 1,
    };
    assert_eq!(odd_strings(&render_batch_done(4, &tally)), 0);

    let spec = JobSpec {
        kernel: ODD.to_string(),
        variant: ODD.to_string(),
        config: ODD.to_string(),
        execs: 5,
        seed: u64::MAX,
        realign: ODD.to_string(),
    };
    let submit = SubmitRequest {
        client: ODD.to_string(),
        priority: Priority::High,
        inject: vec![ODD.to_string()],
        jobs: vec![spec.clone()],
    };
    assert_eq!(odd_strings(&submit.render()), 6);
    assert_eq!(
        Request::parse(&submit.render()),
        Ok(Request::Submit(submit))
    );

    // A reopen parses every journal record back.
    let root = std::env::temp_dir().join(format!("valign-parse-back-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let accepted = PendingRecord {
        hash: 1,
        priority: Priority::Low,
        inject: vec![ODD.to_string()],
        spec,
    };
    let done = DoneRecord {
        hash: 2,
        kind: ODD.to_string(),
        card: ODD.to_string(),
    };
    let (mut journal, _) = Journal::open(root.join(JOURNAL_FILE)).unwrap();
    journal.append_accepted(&accepted).unwrap();
    journal.append_done(&done).unwrap();
    drop(journal);
    let (_, replay) = Journal::open(root.join(JOURNAL_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!((replay.pending, replay.done), (vec![accepted], vec![done]));
}
