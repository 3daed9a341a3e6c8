//! The JSON line a pass prints for the orchestrator (`run.py`), and the
//! helpers every workload shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Seed of the CLI's `valign all`; benchmark seed 0 maps onto it, so the
/// committed sweep reference is the default run's output.
pub const DEFAULT_SEED: u64 = 20_070_425;

/// The program seed a benchmark seed stands for.
pub fn program_seed(seed: u64) -> u64 {
    DEFAULT_SEED.wrapping_add(seed)
}

/// Worker and client threads: at most the cores the machine has.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Tells the orchestrator set-up is over: its clock for `setup_s` stops
/// when this line arrives.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{{\"event\": \"ready\"}}");
    let _ = out.flush();
}

/// Named numbers recorded at layer boundaries (counts, bytes, ratios).
pub type Counters = BTreeMap<&'static str, f64>;

/// One pass's result, rendered as a single JSON object.
#[derive(Default)]
pub struct Report {
    fields: Vec<(&'static str, String)>,
}

impl Report {
    pub fn num(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.fields.push((key, fmt_f64(value)));
        self
    }

    pub fn nums(&mut self, key: &'static str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| fmt_f64(*v)).collect();
        self.fields.push((key, format!("[{}]", items.join(", "))));
        self
    }

    pub fn text(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.fields.push((key, format!("\"{}\"", escape(value))));
        self
    }

    /// Latencies in ms; `None` is a refused request, rendered `null`.
    pub fn latencies(&mut self, key: &'static str, values: &[Option<f64>]) -> &mut Self {
        let items: Vec<String> = values
            .iter()
            .map(|v| v.map_or("null".to_string(), fmt_f64))
            .collect();
        self.fields.push((key, format!("[{}]", items.join(", "))));
        self
    }

    pub fn counters(&mut self, key: &'static str, counters: &Counters) -> &mut Self {
        let items: Vec<String> = counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", fmt_f64(*v)))
            .collect();
        self.fields.push((key, format!("{{{}}}", items.join(", "))));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": {v}");
        }
        out.push('}');
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The `job_id`-independent body of a scorecard frame: everything from
/// the `"job"` key on, as `scorecard_body` renders it.
pub fn card_body(frame: &str) -> &str {
    frame.find("\"job\": ").map_or(frame, |at| &frame[at..])
}

/// Writes `text` to `path`, naming the file in the error.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Milliseconds since `since`.
pub fn ms_since(since: std::time::Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}
