//! Shared plumbing: arguments, statistics, the result line, and the
//! benchmark's own span recorder.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// Parsed command line: `--overload-rps R --workload NAME --seed N
/// --seconds S --trace 0|1`.
pub struct Args {
    /// Offered rate of the traced run's open-loop overload burst in
    /// requests/s. BENCHMARK.json fixes it in the benchmark command, so no
    /// run re-measures it.
    pub overload_rps: f64,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value"))
        };
        let positive = |flag: &str| -> Result<f64, String> {
            let v: f64 = get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{flag} must be positive"))
            }
        };
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Args {
            overload_rps: positive("--overload-rps")?,
            workload: get("--workload")?,
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: positive("--seconds")?,
            trace,
        })
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (`rank = ceil(p·n)`) of `v` (0 when empty).
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Smallest value of `v` (infinity when empty).
pub fn fastest(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Top-1 class with ties resolved to the last index, the rule the server
/// applies to a prediction row.
pub fn argmax_last(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Order-sensitive FNV-1a over the bit patterns of `values`.
pub fn fingerprint(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Outcome of one run: the correctness verdict, request accounting and
/// metrics, printed as the last line of standard output.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a
                // measurement bug and is reported as 0.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One recorded span: a timed call into a layer, with its parent span and
/// the request it served (0 when it served none).
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. Spans nest per thread; the log is written
/// out once, when the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let id = {
            let mut spans = self.spans.lock().expect("span log lock");
            spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                request,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let r = f();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("span log lock")[id].end_us =
            self.epoch.elapsed().as_secs_f64() * 1e6;
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the time its children cover, summed by name.
    pub fn self_ms(&self) -> Vec<(&'static str, f64, usize)> {
        let spans = self.spans();
        let mut child_us = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_us - s.start_us - child_us[i]).max(0.0) / 1e3;
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or("null".into());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {parent}, \"request\": {}}}\n",
                s.name, s.start_us, s.end_us, s.request
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
