//! Renders an observability trace: top spans by total time plus the
//! per-layer spiking-activity table (the Fig. 4a quantity) reconstructed
//! from the `snn.spikes.node.*` / `snn.neurons.node.*` stream.
//!
//! ```sh
//! ULL_TRACE=/tmp/run.jsonl cargo run --release --example quickstart
//! cargo run --release -p ull-bench --bin obs_summary -- /tmp/run.jsonl
//! ```
//!
//! With `--validate`, every line must be a trace event and the process
//! exits non-zero otherwise — the CI smoke check. Well-formed events
//! whose variant tag this build does not know (a trace from a newer
//! writer) are *skipped and counted*, not treated as garbage: only
//! structurally broken lines fail validation.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ull_bench::{classify_trace_line, TraceLine};
use ull_obs::{HistogramSnapshot, SpanStat, TraceEvent};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let validate = args.iter().any(|a| a == "--validate");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: obs_summary [--validate] <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_summary: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    let mut events = 0usize;
    let mut skipped: BTreeMap<String, usize> = BTreeMap::new();
    let mut bad = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match classify_trace_line(line) {
            TraceLine::Event(ev) => {
                events += 1;
                match *ev {
                    TraceEvent::Span { path, dur_us, .. } => {
                        let s = spans.entry(path).or_default();
                        s.count += 1;
                        s.total_ns += dur_us * 1_000;
                        s.max_ns = s.max_ns.max(dur_us * 1_000);
                    }
                    TraceEvent::Counter { key, delta, .. } => {
                        *counters.entry(key).or_insert(0) += delta;
                    }
                    TraceEvent::Gauge { key, value } => {
                        gauges.insert(key, value);
                    }
                    TraceEvent::Hist { key, value, .. } => {
                        hists.entry(key).or_default().record(value);
                    }
                }
            }
            TraceLine::Unknown(tag) => {
                *skipped.entry(tag).or_insert(0) += 1;
            }
            TraceLine::Garbage => {
                bad += 1;
                eprintln!("line {}: unparseable trace event", lineno + 1);
            }
        }
    }
    let skipped_total: usize = skipped.values().sum();
    println!("{path}: {events} events ({skipped_total} skipped unknown, {bad} unparseable)");
    for (tag, n) in &skipped {
        println!("  skipped {n} x unknown variant \"{tag}\"");
    }
    if validate && bad > 0 {
        return ExitCode::FAILURE;
    }

    println!("\ntop spans by total time:");
    let mut by_time: Vec<(&String, &SpanStat)> = spans.iter().collect();
    by_time.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
    for (p, s) in by_time.iter().take(15) {
        println!(
            "  {:<44} {:>8} calls  {:>12.3} ms total  {:>10.3} ms max",
            p,
            s.count,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6
        );
    }

    if !hists.is_empty() {
        println!("\nhistograms (log2-bucketed; quantiles are bucket upper bounds):");
        println!("  key                                    count      p50      p99      max");
        for (key, h) in &hists {
            println!(
                "  {:<38} {:>6} {:>8} {:>8} {:>8}",
                key,
                h.count,
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            );
        }
    }

    // Per-layer activity: spikes / (images × neurons) per node — the
    // paper's ζ. Node ids come from the counter key suffix.
    let images = counters.get("snn.forward.images").copied().unwrap_or(0);
    let mut rows = Vec::new();
    for (key, &spikes) in counters.range("snn.spikes.node.".to_string()..) {
        let Some(id) = key.strip_prefix("snn.spikes.node.") else {
            break;
        };
        let neurons = gauges
            .get(&format!("snn.neurons.node.{id}"))
            .copied()
            .unwrap_or(0);
        rows.push((id.parse::<usize>().unwrap_or(usize::MAX), spikes, neurons));
    }
    rows.sort_unstable();
    if !rows.is_empty() {
        println!("\nper-layer spiking activity ({images} images):");
        println!("  node   spikes        neurons   spikes/neuron/image");
        for (id, spikes, neurons) in rows {
            let rate = if images > 0 && neurons > 0 {
                spikes as f64 / (images as f64 * neurons as f64)
            } else {
                0.0
            };
            println!("  {id:<5}  {spikes:<12}  {neurons:<8}  {rate:.4}");
        }
    }

    // Executed-vs-nominal work: `tensor.macs` counts the m·k·n a dense
    // GEMM would do; `tensor.acs` counts the accumulates the kernels
    // actually ran after zero-skipping — their ratio is the measured
    // sparse-compute saving.
    let interesting = [
        "tensor.macs",
        "tensor.acs",
        "nn.train.batches",
        "snn.train.batches",
        "checkpoint.saves",
        "checkpoint.bytes",
        "convert.alpha_candidates",
        "convert.pairs_evaluated",
        "recovery.rollbacks",
        "recovery.resumes",
    ];
    println!("\ncounters:");
    for key in interesting {
        if let Some(v) = counters.get(key) {
            println!("  {key:<28} {v}");
        }
    }
    ExitCode::SUCCESS
}
