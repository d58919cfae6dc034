//! The ucam benchmark: three workloads over loopback HTTP, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload warm_read|cold_flow|share_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the machine, seed and mode. See `README.md` beside this crate.

mod rig;
mod schedule;
mod spans;
mod stats;
mod workloads;

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::process::ExitCode;

use crate::spans::Span;
use crate::stats::{mean, median, percentile, ratio, supports};
use crate::workloads::{Scale, Window, Workload};
use ucam_sim::population::SplitMix64;

#[cfg(test)]
pub(crate) static SPAN_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Percentile of the end-to-end latency tail. The p99 is reported per
/// layer: on `share_churn` it is set by a handful of push stalls and
/// spreads by more than any bound allows from run to run.
const TAIL: f64 = 0.9;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn throughput(w: &Window) -> f64 {
    ratio(w.granted as f64, w.wall_s)
}

fn end_to_end(w: &Window) -> Vec<Metric> {
    vec![
        m("throughput_rps", throughput(w), "1/s"),
        m("access_p50_us", percentile(&w.latency_us, 0.5), "us"),
        m("access_p90_us", percentile(&w.latency_us, TAIL), "us"),
        m(
            "round_trips_per_access",
            ratio(w.access_rts as f64, w.accesses as f64),
            "count",
        ),
        m(
            "wire_bytes_per_access",
            ratio(w.access_bytes as f64, w.accesses as f64),
            "B",
        ),
        m("edit_visible_p50_ms", median(&w.edit_visible_ms), "ms"),
        m("setup_s", median(&w.setup_s), "s"),
    ]
}

/// Span-derived layer times of one traced window.
struct Layers {
    by_name: HashMap<&'static str, Vec<(u64, u64)>>,
}

impl Layers {
    /// Groups `(duration, self)` nanoseconds by span name; dispatches
    /// become `transport.wait`, their duration minus their handle's.
    fn new(spans: &[Span]) -> Layers {
        let selfs = spans::self_times(spans);
        let handles: HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.parent != 0 && !s.name.starts_with("transport."))
            .map(|s| (s.parent, s.duration_ns()))
            .collect();
        let pumps_that_sent: BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "transport.pipelined")
            .map(|s| s.parent)
            .collect();
        let mut by_name: HashMap<&'static str, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.name == "am.pump" && !pumps_that_sent.contains(&s.id) {
                continue;
            }
            by_name
                .entry(s.name)
                .or_default()
                .push((s.duration_ns(), selfs[&s.id]));
            if s.name == "transport.dispatch" {
                if let Some(handle) = handles.get(&s.id) {
                    by_name
                        .entry("transport.wait")
                        .or_default()
                        .push((s.duration_ns().saturating_sub(*handle), 0));
                }
            }
        }
        Layers { by_name }
    }

    fn mean_us(&self, name: &str, own: bool) -> f64 {
        let values: Vec<f64> = self
            .by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .map(|&(d, s)| if own { s } else { d } as f64 / 1e3)
                    .collect()
            })
            .unwrap_or_default();
        mean(&values)
    }
}

fn per_layer(traced: &Window, bare: &Window) -> Vec<Metric> {
    let layers = Layers::new(&traced.spans);
    let accesses = traced.accesses as f64;
    let p99 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 0.99)
        }
    };
    let mut visible = bare.edit_visible_ms.clone();
    visible.sort_by(f64::total_cmp);
    vec![
        m(
            "requester.self_us",
            layers.mean_us("requester.access", true),
            "us",
        ),
        m(
            "requester.token_hit_ratio",
            ratio(
                traced.requester.cache_hits as f64,
                traced.requester.accesses as f64,
            ),
            "ratio",
        ),
        m(
            "transport.rt_us",
            layers.mean_us("transport.dispatch", false),
            "us",
        ),
        m(
            "transport.wait_us",
            layers.mean_us("transport.wait", false),
            "us",
        ),
        m("host.access_us", layers.mean_us("host.access", true), "us"),
        m("host.push_us", layers.mean_us("host.push", false), "us"),
        m(
            "pep.tier1_ratio",
            ratio(traced.pep.sieve_hits as f64, accesses),
            "ratio",
        ),
        m(
            "pep.tier2_ratio",
            ratio(traced.pep.cache_hits as f64, accesses),
            "ratio",
        ),
        m(
            "pep.am_queries_per_access",
            ratio(traced.pep.am_queries as f64, accesses),
            "count",
        ),
        m(
            "pep.sieve_rejects",
            traced.pep.sieve_rejects as f64,
            "count",
        ),
        m(
            "am.authorize_us",
            layers.mean_us("am.authorize", true),
            "us",
        ),
        m("am.decide_us", layers.mean_us("am.decide", true), "us"),
        m("am.pap_us", layers.mean_us("am.pap", false), "us"),
        m("am.push_compile_us", layers.mean_us("am.pump", true), "us"),
        m("am.push_deliveries", traced.push_delivered as f64, "count"),
        m("am.push_requeues", traced.push_requeues as f64, "count"),
        m(
            "push.bytes_per_delivery",
            ratio(traced.push_body_bytes as f64, traced.push_delivered as f64),
            "B",
        ),
        m("gen.late_p99_us", p99(&bare.late_us), "us"),
        m("access.p99_us", p99(&bare.latency_us), "us"),
        m(
            "edit.visible_p90_ms",
            if visible.is_empty() {
                0.0
            } else {
                percentile(&visible, 0.9)
            },
            "ms",
        ),
        m(
            "trace.overhead_throughput_pct",
            100.0 * ratio(throughput(traced) - throughput(bare), throughput(bare)),
            "%",
        ),
        m(
            "trace.overhead_p50_us",
            percentile(&traced.latency_us, 0.5) - percentile(&bare.latency_us, 0.5),
            "us",
        ),
    ]
}

/// The CPU's brand string, read with `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: every x86-64 processor implements `cpuid`, and leaves
        // 0x8000_0000..=0x8000_0004 are read only after leaf 0x8000_0000
        // reports them.
        let leaves = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                None
            } else {
                Some([
                    __cpuid(0x8000_0002),
                    __cpuid(0x8000_0003),
                    __cpuid(0x8000_0004),
                ])
            }
        };
        if let Some(leaves) = leaves {
            let bytes: Vec<u8> = leaves
                .iter()
                .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
                .flat_map(u32::to_le_bytes)
                .filter(|&b| b != 0)
                .collect();
            return String::from_utf8_lossy(&bytes).trim().to_owned();
        }
    }
    "unknown".to_owned()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a failure's infinite latency prints as 1e15 µs.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e15".to_owned()
    }
}

fn report(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"transport\": \"http-loopback\"}}}}",
        json_str(&args.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model())
    );
    let scale = Scale::full();
    let mut bare = Window::default();
    let mut traced = Window::default();
    // A run pools several independent deployments, each with its own
    // seed, set-up and window. A deployment settles into a faster or
    // slower mode of the transport's idle path for its lifetime, so one
    // deployment per run would measure that draw rather than the code.
    // At least two, so a traced run has an untraced pool to compare.
    let deployments = ((args.seconds / scale.window_s(args.workload)).round() as u64).max(2);
    for i in 0..deployments {
        // A traced run alternates untraced and traced deployments; the
        // difference between the two pools is the tracing overhead.
        let trace_this = args.trace && i % 2 == 1;
        let seed = SplitMix64::new(args.seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        let share = args.seconds / deployments as f64;
        match workloads::run(args.workload, &scale, seed, share, trace_this) {
            Ok(w) if trace_this => traced.absorb(w),
            Ok(w) => bare.absorb(w),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (metrics, windows) = if args.trace {
        (per_layer(&traced, &bare), vec![bare, traced])
    } else {
        (end_to_end(&bare), vec![bare])
    };
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let violations: u64 = windows.iter().map(|w| w.violations).sum();
    let mut problems = Vec::new();
    if violations > 0 {
        problems.push(format!("{violations} grants outside the staleness window"));
    }
    for w in &windows {
        if !supports(w.latency_us.len(), TAIL) {
            problems.push(format!(
                "{} latency samples cannot support p{}",
                w.latency_us.len(),
                TAIL * 100.0
            ));
        }
        if w.edit_visible_ms.is_empty() {
            problems.push("no owner edit became visible".into());
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", report(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_one_json_object_with_finite_numbers() {
        let line = report(
            true,
            3,
            0,
            &[m("a_us", 1.5, "us"), m("b", f64::INFINITY, "us")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 1e15, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn layers_split_dispatch_into_handle_and_wait() {
        let span = |id, parent, name, start, end| Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        };
        let spans = [
            span(1, 0, "requester.access", 0, 10_000),
            span(2, 1, "transport.dispatch", 1_000, 9_000),
            span(3, 2, "host.access", 2_000, 8_000),
            span(4, 3, "transport.dispatch", 3_000, 5_000),
            span(5, 4, "am.decide", 3_500, 4_500),
            span(6, 0, "am.pump", 0, 1_000),
        ];
        let layers = Layers::new(&spans);
        assert_eq!(layers.mean_us("requester.access", true), 2.0);
        assert_eq!(layers.mean_us("host.access", true), 4.0);
        assert_eq!(layers.mean_us("transport.dispatch", false), 5.0);
        // (8 − 6) and (2 − 1) µs of waiting.
        assert_eq!(layers.mean_us("transport.wait", false), 1.5);
        assert_eq!(
            layers.mean_us("am.pump", true),
            0.0,
            "a pump that sent nothing"
        );
    }
}
