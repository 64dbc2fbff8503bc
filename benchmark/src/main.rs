//! The repo benchmark: six workloads, four end-to-end metrics each, and
//! a ladder of per-layer metrics from `se-sds` up to `se-server`. See
//! `README.md` beside this crate and `BENCHMARK.json` at the repo root.

mod compare;
mod inputs;
mod json;
mod paper;
mod served_read;
mod served_stream;
mod stats;
mod stream_ingest;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric; every workload reports all
/// of them with `--trace 0`. Must equal `BENCHMARK.json`'s `end_to_end`
/// (unit-tested).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("ops_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric; every workload prints all
/// of them with `--trace 1`, as 0 for a layer it never enters. Must
/// equal `BENCHMARK.json`'s `per_layer` (unit-tested).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("trace_overhead_share", "ratio"),
    ("sds.rank1_ns", "ns"),
    ("sds.select1_ns", "ns"),
    ("sds.wt_access_ns", "ns"),
    ("sds.wt_rank_ns", "ns"),
    ("sds.wt_select_ns", "ns"),
    ("sds.wt_range_search_ns_per_hit", "ns"),
    ("sds.bits_per_symbol", "bit"),
    ("litemat.encode_ms", "ms"),
    ("litemat.interval_lookup_ns", "ns"),
    ("core.build_s", "s"),
    ("core.objects_ns", "ns"),
    ("core.subjects_ns", "ns"),
    ("core.contains_ns", "ns"),
    ("core.scan_ns_per_row", "ns"),
    ("core.type_interval_ns_per_row", "ns"),
    ("core.bytes_per_triple", "B"),
    ("core.dict_bytes_per_triple", "B"),
    ("core.layer_bytes_per_triple", "B"),
    ("sparql.parse_us", "us"),
    ("sparql.compile_us", "us"),
    ("sparql.exec_cached_us", "us"),
    ("sparql.plan_hit_ratio", "ratio"),
    ("sparql.text_hit_ratio", "ratio"),
    ("sparql.rows_examined_per_result", "ratio"),
    ("stream.overlay_apply_us", "us"),
    ("stream.wal_append_us", "us"),
    ("stream.cq_eval_us", "us"),
    ("stream.ladder_sum_us", "us"),
    ("stream.compaction_share", "ratio"),
    ("stream.compaction_stall_us", "us"),
    ("stream.compactions", "count"),
    ("stream.background_compactions", "count"),
    ("stream.cq_incremental_share", "ratio"),
    ("stream.wal_bytes_per_triple", "B"),
    ("stream.checkpoint_ms", "ms"),
    ("stream.recover_ms", "ms"),
    ("stream.snapshot_us", "us"),
    ("stream.overlay_read_amp", "ratio"),
    ("server.rtt_floor_us", "us"),
    ("server.encode_rows_us", "us"),
    ("server.decode_rows_us", "us"),
    ("server.exec_twin_us", "us"),
    ("server.wire_dispatch_us", "us"),
    ("server.wire_share", "ratio"),
    ("server.plan_hit_ratio", "ratio"),
    ("server.text_hit_ratio", "ratio"),
    ("server.ack_twin_us", "us"),
    ("server.tick_wait_us", "us"),
    ("server.coalesced_per_tick", "count"),
    ("server.ticks_per_s", "1/s"),
    ("server.push_lag_us", "us"),
    ("server.push_after_ack_us", "us"),
    ("server.pushes_per_batch", "ratio"),
];

pub const WORKLOADS: [&str; 6] = [
    "paper_tp",
    "paper_bgp",
    "paper_reasoning",
    "served_read",
    "stream_ingest",
    "served_stream",
];

/// Untimed repetitions before the measured phase, so plan caches are
/// filled and worker pools are spawned.
pub const WARMUP_S: f64 = 1.0;
/// Each run sets up at least `SETUP_MIN` times and keeps repeating, up
/// to `SETUP_MAX` times, while the repeats so far took under
/// `SETUP_BUDGET_S` in total; `setup_s` is the median. A 0.1 s set-up is
/// thus repeated 15 times and a 1.2 s one 3 times: calibration found a
/// median of three 0.1 s set-ups moving 26 % between two rounds of the
/// same commit.
pub const SETUP_MIN: usize = 3;
pub const SETUP_MAX: usize = 15;
pub const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `name → (value, samples behind it)`.
pub type Metrics = BTreeMap<&'static str, (f64, u64)>;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// FNV over the generated queries and batches: equal digests mean
    /// equal inputs.
    pub input_digest: u64,
}

/// What one measured phase saw at the caller.
#[derive(Default)]
pub struct Measured {
    /// Per-operation wall clock, µs, failed operations included.
    pub lat_us: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.lat_us.len() as u64
    }

    /// The four end-to-end metrics. `p50` is passed in because the
    /// paper workloads combine per-query medians (see `paper.rs`).
    ///
    /// The tail is p95, not p99: ten seconds complete 160–5000
    /// operations depending on the workload, and p95 is the highest
    /// percentile that keeps about ten samples beyond it on all of them.
    /// Calibration (README) found p99 moving 24 % between two rounds of
    /// the same commit, and p90 less steady than p95 where it falls on a
    /// kernel-timer step.
    pub fn end_to_end(&self, setup_s: (f64, u64), p50: f64) -> Metrics {
        let n = self.attempted();
        let mut lat = self.lat_us.clone();
        let p95 = stats::percentile(stats::sorted(&mut lat), 0.95);
        let ok = (n - self.failed) as f64;
        Metrics::from([
            ("setup_s", setup_s),
            ("op_p50_us", (p50, n)),
            ("op_p95_us", (p95, n)),
            ("ops_per_s", (ok / self.wall_s, n)),
        ])
    }
}

/// An answer's rows in a canonical order, for comparison with an
/// oracle's (the form the repo's own agreement tests compare).
pub fn sorted_rows(rs: &se_sparql::ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Runs `setup` repeatedly (see [`SETUP_MIN`]); returns the last product
/// and `(median wall time, repeats)`. Each product is dropped (servers
/// shut down and joined) before the next repeat starts.
pub fn median_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, (f64, u64)) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(times.len()));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_MIN >= 1"),
        (stats::median(&times), times.len() as u64),
    )
}

/// `benchmark/out/`: traces, result files and the scratch directories of
/// running workloads (git-ignored).
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// A per-process scratch directory under `out/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    #[allow(clippy::new_without_default)] // creates a directory: not a default value
    pub fn new() -> Self {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
        Self(dir)
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run_workload(name: &str, args: RunArgs) -> Result<RunResult, String> {
    let mut result = match name {
        "paper_tp" => paper::run(paper::Class::SingleTp, args),
        "paper_bgp" => paper::run(paper::Class::Bgp, args),
        "paper_reasoning" => paper::run(paper::Class::Reasoning, args),
        "served_read" => served_read::run(args),
        "stream_ingest" => stream_ingest::run(args),
        "served_stream" => served_stream::run(args),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    // Every run prints the whole list for its pass; a layer the workload
    // never enters spent no time and did no work there.
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in expected {
        result.metrics.entry(name).or_insert((0.0, 0));
    }
    debug_assert_eq!(result.metrics.len(), expected.len(), "unregistered metric");
    Ok(result)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The contract's result line: one JSON object, printed last.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (value, _))| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn print_table(workload: &str, args: RunArgs, r: &RunResult) {
    println!(
        "# {workload} seed={} seconds={} trace={} input_digest={:016x} attempted={} failed={} failed_ops_share={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.input_digest,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
    );
    for (name, (value, samples)) in &r.metrics {
        println!("{name:<34} {value:>16.4} {:<6} n={samples}", unit_of(name));
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => cli.seconds = 2.0,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown flag '{other}' (see benchmark/README.md)")),
        }
    }
    Ok(cli)
}

/// One run: its table, then the contract's result line. With `out`, the
/// run is also appended to a result file for `--compare`.
fn run_and_report(workload: &str, args: RunArgs, out: Option<&PathBuf>) -> Result<bool, String> {
    let r = run_workload(workload, args)?;
    print_table(workload, args, &r);
    let line = result_line(&r);
    if let Some(path) = out {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(
            f,
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}",
            json::quote(workload),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        )
        .map_err(|e| e.to_string())?;
    }
    println!("{line}");
    if r.failed > 0 {
        eprintln!(
            "benchmark: {} of {} operations failed or disagreed with the oracle",
            r.failed, r.attempted
        );
    }
    Ok(r.failed == 0)
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli()?;
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b);
    }
    let mut args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    if let Some(w) = &cli.workload {
        return run_and_report(w, args, cli.out.as_ref());
    }
    // No `--workload`: every workload, the untraced pass for the
    // end-to-end numbers and then the traced pass for the layers.
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            args.trace = trace;
            ok &= run_and_report(w, args, cli.out.as_ref())?;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics: Metrics::from([("setup_s", (0.25, 3)), ("op_p50_us", (1.5, 3))]),
            input_digest: 0,
        };
        let v = Json::parse(&result_line(&r)).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("op_p50_us").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("us"));
    }
}
