//! `--compare a.jsonl b.jsonl`: applies the bounds of `BENCHMARK.json`
//! to two result files (written with `--out`, one line per run) and
//! prints, per workload × end-to-end metric, whether `b` is `ok`,
//! `regressed`, or `unresolved` against `a`.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// `workload → metric → one value per untraced run`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or(format!("{}:{}: no '{k}'", path.display(), n + 1))
        };
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let metrics = field("result")?
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{}:{}: no metrics", path.display(), n + 1))?;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread wider than the bound: the runs cannot tell.
    Unresolved,
}

/// `a` is the reference. A metric regresses when `b`'s median is worse
/// than `a`'s by more than `bound` (a share of `a`'s median); it is
/// unresolved when either side's interquartile spread exceeds the bound
/// (`setup_s` excepted, as in the builder contract).
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_exempt: bool,
) -> Verdict {
    if !spread_exempt && (stats::quartile_spread(a) > bound || stats::quartile_spread(b) > bound) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma;
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| Json::parse(&t))?;
    let (ra, rb) = (load(a)?, load(b)?);
    let mut all_ok = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "a.median", "b.median", "a.iqr", "b.iqr", "bound"
    );
    for (workload, metrics_a) in &ra {
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.1);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (
                metrics_a.get(name),
                rb.get(workload).and_then(|w| w.get(name)),
            ) else {
                continue;
            };
            let verdict = judge(va, vb, lower, bound, name == "setup_s");
            all_ok &= verdict != Verdict::Regressed;
            println!(
                "{workload:<16} {name:<12} {:>14.3} {:>14.3} {:>8.4} {:>8.4} {bound:>8.2}  {}",
                stats::median(va),
                stats::median(vb),
                stats::quartile_spread(va),
                stats::quartile_spread(vb),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if !all_ok {
        eprintln!("benchmark: b is worse than a by more than the bound on at least one metric");
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [115.0, 116.0, 114.0, 115.0, 115.5];
        assert_eq!(judge(&a, &slower, true, 0.1, false), Verdict::Regressed);
        assert_eq!(judge(&a, &slower, false, 0.1, false), Verdict::Ok);
        assert_eq!(judge(&a, &[105.0; 5], true, 0.1, false), Verdict::Ok);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&a, &noisy, true, 0.1, false), Verdict::Unresolved);
        assert_eq!(judge(&a, &noisy, true, 0.1, true), Verdict::Ok);
    }
}
