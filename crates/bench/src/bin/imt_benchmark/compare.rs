//! `imt_benchmark compare RUNS_A RUNS_B`: sets the untraced results of
//! two directories of runs side by side, per workload and end-to-end
//! metric — median and quartiles of each side, and whether B's median is
//! within the metric's bound of A's.

use std::collections::BTreeMap;
use std::path::Path;

use imt_obs::json::Json;

use crate::catalog::Benchmark;
use crate::stats::{median, quartiles};

/// One directory of runs: workload → metric → values, plus how many runs
/// and how many of them failed their output checks.
#[derive(Debug, Default)]
struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    runs: BTreeMap<String, (usize, usize)>,
}

fn load(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Runs::default();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if !path.to_string_lossy().ends_with(".result.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?
            .to_string();
        let counts = runs.runs.entry(workload.clone()).or_default();
        counts.0 += 1;
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            counts.1 += 1;
        }
        let metrics = runs.values.entry(workload).or_default();
        for (name, metric) in doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

fn summary(values: &[f64]) -> [f64; 3] {
    quartiles(values).unwrap_or_else(|| {
        let m = median(values);
        [m, m, m]
    })
}

/// Distance between the quartiles as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result directories".into());
    };
    let bench = Benchmark::embedded();
    let (runs_a, runs_b) = (load(Path::new(a))?, load(Path::new(b))?);
    let mut all_ok = true;
    println!(
        "{:<13} {:<12} {:>13} {:>27} {:>13} {:>27} {:>8} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B vs A",
        "spreadA",
        "bound"
    );
    for workload in &bench.workloads {
        let name = &workload.name;
        let (Some(va), Some(vb)) = (runs_a.values.get(name), runs_b.values.get(name)) else {
            println!("{name:<13} (no runs on one side)");
            all_ok = false;
            continue;
        };
        let (na, bad_a) = runs_a.runs[name];
        let (nb, bad_b) = runs_b.runs[name];
        println!("{name:<13} runs: A {na} ({bad_a} incorrect), B {nb} ({bad_b} incorrect)");
        if bad_a + bad_b > 0 {
            all_ok = false;
        }
        for metric in &bench.end_to_end {
            let (Some(xa), Some(xb)) = (va.get(&metric.name), vb.get(&metric.name)) else {
                println!("{name:<13} {:<12} missing", metric.name);
                all_ok = false;
                continue;
            };
            let (qa, qb) = (summary(xa), summary(xb));
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = if metric.regressed(qa[1], qb[1]) {
                all_ok = false;
                "WORSE than the bound"
            } else if spread(qa).max(spread(qb)) > bound {
                "within bound, spread wider than bound"
            } else {
                "within bound"
            };
            println!(
                "{name:<13} {:<12} {:>13.6} {:>27} {:>13.6} {:>27} {:>+7.2}% {:>6.2}% {:>6.1}%  {verdict}",
                metric.name,
                qa[1],
                format!("[{:.4}, {:.4}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.4}, {:.4}]", qb[0], qb[2]),
                (qb[1] / qa[1] - 1.0) * 100.0,
                spread(qa) * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        assert_eq!(spread([9.0, 10.0, 11.0]), 0.2);
        assert_eq!(spread([0.0, 0.0, 0.0]), 0.0);
        assert_eq!(summary(&[4.0]), [4.0, 4.0, 4.0]);
    }

    #[test]
    fn compare_reads_result_files_and_judges_each_metric() {
        let root =
            std::env::temp_dir().join(format!("imt-benchmark-compare-{}", std::process::id()));
        let bench = Benchmark::embedded();
        for (side, scale) in [("a", 1.0), ("b", 1.02)] {
            let dir = root.join(side);
            std::fs::create_dir_all(&dir).expect("creating a runs directory");
            for seed in 0..3 {
                for workload in &bench.workloads {
                    let metrics = bench
                        .end_to_end
                        .iter()
                        .map(|m| {
                            let value = scale * (10.0 + f64::from(seed) * 0.01);
                            (m.name.clone(), Json::obj(vec![("value", Json::F64(value))]))
                        })
                        .collect();
                    let doc = Json::obj(vec![
                        ("workload", Json::str(workload.name.clone())),
                        ("trace", Json::Bool(false)),
                        ("correct", Json::Bool(true)),
                        ("metrics", Json::Obj(metrics)),
                    ]);
                    let file = dir.join(format!("{}.seed{seed}.t0.result.json", workload.name));
                    std::fs::write(file, doc.render()).expect("writing a result");
                }
            }
        }
        let arg = |side: &str| root.join(side).to_string_lossy().into_owned();
        // 2 % apart: within every bound, in both directions.
        assert_eq!(compare(&[arg("a"), arg("b")]), Ok(true));
        assert_eq!(compare(&[arg("b"), arg("a")]), Ok(true));
        assert!(compare(&[arg("a")]).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
