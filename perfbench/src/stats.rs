//! Percentiles, the metric catalogue, and the result rendering.

use std::collections::BTreeMap;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make the figure one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit)`. `BENCHMARK.json` carries their direction and bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("miss_p50_us", "us"),
    ("miss_p90_us", "us"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.gen_us_per_robot", "us"),
    ("engine.rounds", "count"),
    ("engine.robot_rounds", "count"),
    ("engine.merges", "count"),
    ("engine.ns_per_robot_round.n256", "ns"),
    ("engine.ns_per_robot_round.n4096", "ns"),
    ("engine.ns_per_robot_round.ssync", "ns"),
    ("engine.own_ns_per_robot_round", "ns"),
    ("phase.compute_share", "ratio"),
    ("phase.guard_share", "ratio"),
    ("phase.apply_share", "ratio"),
    ("phase.merge_share", "ratio"),
    ("paper.compute_ns_per_robot_round", "ns"),
    ("paper.post_move_ns_per_round", "ns"),
    ("paper.post_merge_ns_per_round", "ns"),
    ("guard.cancels", "count"),
    ("guard.cancel_ratio", "ratio"),
    ("kernel.ns_per_robot_round.compass-se", "ns"),
    ("kernel.ns_per_robot_round.naive-local", "ns"),
    ("kernel.ns_per_robot_round.global-vision", "ns"),
    ("kernel.ns_per_robot_round.ssync", "ns"),
    ("kernel.compute_share", "ratio"),
    ("kernel.apply_share", "ratio"),
    ("kernel.merge_share", "ratio"),
    ("euclid.ns_per_robot_round", "ns"),
    ("client.connect_us_p50", "us"),
    ("client.ttfb_us_p50.hit", "us"),
    ("client.ttfb_us_p50.miss", "us"),
    ("client.read_us_p50", "us"),
    ("client.hit_ka_us_p50", "us"),
    ("client.hit_ka_us_p99", "us"),
    ("client.hit_nc_us_p50", "us"),
    ("client.hit_nc_us_p99", "us"),
    ("client.requests_per_s", "1/s"),
    ("server.run_hit_us_p50", "us"),
    ("server.run_hit_us_p99", "us"),
    ("server.run_miss_us_p50", "us"),
    ("server.queue_wait_us_p50", "us"),
    ("server.queue_wait_us_p90", "us"),
    ("server.run_duration_us_p50", "us"),
    ("server.run_duration_us_p90", "us"),
    ("server.jobs_run", "count"),
    ("server.hits", "count"),
    ("server.rejected", "count"),
    ("server.persist_errors", "count"),
    ("cache.hit_ratio", "ratio"),
    ("transport.hit_ka_us_p50", "us"),
    ("transport.hit_nc_us_p50", "us"),
    ("hit_path.decode_us", "us"),
    ("hit_path.hash_us", "us"),
    ("hit_path.encode_us", "us"),
    ("route.result_us_p50", "us"),
    ("route.metrics_us_p50", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `{"name":{"value":v,"unit":u},...}` over `names`, in order; a
    /// missing per-layer value reads 0 (the layer did no work).
    pub fn render(&self, names: &[(&'static str, &'static str)]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Every metric name the benchmark can emit, with its unit.
pub fn catalogue() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.into_iter().chain(PER_LAYER)
}

/// A JSON number with all its digits (`{}` on f64 is the shortest string
/// that round-trips); non-finite values cannot occur in JSON and read 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::campaign::json::Json;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // Exactly ten beyond is enough; nine is not.
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_declared() {
        let doc = benchmark_json();
        let e2e = listed(&doc, "end_to_end");
        let layers = listed(&doc, "per_layer");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(e2e, own(&END_TO_END));
        assert_eq!(layers, own(&PER_LAYER));
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in catalogue() {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.bytes().next().unwrap().is_ascii_alphanumeric()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name {name}"
            );
            assert!(seen.insert(name), "duplicate metric {name}");
        }
    }

    #[test]
    fn rendering_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.234_567_890_123);
        let text = m.render(&END_TO_END[..1]);
        assert_eq!(
            text,
            "{\"wall_s\":{\"value\":1.234567890123,\"unit\":\"s\"}}"
        );
        assert!(Json::parse(&text).is_ok());
    }
}
