//! The program's own counters, read back from a `repro --manifest` file
//! or the daemon's `GET /metrics`, and the invariants that must hold
//! between them.

use std::collections::BTreeMap;

use subvt_exp::tracefmt::Json;

/// Counters plus histogram `(count, sum)` pairs, by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Histogram sample counts and sums.
    pub hists: BTreeMap<String, (u64, f64)>,
}

impl Counters {
    /// Reads a `repro --manifest` object.
    pub fn from_manifest(manifest: &Json) -> Counters {
        let mut out = Counters::default();
        if let Some(Json::Obj(members)) = manifest.get("counters") {
            for (name, v) in members {
                if let Some(v) = v.as_u64() {
                    out.counters.insert(name.clone(), v);
                }
            }
        }
        for h in manifest
            .get("histograms")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            if let (Some(name), Some(count), Some(sum)) = (
                h.get("name").and_then(Json::as_str),
                h.get("count").and_then(Json::as_u64),
                h.get("sum").and_then(Json::as_f64),
            ) {
                out.hists.insert(name.to_owned(), (count, sum));
            }
        }
        out
    }

    /// Reads the daemon's Prometheus exposition (`subvt_counter`,
    /// `subvt_hist_count` and `subvt_hist_sum` samples).
    pub fn from_prometheus(text: &str) -> Counters {
        let mut out = Counters::default();
        for line in text.lines() {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Some((family, rest)) = series.split_once("{name=\"") else {
                continue;
            };
            let Some(name) = rest.strip_suffix("\"}") else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            match family {
                "subvt_counter" => {
                    out.counters.insert(name.to_owned(), v as u64);
                }
                "subvt_hist_count" => out.hists.entry(name.to_owned()).or_default().0 = v as u64,
                "subvt_hist_sum" => out.hists.entry(name.to_owned()).or_default().1 = v,
                _ => {}
            }
        }
        out
    }

    /// A counter, 0 when never bumped.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's mean, 0 when it has no samples.
    pub fn mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(count, sum)) if count > 0 => sum / count as f64,
            _ => 0.0,
        }
    }

    /// Cache hits over lookups across every namespace, 0 when there
    /// were none.
    pub fn cache_hit_ratio(&self) -> f64 {
        let (hits, misses) = (self.get("cache.hit"), self.get("cache.miss"));
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Every violated invariant between counters, as a message:
    /// LU resolves ≥ factorizations, DC solves ≥ warm starts, Poisson
    /// solves ≥ Gummel bias points, and per cache namespace
    /// hits + misses = lookup-latency samples.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (big, small) in [
            ("spice.lu.resolve", "spice.lu.factor"),
            ("spice.dc.solves", "spice.newton.warm_start"),
            ("tcad.poisson.solves", "tcad.gummel.bias_points"),
        ] {
            if self.get(big) < self.get(small) {
                out.push(format!(
                    "{big} ({}) < {small} ({})",
                    self.get(big),
                    self.get(small)
                ));
            }
        }
        for (name, &hits) in &self.counters {
            let Some(ns) = name
                .strip_prefix("cache.")
                .and_then(|n| n.strip_suffix(".hit"))
            else {
                continue;
            };
            let misses = self.get(&format!("cache.{ns}.miss"));
            let lookups = self
                .hists
                .get(&format!("cache.{ns}.lookup_us"))
                .map_or(0, |h| h.0);
            if hits + misses != lookups {
                out.push(format!(
                    "cache.{ns}: hit ({hits}) + miss ({misses}) != lookup_us samples ({lookups})"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_and_invariants() {
        let text = "# TYPE subvt_counter counter\n\
                    subvt_counter{name=\"spice.lu.factor\"} 10\n\
                    subvt_counter{name=\"spice.lu.resolve\"} 4\n\
                    subvt_counter{name=\"cache.design.hit\"} 3\n\
                    subvt_counter{name=\"cache.design.miss\"} 1\n\
                    subvt_counter{name=\"cache.hit\"} 3\n\
                    subvt_counter{name=\"cache.miss\"} 1\n\
                    subvt_hist_count{name=\"cache.design.lookup_us\"} 4\n\
                    subvt_hist_sum{name=\"cache.design.lookup_us\"} 8\n";
        let c = Counters::from_prometheus(text);
        assert_eq!(c.get("spice.lu.factor"), 10);
        assert_eq!(c.mean("cache.design.lookup_us"), 2.0);
        assert_eq!(c.cache_hit_ratio(), 0.75);
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("spice.lu.resolve (4) < spice.lu.factor (10)"));
    }
}
