//! Time-series views over resource samples.
//!
//! The paper samples host resources once per second (§V-B); this module
//! turns those samples into plottable series — aligned text sparklines for
//! terminals and CSV for external plotting — and computes windowed
//! aggregates (e.g. peak memory within each 5-second window).

use crate::sampler::{ResourceSample, ResourceSampler};
use faasbatch_simcore::time::SimTime;

/// Which field of a [`ResourceSample`] a series tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Allocated memory in bytes.
    MemoryBytes,
    /// Busy cores.
    BusyCores,
    /// Live containers.
    LiveContainers,
}

impl Series {
    fn value(self, s: &ResourceSample) -> f64 {
        match self {
            Series::MemoryBytes => s.memory_bytes as f64,
            Series::BusyCores => s.busy_cores,
            Series::LiveContainers => s.live_containers as f64,
        }
    }
}

/// A named time series extracted from one run's sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Label (usually the scheduler name).
    pub name: String,
    /// `(instant, value)` points in time order.
    pub points: Vec<(SimTime, f64)>,
}

impl Timeline {
    /// Extracts `series` from a sampler.
    pub fn from_sampler(name: &str, sampler: &ResourceSampler, series: Series) -> Self {
        Timeline {
            name: name.to_owned(),
            points: sampler
                .samples()
                .iter()
                .map(|s| (s.at, series.value(s)))
                .collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest value (0 when empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Renders an ASCII sparkline (one char per point, 8 levels), scaled to
    /// the timeline's own maximum.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.max();
        if max <= 0.0 {
            return LEVELS[0].to_string().repeat(self.points.len());
        }
        self.points
            .iter()
            .map(|&(_, v)| {
                let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            })
            .collect()
    }
}

/// Renders several timelines as CSV: `seconds,name1,name2,…` with one row
/// per distinct sample instant (empty cell when a series lacks that
/// instant).
pub fn to_csv(timelines: &[Timeline]) -> String {
    let mut instants: Vec<SimTime> = timelines
        .iter()
        .flat_map(|t| t.points.iter().map(|&(at, _)| at))
        .collect();
    instants.sort_unstable();
    instants.dedup();
    let mut out = String::from("seconds");
    for t in timelines {
        out.push(',');
        out.push_str(&t.name);
    }
    out.push('\n');
    for at in instants {
        out.push_str(&format!("{:.3}", at.as_secs_f64()));
        for t in timelines {
            out.push(',');
            if let Ok(i) = t.points.binary_search_by(|&(p, _)| p.cmp(&at)) {
                out.push_str(&format!("{:.3}", t.points[i].1));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> ResourceSampler {
        let mut s = ResourceSampler::new();
        for (sec, mem, cores, ctrs) in [(0, 100, 1.0, 1), (1, 300, 2.0, 3), (2, 200, 0.5, 2)] {
            s.record(ResourceSample {
                at: SimTime::from_secs(sec),
                memory_bytes: mem,
                busy_cores: cores,
                live_containers: ctrs,
            });
        }
        s
    }

    #[test]
    fn extracts_each_series() {
        let s = sampler();
        let mem = Timeline::from_sampler("x", &s, Series::MemoryBytes);
        assert_eq!(mem.len(), 3);
        assert_eq!(mem.max(), 300.0);
        let cores = Timeline::from_sampler("x", &s, Series::BusyCores);
        assert_eq!(cores.points[1].1, 2.0);
        let ctrs = Timeline::from_sampler("x", &s, Series::LiveContainers);
        assert_eq!(ctrs.points[2].1, 2.0);
    }

    #[test]
    fn sparkline_scales_to_max() {
        let t = Timeline {
            name: "t".into(),
            points: vec![
                (SimTime::ZERO, 0.0),
                (SimTime::from_secs(1), 50.0),
                (SimTime::from_secs(2), 100.0),
            ],
        };
        let s = t.sparkline();
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert!(s.starts_with('▁'));
    }

    #[test]
    fn sparkline_of_zeros_is_flat() {
        let t = Timeline {
            name: "t".into(),
            points: vec![(SimTime::ZERO, 0.0), (SimTime::from_secs(1), 0.0)],
        };
        assert_eq!(t.sparkline(), "▁▁");
    }

    #[test]
    fn csv_aligns_series() {
        let a = Timeline {
            name: "a".into(),
            points: vec![(SimTime::ZERO, 1.0), (SimTime::from_secs(1), 2.0)],
        };
        let b = Timeline {
            name: "b".into(),
            points: vec![(SimTime::from_secs(1), 5.0)],
        };
        let csv = to_csv(&[a, b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "seconds,a,b");
        assert_eq!(lines[1], "0.000,1.000,");
        assert_eq!(lines[2], "1.000,2.000,5.000");
    }
}
