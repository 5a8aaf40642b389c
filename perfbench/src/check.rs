//! Output check: a hash over every run record of every campaign, and
//! the three exact end-to-end metrics derived from the same records.

use evovm::{RunRecord, Scenario};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The records of one campaign, folded as they arrive.
#[derive(Debug, Clone, Default)]
pub struct CampaignLog {
    pub hash: Fnv,
    pub runs: usize,
    pub evolve_speedups: Vec<f64>,
    pub rep_speedups: Vec<f64>,
    pub accuracies: Vec<f64>,
}

impl CampaignLog {
    pub fn record(&mut self, scenario: Scenario, r: &RunRecord) {
        for word in [
            r.run_index as u64,
            r.input_index as u64,
            r.cycles,
            r.default_cycles,
            u64::from(r.predicted),
            r.accuracy.to_bits(),
            r.confidence.to_bits(),
        ] {
            self.hash.word(word);
        }
        self.runs += 1;
        match scenario {
            Scenario::Evolve => {
                self.evolve_speedups.push(r.speedup);
                self.accuracies.push(r.accuracy);
            }
            Scenario::Rep => self.rep_speedups.push(r.speedup),
            Scenario::Default => {}
        }
    }
}

/// The exact end-to-end metrics: pure functions of the run records.
#[derive(Debug, Clone, Copy)]
pub struct Exact {
    pub evolve_speedup_geomean: f64,
    pub rep_speedup_geomean: f64,
    pub accuracy_mean: f64,
}

impl PartialEq for Exact {
    fn eq(&self, other: &Exact) -> bool {
        self.bits() == other.bits()
    }
}

impl Exact {
    fn bits(&self) -> [u64; 3] {
        [
            self.evolve_speedup_geomean.to_bits(),
            self.rep_speedup_geomean.to_bits(),
            self.accuracy_mean.to_bits(),
        ]
    }
}

/// What one pass of a workload produced, for comparison with another.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub hash: u64,
    pub exact: Exact,
}

/// Fold the logs of one pass, given in campaign order. A workload with
/// no runs of a scenario reports the empty geometric mean, 1.
pub fn digest<'a>(logs: impl IntoIterator<Item = &'a CampaignLog>) -> Digest {
    let mut hash = Fnv::default();
    let (mut evolve, mut rep, mut accuracy) = (Vec::new(), Vec::new(), Vec::new());
    for (index, log) in logs.into_iter().enumerate() {
        hash.word(index as u64);
        hash.word(log.hash.finish());
        evolve.extend_from_slice(&log.evolve_speedups);
        rep.extend_from_slice(&log.rep_speedups);
        accuracy.extend_from_slice(&log.accuracies);
    }
    let geomean = |v: &[f64]| {
        if v.is_empty() {
            1.0
        } else {
            evovm::metrics::geomean(v)
        }
    };
    Digest {
        hash: hash.finish(),
        exact: Exact {
            evolve_speedup_geomean: geomean(&evolve),
            rep_speedup_geomean: geomean(&rep),
            accuracy_mean: evovm::metrics::mean(&accuracy),
        },
    }
}
