//! Persistence for fitted models.
//!
//! Threshold resolution and the sampling-based learning pass are the
//! expensive part of `HosMiner::fit`; a demo session (or production
//! deployment) wants to pay them once. [`ModelFile`] captures the
//! fitted state — `k`, metric, threshold and learned priors — in a
//! small line-oriented text format that is trivially diffable and
//! versioned.
//!
//! The *dataset* is deliberately not part of the model: it travels as
//! CSV next to it, and [`ModelFile::into_miner`] re-indexes on load
//! (index build is cheap relative to learning and keeps the file
//! format independent of engine internals).

use crate::error::HosError;
use crate::learning::LearnedModel;
use crate::miner::{HosMiner, HosMinerConfig};
use crate::od::ThresholdPolicy;
use crate::priors::Priors;
use crate::search::SearchStats;
use crate::Result;
use hos_data::{Dataset, Metric};
use hos_index::Engine;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: &str = "hos-miner-model";
const VERSION: u32 = 1;

/// A serialisable snapshot of a fitted model.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelFile {
    /// Neighbour count.
    pub k: usize,
    /// Metric used at fit time.
    pub metric: Metric,
    /// k-NN engine to rebuild on load.
    pub engine: Engine,
    /// The resolved global threshold.
    pub threshold: f64,
    /// Learned (or uniform) priors.
    pub priors: Priors,
    /// How many samples the learning pass used.
    pub samples: usize,
}

impl ModelFile {
    /// Snapshots a fitted miner.
    pub fn from_miner(miner: &HosMiner) -> Self {
        ModelFile {
            k: miner.config().k,
            metric: miner.config().metric,
            engine: miner.config().engine,
            threshold: miner.threshold(),
            priors: miner.model().priors.clone(),
            samples: miner.model().samples,
        }
    }

    /// Serialises to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC} v{VERSION}");
        let _ = writeln!(out, "k {}", self.k);
        let _ = writeln!(out, "metric {}", self.metric.name());
        let _ = writeln!(out, "engine {}", self.engine);
        let _ = writeln!(out, "threshold {:?}", self.threshold);
        let _ = writeln!(out, "samples {}", self.samples);
        let join = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(out, "p_up {}", join(self.priors.up_all()));
        let _ = writeln!(out, "p_down {}", join(self.priors.down_all()));
        out
    }

    /// Parses the text format.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != format!("{MAGIC} v{VERSION}") {
            return Err(HosError::Config(format!(
                "unrecognised model header {header:?} (expected \"{MAGIC} v{VERSION}\")"
            )));
        }
        let mut k = None;
        let mut metric = None;
        let mut engine = None;
        let mut threshold = None;
        let mut samples = None;
        let mut p_up: Option<Vec<f64>> = None;
        let mut p_down: Option<Vec<f64>> = None;
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ').ok_or_else(|| {
                HosError::Config(format!("malformed model line {}: {line:?}", lineno + 2))
            })?;
            let parse_vec = |v: &str| -> Result<Vec<f64>> {
                v.split(',')
                    .map(|x| {
                        x.trim()
                            .parse::<f64>()
                            .map_err(|_| HosError::Config(format!("bad float {x:?} in model")))
                    })
                    .collect()
            };
            match key {
                "k" => {
                    k = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| HosError::Config(format!("bad k {value:?}")))?,
                    )
                }
                "metric" => {
                    metric = Some(match value {
                        "L1" => Metric::L1,
                        "L2" => Metric::L2,
                        "Linf" => Metric::LInf,
                        other => {
                            if let Some(p) = other.strip_prefix('L') {
                                Metric::Lp(p.parse().map_err(|_| {
                                    HosError::Config(format!("bad metric {other:?}"))
                                })?)
                            } else {
                                return Err(HosError::Config(format!("bad metric {other:?}")));
                            }
                        }
                    })
                }
                "engine" => engine = Some(value.parse::<Engine>().map_err(HosError::Config)?),
                "threshold" => {
                    threshold = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| HosError::Config(format!("bad threshold {value:?}")))?,
                    )
                }
                "samples" => {
                    samples = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| HosError::Config(format!("bad samples {value:?}")))?,
                    )
                }
                "p_up" => p_up = Some(parse_vec(value)?),
                "p_down" => p_down = Some(parse_vec(value)?),
                other => return Err(HosError::Config(format!("unknown model key {other:?}"))),
            }
        }
        let priors = Priors::from_values(
            p_up.ok_or_else(|| HosError::Config("model missing p_up".into()))?,
            p_down.ok_or_else(|| HosError::Config("model missing p_down".into()))?,
        )?;
        Ok(ModelFile {
            k: k.ok_or_else(|| HosError::Config("model missing k".into()))?,
            metric: metric.ok_or_else(|| HosError::Config("model missing metric".into()))?,
            engine: engine.unwrap_or_default(),
            threshold: threshold
                .ok_or_else(|| HosError::Config("model missing threshold".into()))?,
            priors,
            samples: samples.unwrap_or(0),
        })
    }

    /// Writes the model to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        std::fs::write(path, self.to_text()).map_err(|e| HosError::Data(e.into()))
    }

    /// Reads a model from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| HosError::Data(e.into()))?;
        Self::from_text(&text)
    }

    /// Rebuilds a ready-to-query miner over a dataset, **skipping**
    /// threshold resolution and learning (they come from the file).
    ///
    /// The dataset must have the dimensionality the model was fitted
    /// on; it need not be byte-identical, but priors and threshold are
    /// only meaningful for data from the same distribution.
    pub fn into_miner(self, dataset: Dataset) -> Result<HosMiner> {
        self.into_miner_with(dataset, 1, 1)
    }

    /// [`ModelFile::into_miner`] with machine-specific execution
    /// parameters: `shards` row ranges for intra-query parallelism
    /// (`HosMinerConfig::shards`) and `threads` workers. Parallelism is
    /// not part of the persisted model — the same file serves a laptop
    /// and a 64-core box — so it is supplied at load time. Results are
    /// bit-identical regardless of either value.
    pub fn into_miner_with(
        self,
        dataset: Dataset,
        shards: usize,
        threads: usize,
    ) -> Result<HosMiner> {
        if dataset.dim() != self.priors.dim() {
            return Err(HosError::Config(format!(
                "model was fitted on {} dimensions, dataset has {}",
                self.priors.dim(),
                dataset.dim()
            )));
        }
        let config = HosMinerConfig {
            k: self.k,
            threshold: ThresholdPolicy::Fixed(self.threshold),
            metric: self.metric,
            engine: self.engine,
            sample_size: 0,
            shards,
            threads: threads.max(1),
            ..HosMinerConfig::default()
        };
        let model = LearnedModel {
            priors: self.priors,
            samples: self.samples,
            threshold: self.threshold,
            total_stats: SearchStats::default(),
        };
        HosMiner::from_parts(dataset, config, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::od::ThresholdPolicy;
    use hos_data::synth::uniform;

    fn fitted() -> (HosMiner, Dataset) {
        let mut ds = uniform(200, 4, 0.0, 1.0, 9).unwrap();
        ds.push_row(&[8.0, 0.5, 0.5, 0.5]).unwrap();
        let miner = HosMiner::fit(
            ds.clone(),
            HosMinerConfig {
                k: 4,
                threshold: ThresholdPolicy::FullSpaceQuantile {
                    q: 0.95,
                    sample: 100,
                },
                sample_size: 10,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        (miner, ds)
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let (miner, _) = fitted();
        let m = ModelFile::from_miner(&miner);
        let text = m.to_text();
        let back = ModelFile::from_text(&text).unwrap();
        assert_eq!(m, back);
        // f64 round-trip via {:?} is exact.
        assert_eq!(m.threshold, back.threshold);
        assert_eq!(m.priors, back.priors);
    }

    #[test]
    fn loaded_model_answers_identically() {
        let (miner, ds) = fitted();
        let snapshot = ModelFile::from_miner(&miner);
        let restored = snapshot.into_miner(ds).unwrap();
        for id in [0, 50, 200] {
            let a = miner.query_id(id).unwrap();
            let b = restored.query_id(id).unwrap();
            assert_eq!(a.minimal, b.minimal, "point {id}");
            assert_eq!(a.stats.od_evals, b.stats.od_evals, "point {id}");
        }
        assert_eq!(restored.threshold(), miner.threshold());
    }

    #[test]
    fn file_roundtrip() {
        let (miner, _) = fitted();
        let path = std::env::temp_dir().join("hos_model_io_test.model");
        let m = ModelFile::from_miner(&miner);
        m.save(&path).unwrap();
        let back = ModelFile::load(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_errors() {
        assert!(ModelFile::from_text("").is_err());
        assert!(ModelFile::from_text("wrong header").is_err());
        let (miner, _) = fitted();
        let good = ModelFile::from_miner(&miner).to_text();
        // Drop a required line.
        let missing: String = good
            .lines()
            .filter(|l| !l.starts_with("p_up"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(ModelFile::from_text(&missing).is_err());
        // Corrupt a float.
        let corrupt = good.replace("threshold ", "threshold oops");
        assert!(ModelFile::from_text(&corrupt).is_err());
        // Unknown key.
        let extra = format!("{good}mystery 42\n");
        assert!(ModelFile::from_text(&extra).is_err());
    }

    #[test]
    fn removed_engine_name_is_a_config_error() {
        let (miner, _) = fitted();
        let good = ModelFile::from_miner(&miner).to_text();
        assert!(good.contains("engine linear\n"));
        for name in ["vafile", "hnsw"] {
            let removed = good.replace("engine linear\n", &format!("engine {name}\n"));
            match ModelFile::from_text(&removed) {
                Err(HosError::Config(msg)) => {
                    assert!(msg.contains("(expected linear|xtree)"), "{name}: {msg}")
                }
                other => panic!("{name}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (miner, _) = fitted();
        let m = ModelFile::from_miner(&miner);
        let other = uniform(50, 3, 0.0, 1.0, 1).unwrap();
        assert!(m.into_miner(other).is_err());
    }

    /// `from_parts` holds the invariants `fit` does: a model file that
    /// parses must still be refused at load time when its metric would
    /// prune unsoundly or its dataset is too wide for the lattice.
    #[test]
    fn loaded_models_keep_the_fit_invariants() {
        let text = |metric: &str, d: usize| {
            ModelFile {
                k: 2,
                metric: Metric::L2,
                engine: Engine::Linear,
                threshold: 1.0,
                priors: Priors::uniform(d),
                samples: 0,
            }
            .to_text()
            .replace("metric L2", &format!("metric {metric}"))
        };
        let cases = [
            ("L0.5", 3, "not projection monotone"),
            ("LNaN", 3, "not projection monotone"),
            ("L2", 27, "exceeds the dynamic-search limit 26"),
        ];
        for (metric, d, want) in cases {
            let model = ModelFile::from_text(&text(metric, d)).unwrap();
            match model.into_miner(uniform(20, d, 0.0, 1.0, 1).unwrap()) {
                Err(HosError::Config(msg)) => assert!(msg.contains(want), "{metric} d={d}: {msg}"),
                Err(e) => panic!("{metric} d={d}: expected a config error, got {e}"),
                Ok(_) => panic!("{metric} d={d}: loaded"),
            }
        }
    }

    #[test]
    fn metric_names_roundtrip() {
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let m = ModelFile {
                k: 2,
                metric,
                engine: Engine::Linear,
                threshold: 1.0,
                priors: Priors::uniform(3),
                samples: 0,
            };
            let back = ModelFile::from_text(&m.to_text()).unwrap();
            assert_eq!(back.metric, metric);
        }
    }
}
