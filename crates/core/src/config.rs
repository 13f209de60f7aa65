//! Experiment configuration.
//!
//! [`ExperimentConfig`] is the single knob-set for a simulation run,
//! with defaults equal to the paper's §7 defaults:
//! `N = 200, ucastl = 0.25, pf = 0.001, K = 4, M = 2, C = 1.0`.
//! It serializes (via [`crate::json`]) so experiment definitions can be
//! recorded next to their results.

use crate::hiergossip::HierGossipConfig;
use crate::json::{field, opt_field, FromJson, Json, ToJson};

/// How member votes are drawn (serializable mirror of
/// [`gridagg_group::VoteDistribution`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VoteSpec {
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Gaussian.
    Gaussian {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Vote = member index.
    Index,
}

impl From<VoteSpec> for gridagg_group::VoteDistribution {
    fn from(v: VoteSpec) -> Self {
        match v {
            VoteSpec::Uniform { lo, hi } => gridagg_group::VoteDistribution::Uniform { lo, hi },
            VoteSpec::Gaussian { mean, std_dev } => {
                gridagg_group::VoteDistribution::Gaussian { mean, std_dev }
            }
            VoteSpec::Index => gridagg_group::VoteDistribution::Index,
        }
    }
}

impl ToJson for VoteSpec {
    fn to_json(&self) -> Json {
        // externally tagged, matching the serde-derive layout earlier
        // revisions wrote into results/*.config.json
        match *self {
            VoteSpec::Uniform { lo, hi } => Json::Obj(vec![(
                "Uniform".into(),
                Json::Obj(vec![
                    ("lo".into(), lo.to_json()),
                    ("hi".into(), hi.to_json()),
                ]),
            )]),
            VoteSpec::Gaussian { mean, std_dev } => Json::Obj(vec![(
                "Gaussian".into(),
                Json::Obj(vec![
                    ("mean".into(), mean.to_json()),
                    ("std_dev".into(), std_dev.to_json()),
                ]),
            )]),
            VoteSpec::Index => Json::Str("Index".into()),
        }
    }
}

impl FromJson for VoteSpec {
    fn from_json(value: &Json) -> Result<Self, String> {
        if value.as_str() == Some("Index") {
            return Ok(VoteSpec::Index);
        }
        if let Some(body) = value.get("Uniform") {
            return Ok(VoteSpec::Uniform {
                lo: field(body, "lo")?,
                hi: field(body, "hi")?,
            });
        }
        if let Some(body) = value.get("Gaussian") {
            return Ok(VoteSpec::Gaussian {
                mean: field(body, "mean")?,
                std_dev: field(body, "std_dev")?,
            });
        }
        Err("unknown VoteSpec variant".to_string())
    }
}

/// Full parameter set for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Group size `N`.
    pub n: usize,
    /// Grid box constant `K`.
    pub k: u8,
    /// Gossip fanout `M`.
    pub fanout: u32,
    /// Phase length factor `C` (rounds per phase = `⌈C·log_M N⌉`).
    pub round_factor: f64,
    /// Explicit rounds-per-phase override (Figure 8).
    pub rounds_per_phase: Option<u32>,
    /// Independent unicast message loss probability `ucastl`.
    pub ucastl: f64,
    /// Soft-partition cross-half loss probability `partl` (Figure 9);
    /// `None` disables the partition. The boundary is at `n / 2`.
    pub partl: Option<f64>,
    /// Per-round member crash probability `pf` (no recovery).
    pub pf: f64,
    /// Step 2(b) early bump-up.
    pub early_bump: bool,
    /// Use the topologically-aware placement over a uniform 2-D field
    /// instead of the fair hash.
    pub topo_aware: bool,
    /// Place members on a 2-D field (enabling per-distance link-load
    /// accounting) even when the placement itself is the fair hash.
    /// Implied by `topo_aware`.
    pub positioned: bool,
    /// Batch gossip exchange (see [`crate::hiergossip::Exchange`]);
    /// `false` reverts to paper-literal one-value-per-message push.
    pub batch_exchange: bool,
    /// Partial membership views: each member knows only itself plus
    /// this many uniformly sampled members (the paper's §2 relaxation:
    /// "this can be relaxed in our final hierarchical gossiping
    /// solution"). `None` = complete views.
    pub partial_view: Option<usize>,
    /// Group-size estimate used to derive the hierarchy, when it
    /// differs from the true `n` ("an approximate estimate of N at each
    /// member usually suffices", §6.1). `None` = exact.
    pub n_estimate: Option<usize>,
    /// Multicast-initiation spread: members start uniformly at random
    /// within this many rounds (gossip wakes stragglers earlier).
    /// `None` = simultaneous start (§2 default).
    pub start_spread: Option<u32>,
    /// Maximum message delay in rounds: deliveries take uniformly
    /// 1..=max_delay rounds, adding network asynchrony beyond the §7
    /// next-round default (`None` / `Some(1)`).
    pub max_delay: Option<u64>,
    /// Record per-phase completion traces inside each member
    /// ([`crate::hiergossip::HierGossip::trace`]). Pure instrumentation
    /// — never affects protocol behavior or proxy counters — but costs
    /// O(phases) heap per member, so the scale bench turns it off above
    /// the frozen grid (N = 16384).
    pub phase_trace: bool,
    /// Ignored; kept only so `benchmark/` compiles; deleted with
    /// ROADMAP item 1. Never serialized.
    pub engine_jobs: usize,
    /// Vote distribution.
    pub vote: VoteSpec,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            n: 200,
            k: 4,
            fanout: 2,
            round_factor: 1.0,
            rounds_per_phase: None,
            ucastl: 0.25,
            partl: None,
            pf: 0.001,
            early_bump: true,
            topo_aware: false,
            positioned: false,
            batch_exchange: true,
            partial_view: None,
            n_estimate: None,
            start_spread: None,
            max_delay: None,
            phase_trace: true,
            engine_jobs: 1,
            vote: VoteSpec::Uniform { lo: 0.0, hi: 100.0 },
        }
    }
}

impl ToJson for ExperimentConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), self.n.to_json()),
            ("k".into(), self.k.to_json()),
            ("fanout".into(), self.fanout.to_json()),
            ("round_factor".into(), self.round_factor.to_json()),
            ("rounds_per_phase".into(), self.rounds_per_phase.to_json()),
            ("ucastl".into(), self.ucastl.to_json()),
            ("partl".into(), self.partl.to_json()),
            ("pf".into(), self.pf.to_json()),
            ("early_bump".into(), self.early_bump.to_json()),
            ("topo_aware".into(), self.topo_aware.to_json()),
            ("positioned".into(), self.positioned.to_json()),
            ("batch_exchange".into(), self.batch_exchange.to_json()),
            ("partial_view".into(), self.partial_view.to_json()),
            ("n_estimate".into(), self.n_estimate.to_json()),
            ("start_spread".into(), self.start_spread.to_json()),
            ("max_delay".into(), self.max_delay.to_json()),
            ("phase_trace".into(), self.phase_trace.to_json()),
            ("vote".into(), self.vote.to_json()),
        ])
    }
}

impl FromJson for ExperimentConfig {
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(ExperimentConfig {
            n: field(value, "n")?,
            k: field(value, "k")?,
            fanout: field(value, "fanout")?,
            round_factor: field(value, "round_factor")?,
            rounds_per_phase: opt_field(value, "rounds_per_phase")?,
            ucastl: field(value, "ucastl")?,
            partl: opt_field(value, "partl")?,
            pf: field(value, "pf")?,
            early_bump: field(value, "early_bump")?,
            topo_aware: field(value, "topo_aware")?,
            positioned: field(value, "positioned")?,
            batch_exchange: field(value, "batch_exchange")?,
            partial_view: opt_field(value, "partial_view")?,
            n_estimate: opt_field(value, "n_estimate")?,
            start_spread: opt_field(value, "start_spread")?,
            max_delay: opt_field(value, "max_delay")?,
            // absent in configs recorded before the scale ladder: default on
            phase_trace: opt_field(value, "phase_trace")?.unwrap_or(true),
            engine_jobs: 1,
            vote: field(value, "vote")?,
        })
    }
}

impl ExperimentConfig {
    /// The paper's default configuration (§7).
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Set the group size.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Set the unicast loss probability.
    pub fn with_ucastl(mut self, ucastl: f64) -> Self {
        self.ucastl = ucastl;
        self
    }

    /// Set the per-round crash probability.
    pub fn with_pf(mut self, pf: f64) -> Self {
        self.pf = pf;
        self
    }

    /// Ignored; kept only so `benchmark/` compiles; deleted with
    /// ROADMAP item 1.
    pub fn with_engine_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Set the soft-partition loss probability.
    pub fn with_partl(mut self, partl: f64) -> Self {
        self.partl = Some(partl);
        self
    }

    /// Set an explicit rounds-per-phase.
    pub fn with_rounds_per_phase(mut self, rounds: u32) -> Self {
        self.rounds_per_phase = Some(rounds);
        self
    }

    /// The derived hierarchical-gossip protocol parameters.
    pub fn hier_config(&self) -> HierGossipConfig {
        HierGossipConfig {
            fanout: self.fanout,
            round_factor: self.round_factor,
            rounds_per_phase: self.rounds_per_phase,
            early_bump: self.early_bump,
            phase_trace: self.phase_trace,
            exchange: if self.batch_exchange {
                crate::hiergossip::Exchange::Batch
            } else {
                crate::hiergossip::Exchange::One
            },
        }
    }

    /// A generous engine round cap: the synchronous schedule length plus
    /// slack (protocols normally finish well before).
    pub fn max_rounds(&self) -> u64 {
        let h = gridagg_hierarchy::Hierarchy::for_group(self.k, self.n_estimate.unwrap_or(self.n))
            .map_or(8, |h| h.phases() as u64);
        let rpp = self.hier_config().rounds_per_phase(self.n) as u64;
        2 * h * rpp + 32
    }

    /// Validate parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err(format!("group size {} too small", self.n));
        }
        if self.k < 2 {
            return Err(format!("K={} must be >= 2", self.k));
        }
        if self.fanout == 0 {
            return Err("fanout M must be >= 1".to_string());
        }
        for (name, p) in [("ucastl", self.ucastl), ("pf", self.pf)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name}={p} outside [0,1]"));
            }
        }
        if let Some(p) = self.partl {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("partl={p} outside [0,1]"));
            }
        }
        if !(self.round_factor.is_finite() && self.round_factor > 0.0) {
            return Err(format!("C={} must be finite and > 0", self.round_factor));
        }
        if let Some(est) = self.n_estimate {
            if est < 2 {
                return Err(format!("n_estimate {est} too small"));
            }
        }
        if self.partial_view == Some(0) {
            return Err("partial view must contain at least one other member".to_string());
        }
        if self.max_delay == Some(0) {
            return Err("max_delay must be at least 1 round".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ExperimentConfig::paper_defaults();
        assert_eq!(c.n, 200);
        assert_eq!(c.k, 4);
        assert_eq!(c.fanout, 2);
        assert_eq!(c.round_factor, 1.0);
        assert_eq!(c.ucastl, 0.25);
        assert_eq!(c.pf, 0.001);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = ExperimentConfig::default()
            .with_n(800)
            .with_ucastl(0.5)
            .with_pf(0.004)
            .with_partl(0.6)
            .with_rounds_per_phase(3);
        assert_eq!(c.n, 800);
        assert_eq!(c.ucastl, 0.5);
        assert_eq!(c.pf, 0.004);
        assert_eq!(c.partl, Some(0.6));
        assert_eq!(c.rounds_per_phase, Some(3));
        assert_eq!(c.hier_config().rounds_per_phase(800), 3);
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(ExperimentConfig::default().with_n(1).validate().is_err());
        assert!(ExperimentConfig::default()
            .with_ucastl(1.5)
            .validate()
            .is_err());
        assert!(ExperimentConfig::default()
            .with_pf(-0.1)
            .validate()
            .is_err());
        assert!(ExperimentConfig::default()
            .with_partl(2.0)
            .validate()
            .is_err());
        for round_factor in [0.0, f64::NAN, f64::INFINITY] {
            let c = ExperimentConfig {
                round_factor,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "C={round_factor}");
        }
        let c = ExperimentConfig {
            k: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            fanout: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_serializes_round_trip() {
        // configs are recorded as JSON next to experiment results;
        // the round trip must be lossless
        let mut cfg = ExperimentConfig::paper_defaults()
            .with_n(800)
            .with_partl(0.6)
            .with_rounds_per_phase(3);
        cfg.partial_view = Some(50);
        cfg.n_estimate = Some(600);
        cfg.start_spread = Some(4);
        cfg.max_delay = Some(2);
        cfg.vote = VoteSpec::Gaussian {
            mean: 10.0,
            std_dev: 2.0,
        };
        let json = cfg.to_json().to_string_pretty();
        let parsed = Json::parse(&json).expect("parse");
        let back = ExperimentConfig::from_json(&parsed).expect("deserialize");
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_reads_previously_recorded_serde_layout() {
        // the exact text serde-derive wrote for the defaults in earlier
        // revisions must keep parsing, `phase1_early_exit` (a knob since
        // removed) included: recorded configs outlive the fields they name
        let recorded = r#"{"n":200,"k":4,"fanout":2,"round_factor":1.0,
            "rounds_per_phase":null,"ucastl":0.25,"partl":null,"pf":0.001,
            "early_bump":true,"phase1_early_exit":false,"topo_aware":false,
            "positioned":false,"bandwidth_cap":null,"batch_exchange":true,
            "partial_view":null,"n_estimate":null,"start_spread":null,
            "max_delay":null,"vote":{"Uniform":{"lo":0.0,"hi":100.0}}}"#;
        let parsed = Json::parse(recorded).expect("parse");
        let cfg = ExperimentConfig::from_json(&parsed).expect("deserialize");
        assert_eq!(cfg, ExperimentConfig::paper_defaults());
    }

    #[test]
    fn max_rounds_covers_schedule() {
        let c = ExperimentConfig::default();
        // phases=4, rpp=8 → at least 64
        assert!(c.max_rounds() >= 64);
    }

    #[test]
    fn vote_spec_converts() {
        let u: gridagg_group::VoteDistribution = VoteSpec::Uniform { lo: 1.0, hi: 2.0 }.into();
        assert_eq!(
            u,
            gridagg_group::VoteDistribution::Uniform { lo: 1.0, hi: 2.0 }
        );
        let i: gridagg_group::VoteDistribution = VoteSpec::Index.into();
        assert_eq!(i, gridagg_group::VoteDistribution::Index);
    }
}
