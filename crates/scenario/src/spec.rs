//! The serialisable scenario specification.

use krum_attacks::AttackSpec;
use krum_compress::CompressionSpec;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, CrashPolicy, ExecutionStrategy, LearningRateSchedule, NetworkModel};
use krum_models::EstimatorSpec;
use krum_tensor::InitStrategy;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::error::ScenarioError;
use crate::faults::FaultPlan;

/// Default round timeout of remote execution, in seconds: how long a job
/// waits for the next event before declaring the round hung.
pub const DEFAULT_ROUND_TIMEOUT_SECS: u64 = 120;
/// Default handshake timeout, in seconds: how long a freshly accepted
/// socket gets to complete its `Hello`/`Rejoin`.
pub const DEFAULT_HANDSHAKE_TIMEOUT_SECS: u64 = 10;
/// Default staffing timeout, in seconds: how long the server waits for a
/// job's roster to fill before giving up on it.
pub const DEFAULT_STAFFING_TIMEOUT_SECS: u64 = 60;
/// Default heartbeat interval, in seconds: how often the server pings
/// silent workers mid-round.
pub const DEFAULT_HEARTBEAT_SECS: u64 = 5;

/// How the round pipeline executes — the serialisable face of
/// [`ExecutionStrategy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionSpec {
    /// Honest workers run sequentially on the server thread.
    Sequential,
    /// Honest gradients fan out over the thread pool and the simulated
    /// network is charged to the round timings.
    Threaded {
        /// The simulated network model.
        network: NetworkModel,
    },
    /// Async partial-quorum rounds: each round aggregates the fastest
    /// `quorum ≥ n − f` arrivals under the simulated network and carries
    /// stragglers into later rounds up to `max_staleness`. The aggregation
    /// rule is built for `quorum` proposals (Krum's `2f + 2 < n` is
    /// re-validated against the quorum size).
    AsyncQuorum {
        /// How many proposals close a round (`n − f ≤ quorum ≤ n`), or —
        /// in reuse mode — how many table entries refresh per round
        /// (`1 ≤ quorum ≤ n`).
        quorum: usize,
        /// Maximum age (in rounds) an in-flight proposal may reach and still
        /// be aggregated (reuse mode: the forced-refresh bound on table
        /// entries).
        max_staleness: usize,
        /// The simulated network deciding arrival order and charge.
        network: NetworkModel,
        /// Stale-gradient mode: keep every worker's latest proposal and
        /// aggregate all `n` each round; `quorum` paces refreshes and the
        /// incremental Gram cache recomputes only refreshed rows. JSON
        /// default: `false` (pre-existing spec files are unchanged).
        reuse_stale: bool,
    },
    /// Proposals arrive as bytes on real sockets and rounds close on real
    /// arrival order — the `krum-server` subsystem (`krum serve` /
    /// `krum loopback`). There is no simulated network: latencies are
    /// whatever the transport delivers, recorded in the `arrival_nanos`
    /// and `wire_bytes` columns. Not runnable by the in-process
    /// [`Scenario::run`](crate::Scenario::run).
    ///
    /// Note on timing: over a real wire the omniscient adversary can only
    /// respond *after* observing the honest proposals, so its vectors reach
    /// a partial quorum as carried stragglers — exactly the in-process
    /// `straggler` timing. With `quorum = n − f` and `max_staleness = 0`
    /// the server never waits for them and every Byzantine proposal ages
    /// out: the attack is structurally dropped (visible in the
    /// `dropped_stale` column), which says something about staleness
    /// bounds as a defence, not about the rule under test. Raise
    /// `max_staleness` (or the quorum) to let the adversary compete.
    Remote {
        /// Proposals closing a round: `Some(q)` closes at the `q`-th
        /// arrival (`n − f ≤ q ≤ n`) with PR-4 staleness/carry-over
        /// semantics; `None` waits for the full barrier of `n`.
        quorum: Option<usize>,
        /// Maximum age (in rounds) an in-flight proposal may reach and
        /// still be aggregated (only meaningful with a partial quorum).
        max_staleness: usize,
        /// How long the job waits for the next worker event before
        /// declaring the round hung, in seconds (JSON default:
        /// [`DEFAULT_ROUND_TIMEOUT_SECS`]).
        round_timeout_secs: u64,
        /// How long a freshly accepted socket gets to complete its
        /// handshake, in seconds (JSON default:
        /// [`DEFAULT_HANDSHAKE_TIMEOUT_SECS`]).
        handshake_timeout_secs: u64,
        /// How long the server waits for a job's roster to fill, in
        /// seconds (JSON default: [`DEFAULT_STAFFING_TIMEOUT_SECS`]).
        staffing_timeout_secs: u64,
        /// Heartbeat interval for silent workers, in seconds; must be
        /// strictly less than the round timeout (JSON default:
        /// [`DEFAULT_HEARTBEAT_SECS`]).
        heartbeat_secs: u64,
        /// What the job does when an honest worker crashes mid-round
        /// (JSON default: [`CrashPolicy::WaitForRejoin`]).
        on_crash: CrashPolicy,
    },
}

/// Canonical lowercase names of every execution strategy the spec registry
/// knows (shown by `krum list`).
pub const EXECUTION_NAMES: &[&str] = &["sequential", "threaded", "async-quorum", "remote"];

/// The resolved timing/policy knobs of remote execution (defaults for
/// every other execution model, which the loopback server may still
/// serve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTimeouts {
    /// Round timeout, in seconds.
    pub round_secs: u64,
    /// Handshake timeout, in seconds.
    pub handshake_secs: u64,
    /// Staffing timeout, in seconds.
    pub staffing_secs: u64,
    /// Heartbeat interval, in seconds.
    pub heartbeat_secs: u64,
    /// Crash policy for honest workers lost mid-round.
    pub on_crash: CrashPolicy,
}

impl Default for RemoteTimeouts {
    fn default() -> Self {
        Self {
            round_secs: DEFAULT_ROUND_TIMEOUT_SECS,
            handshake_secs: DEFAULT_HANDSHAKE_TIMEOUT_SECS,
            staffing_secs: DEFAULT_STAFFING_TIMEOUT_SECS,
            heartbeat_secs: DEFAULT_HEARTBEAT_SECS,
            on_crash: CrashPolicy::WaitForRejoin,
        }
    }
}

impl ExecutionSpec {
    /// A `Remote` spec with the given quorum/staleness and every
    /// timeout/policy knob at its default.
    pub fn remote(quorum: Option<usize>, max_staleness: usize) -> Self {
        let defaults = RemoteTimeouts::default();
        Self::Remote {
            quorum,
            max_staleness,
            round_timeout_secs: defaults.round_secs,
            handshake_timeout_secs: defaults.handshake_secs,
            staffing_timeout_secs: defaults.staffing_secs,
            heartbeat_secs: defaults.heartbeat_secs,
            on_crash: defaults.on_crash,
        }
    }

    /// The timing/policy knobs the serving layer should run this spec
    /// with: the `Remote` fields when this is remote execution, the
    /// defaults otherwise (a loopback serve of a non-remote spec).
    pub fn remote_timeouts(&self) -> RemoteTimeouts {
        match *self {
            Self::Remote {
                round_timeout_secs,
                handshake_timeout_secs,
                staffing_timeout_secs,
                heartbeat_secs,
                on_crash,
                ..
            } => RemoteTimeouts {
                round_secs: round_timeout_secs,
                handshake_secs: handshake_timeout_secs,
                staffing_secs: staffing_timeout_secs,
                heartbeat_secs,
                on_crash,
            },
            _ => RemoteTimeouts::default(),
        }
    }

    /// The in-process engine strategy this spec selects, or `None` for
    /// [`ExecutionSpec::Remote`] (which only the `krum-server` subsystem
    /// can execute).
    pub fn strategy(&self) -> Option<ExecutionStrategy> {
        match *self {
            Self::Sequential => Some(ExecutionStrategy::Sequential),
            Self::Threaded { network } => Some(ExecutionStrategy::Threaded { network }),
            Self::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale,
            } => Some(ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale,
            }),
            Self::Remote { .. } => None,
        }
    }

    /// How many proposals the aggregation rule sees per round under this
    /// execution: the quorum size for async/remote-quorum execution, the
    /// full cluster otherwise. The rule registry is driven with this value
    /// so rule preconditions hold against what is actually aggregated.
    pub fn aggregation_arity(&self, n: usize) -> usize {
        match *self {
            // Reuse mode aggregates the full latest-proposal table.
            Self::AsyncQuorum {
                reuse_stale: true, ..
            } => n,
            Self::AsyncQuorum { quorum, .. }
            | Self::Remote {
                quorum: Some(quorum),
                ..
            } => quorum,
            _ => n,
        }
    }

    /// The simulated network, when this execution carries one (remote
    /// execution runs on the real one).
    pub fn network(&self) -> Option<NetworkModel> {
        match *self {
            Self::Sequential | Self::Remote { .. } => None,
            Self::Threaded { network } | Self::AsyncQuorum { network, .. } => Some(network),
        }
    }
}

// Hand-written, mirroring the derive's externally-tagged layout exactly:
// the `Remote` timeout/policy fields need serde *defaults* (existing
// scenario JSONs predate them), which the vendored derive's required-field
// semantics cannot express.
impl Serialize for ExecutionSpec {
    fn serialize(&self) -> Value {
        let obj = |name: &str, fields: Vec<(String, Value)>| {
            Value::Object(vec![(name.to_string(), Value::Object(fields))])
        };
        match self {
            Self::Sequential => Value::Str("Sequential".into()),
            Self::Threaded { network } => obj(
                "Threaded",
                vec![("network".into(), Serialize::serialize(network))],
            ),
            Self::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale,
            } => obj(
                "AsyncQuorum",
                vec![
                    ("quorum".into(), Serialize::serialize(quorum)),
                    ("max_staleness".into(), Serialize::serialize(max_staleness)),
                    ("network".into(), Serialize::serialize(network)),
                    ("reuse_stale".into(), Serialize::serialize(reuse_stale)),
                ],
            ),
            Self::Remote {
                quorum,
                max_staleness,
                round_timeout_secs,
                handshake_timeout_secs,
                staffing_timeout_secs,
                heartbeat_secs,
                on_crash,
            } => obj(
                "Remote",
                vec![
                    ("quorum".into(), Serialize::serialize(quorum)),
                    ("max_staleness".into(), Serialize::serialize(max_staleness)),
                    (
                        "round_timeout_secs".into(),
                        Serialize::serialize(round_timeout_secs),
                    ),
                    (
                        "handshake_timeout_secs".into(),
                        Serialize::serialize(handshake_timeout_secs),
                    ),
                    (
                        "staffing_timeout_secs".into(),
                        Serialize::serialize(staffing_timeout_secs),
                    ),
                    (
                        "heartbeat_secs".into(),
                        Serialize::serialize(heartbeat_secs),
                    ),
                    ("on_crash".into(), Serialize::serialize(on_crash)),
                ],
            ),
        }
    }
}

impl Deserialize for ExecutionSpec {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let field = |inner: &Value, name: &str| serde::__private::field(inner, name).cloned();
        match v {
            Value::Str(s) if s == "Sequential" => Ok(Self::Sequential),
            Value::Str(other) => Err(DeError::unknown_variant("ExecutionSpec", other)),
            Value::Object(pairs) if pairs.len() == 1 => {
                let (key, inner) = &pairs[0];
                match key.as_str() {
                    "Threaded" => Ok(Self::Threaded {
                        network: Deserialize::deserialize(&field(inner, "network")?)?,
                    }),
                    "AsyncQuorum" => Ok(Self::AsyncQuorum {
                        quorum: Deserialize::deserialize(&field(inner, "quorum")?)?,
                        max_staleness: Deserialize::deserialize(&field(inner, "max_staleness")?)?,
                        network: Deserialize::deserialize(&field(inner, "network")?)?,
                        // Spec files predating reuse mode stay valid.
                        reuse_stale: match optional_field(inner, "reuse_stale") {
                            Some(v) => Deserialize::deserialize(v)?,
                            None => false,
                        },
                    }),
                    "Remote" => {
                        let defaults = RemoteTimeouts::default();
                        let u64_or = |name: &str, default: u64| -> Result<u64, DeError> {
                            match optional_field(inner, name) {
                                Some(v) => Deserialize::deserialize(v),
                                None => Ok(default),
                            }
                        };
                        Ok(Self::Remote {
                            quorum: Deserialize::deserialize(&field(inner, "quorum")?)?,
                            max_staleness: Deserialize::deserialize(&field(
                                inner,
                                "max_staleness",
                            )?)?,
                            round_timeout_secs: u64_or("round_timeout_secs", defaults.round_secs)?,
                            handshake_timeout_secs: u64_or(
                                "handshake_timeout_secs",
                                defaults.handshake_secs,
                            )?,
                            staffing_timeout_secs: u64_or(
                                "staffing_timeout_secs",
                                defaults.staffing_secs,
                            )?,
                            heartbeat_secs: u64_or("heartbeat_secs", defaults.heartbeat_secs)?,
                            on_crash: match optional_field(inner, "on_crash") {
                                Some(v) => Deserialize::deserialize(v)?,
                                None => defaults.on_crash,
                            },
                        })
                    }
                    other => Err(DeError::unknown_variant("ExecutionSpec", other)),
                }
            }
            other => Err(DeError::invalid_type("ExecutionSpec variant", other.kind())),
        }
    }
}

/// Looks up an optional key in a JSON object (absent keys are distinct
/// from explicit `null`: both fall back to the default here).
fn optional_field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, Value::Null)),
        _ => None,
    }
}

impl std::fmt::Display for ExecutionSpec {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Remote { quorum: None, .. } => out.write_str("remote(barrier)"),
            Self::Remote {
                quorum: Some(q),
                max_staleness,
                ..
            } => write!(out, "remote(q={q}, staleness<={max_staleness})"),
            other => other
                .strategy()
                .expect("non-remote specs have a strategy")
                .fmt(out),
        }
    }
}

/// Where the parameter trajectory starts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitSpec {
    /// `x_0 = 0`.
    Zeros,
    /// `x_0 = (value, …, value)`.
    Fill {
        /// Per-coordinate start value.
        value: f64,
    },
    /// `x_0` sampled by the workload's model with the given strategy (e.g.
    /// Xavier for MLPs), from its own seed so the draw is reproducible and
    /// independent of the worker streams.
    Sample {
        /// The initialisation strategy.
        strategy: InitStrategy,
        /// Seed of the initialisation draw.
        seed: u64,
    },
}

/// Which optional measurements the scenario records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// Record `‖x_t − x*‖` when the workload has an analytic optimum.
    pub track_optimum: bool,
    /// Attach the workload's held-out accuracy probe, when it has one.
    pub accuracy: bool,
}

impl Default for ProbeSpec {
    fn default() -> Self {
        Self {
            track_optimum: true,
            accuracy: true,
        }
    }
}

/// A complete, serialisable description of one experiment: the grid cell
/// `(rule F, attack, cluster shape, workload, schedule, execution, seed)`
/// the paper sweeps, as one value.
///
/// A spec can come from JSON (`krum run spec.json`), from the fluent
/// [`ScenarioBuilder`](crate::ScenarioBuilder), or be constructed literally;
/// all three produce bit-identical parameter trajectories for the same
/// field values because every random stream derives from `seed`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    /// Free-form scenario label used in reports and file names.
    pub name: String,
    /// Cluster shape: `n` workers, `f` Byzantine.
    pub cluster: ClusterSpec,
    /// The aggregation (choice) function `F`.
    pub rule: RuleSpec,
    /// The Byzantine strategy.
    pub attack: AttackSpec,
    /// What the honest workers compute.
    pub estimator: EstimatorSpec,
    /// Learning-rate schedule `γ_t`.
    pub schedule: LearningRateSchedule,
    /// Sequential or threaded execution.
    pub execution: ExecutionSpec,
    /// Number of synchronous rounds.
    pub rounds: usize,
    /// Evaluation cadence (≥ 1; the final round is always evaluated).
    pub eval_every: usize,
    /// Master seed for every random stream.
    pub seed: u64,
    /// Where the trajectory starts.
    pub init: InitSpec,
    /// Optional measurements.
    pub probes: ProbeSpec,
    /// Scripted faults for chaos runs (`None`, the JSON default, injects
    /// nothing; ignored entirely outside the chaos harness).
    pub fault_plan: Option<FaultPlan>,
    /// Gradient compression codec (`None` runs uncompressed). The codec's
    /// quantize → dequantize transform applies **before aggregation on
    /// every engine** — in-process runs quantize in memory, remote runs
    /// quantize on the wire — so a compressed scenario has one canonical
    /// trajectory per seed, not one per transport.
    pub compression: Option<CompressionSpec>,
}

// Hand-written so `fault_plan` and `compression` may be absent from the
// JSON (every spec file written before those features existed stays
// valid).
impl Deserialize for ScenarioSpec {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| serde::__private::field(v, name);
        Ok(Self {
            name: Deserialize::deserialize(field("name")?)?,
            cluster: Deserialize::deserialize(field("cluster")?)?,
            rule: Deserialize::deserialize(field("rule")?)?,
            attack: Deserialize::deserialize(field("attack")?)?,
            estimator: Deserialize::deserialize(field("estimator")?)?,
            schedule: Deserialize::deserialize(field("schedule")?)?,
            execution: Deserialize::deserialize(field("execution")?)?,
            rounds: Deserialize::deserialize(field("rounds")?)?,
            eval_every: Deserialize::deserialize(field("eval_every")?)?,
            seed: Deserialize::deserialize(field("seed")?)?,
            init: Deserialize::deserialize(field("init")?)?,
            probes: Deserialize::deserialize(field("probes")?)?,
            fault_plan: match optional_field(v, "fault_plan") {
                Some(fv) => Some(Deserialize::deserialize(fv)?),
                None => None,
            },
            compression: match optional_field(v, "compression") {
                Some(cv) => Some(Deserialize::deserialize(cv)?),
                None => None,
            },
        })
    }
}

impl ScenarioSpec {
    /// Parses a spec from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] for malformed JSON and
    /// [`ScenarioError::InvalidSpec`] when the parsed spec fails
    /// [`ScenarioSpec::validate`].
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let spec: Self = serde_json::from_str(json)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, ScenarioError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Cross-checks every constraint the runtime relies on, without building
    /// anything: cluster shape, rule/cluster compatibility (e.g. Krum's
    /// `2f + 2 < n`), attack and workload parameters, schedule positivity,
    /// evaluation cadence and the execution model.
    ///
    /// Deserialisation does not validate on its own (a JSON file can encode
    /// any field values); every build/run entry point calls this first.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // The cluster may have been deserialised around its constructor.
        let cluster = ClusterSpec::new(self.cluster.workers(), self.cluster.byzantine())?;
        self.estimator.validate()?;
        let dim = self.estimator.dim()?;
        // Async/remote execution narrows what the rule aggregates: its
        // preconditions must hold against the quorum size, not n.
        let narrowed_quorum = match self.execution {
            // Reuse mode aggregates all n; its quorum is a refresh pace.
            ExecutionSpec::AsyncQuorum {
                quorum,
                reuse_stale: true,
                ..
            } => {
                if quorum < 1 || quorum > cluster.workers() {
                    return Err(ScenarioError::invalid(format!(
                        "reuse-stale quorum must satisfy 1 <= quorum <= n, got quorum = \
                         {quorum} with n = {}",
                        cluster.workers()
                    )));
                }
                None
            }
            ExecutionSpec::AsyncQuorum { quorum, .. }
            | ExecutionSpec::Remote {
                quorum: Some(quorum),
                ..
            } => Some(quorum),
            _ => None,
        };
        if let Some(quorum) = narrowed_quorum {
            if quorum < cluster.honest() || quorum > cluster.workers() {
                return Err(ScenarioError::invalid(format!(
                    "quorum must satisfy n - f <= quorum <= n, got quorum = {quorum} \
                     with n = {}, f = {}",
                    cluster.workers(),
                    cluster.byzantine()
                )));
            }
        }
        // Building the rule and the attack runs their own cross-checks
        // against (arity, f) and d; the built values are discarded.
        let arity = self.execution.aggregation_arity(cluster.workers());
        self.rule.build(arity, cluster.byzantine())?;
        self.attack.build(dim)?;
        self.attack
            .validate_for_cluster(cluster.honest(), cluster.byzantine())?;
        if let ExecutionSpec::Remote {
            round_timeout_secs,
            handshake_timeout_secs,
            staffing_timeout_secs,
            heartbeat_secs,
            ..
        } = self.execution
        {
            for (name, value) in [
                ("round_timeout_secs", round_timeout_secs),
                ("handshake_timeout_secs", handshake_timeout_secs),
                ("staffing_timeout_secs", staffing_timeout_secs),
                ("heartbeat_secs", heartbeat_secs),
            ] {
                if value == 0 {
                    return Err(ScenarioError::invalid(format!(
                        "remote {name} must be >= 1 second"
                    )));
                }
            }
            if heartbeat_secs >= round_timeout_secs {
                return Err(ScenarioError::invalid(format!(
                    "remote heartbeat_secs ({heartbeat_secs}) must be strictly less than \
                     round_timeout_secs ({round_timeout_secs}): a worker needs at least one \
                     unanswered heartbeat before the round can time out"
                )));
            }
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        if let Some(compression) = &self.compression {
            compression
                .validate(Some(dim))
                .map_err(|e| ScenarioError::invalid(e.to_string()))?;
        }
        if self.rounds == 0 {
            return Err(ScenarioError::invalid("rounds must be >= 1"));
        }
        if self.eval_every == 0 {
            return Err(ScenarioError::invalid(
                "eval_every must be >= 1 (use eval_every = rounds to evaluate only the final round)",
            ));
        }
        self.schedule.validate()?;
        if let Some(network) = self.execution.network() {
            network.validate()?;
        }
        match self.init {
            InitSpec::Zeros => {}
            InitSpec::Fill { value } => {
                if !value.is_finite() {
                    return Err(ScenarioError::invalid("init fill value must be finite"));
                }
            }
            InitSpec::Sample { strategy, .. } => match strategy {
                InitStrategy::Gaussian { std } if !(std.is_finite() && std >= 0.0) => {
                    return Err(ScenarioError::invalid(
                        "init gaussian std must be finite and >= 0",
                    ));
                }
                InitStrategy::Uniform { limit } if !(limit.is_finite() && limit >= 0.0) => {
                    return Err(ScenarioError::invalid(
                        "init uniform limit must be finite and >= 0",
                    ));
                }
                _ => {}
            },
        }
        Ok(())
    }

    /// Model dimension `d` of the scenario's workload.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Model`] when the workload spec is invalid.
    pub fn dim(&self) -> Result<usize, ScenarioError> {
        Ok(self.estimator.dim()?)
    }

    /// A short single-line description (`rule vs attack (n=…, f=…)`).
    pub fn headline(&self) -> String {
        format!(
            "{} vs {} (n={}, f={}, rounds={}, seed={})",
            self.rule,
            self.attack,
            self.cluster.workers(),
            self.cluster.byzantine(),
            self.rounds,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krum_core::StageRule;
    use krum_dist::LatencyModel;

    pub(crate) fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".into(),
            cluster: ClusterSpec::new(9, 2).unwrap(),
            rule: RuleSpec::Krum,
            attack: AttackSpec::SignFlip { scale: 3.0 },
            estimator: EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 },
            schedule: LearningRateSchedule::Constant { gamma: 0.2 },
            execution: ExecutionSpec::Sequential,
            rounds: 20,
            eval_every: 5,
            seed: 7,
            init: InitSpec::Fill { value: 1.5 },
            probes: ProbeSpec::default(),
            fault_plan: None,
            compression: None,
        }
    }

    #[test]
    fn valid_spec_round_trips_through_json() {
        let s = spec();
        s.validate().unwrap();
        let json = s.to_json().unwrap();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert!(json.contains("\"rule\": \"krum\""));
        assert!(json.contains("sign-flip:scale=3"));
        assert!(s.headline().contains("krum vs sign-flip"));
        assert_eq!(s.dim().unwrap(), 6);
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        // Krum needs 2f + 2 < n.
        let mut bad = spec();
        bad.cluster = ClusterSpec::new(5, 2).unwrap();
        assert!(matches!(bad.validate(), Err(ScenarioError::Rule(_))));

        let mut bad = spec();
        bad.rounds = 0;
        assert!(matches!(bad.validate(), Err(ScenarioError::InvalidSpec(_))));

        let mut bad = spec();
        bad.eval_every = 0;
        assert!(bad.validate().is_err());

        let mut bad = spec();
        bad.schedule = LearningRateSchedule::Constant { gamma: -1.0 };
        assert!(bad.validate().is_err());

        let mut bad = spec();
        bad.attack = AttackSpec::SignFlip { scale: -1.0 };
        assert!(matches!(bad.validate(), Err(ScenarioError::Attack(_))));

        let mut bad = spec();
        bad.estimator = EstimatorSpec::GaussianQuadratic { dim: 0, sigma: 0.1 };
        assert!(matches!(bad.validate(), Err(ScenarioError::Model(_))));

        let mut bad = spec();
        bad.init = InitSpec::Fill {
            value: f64::INFINITY,
        };
        assert!(bad.validate().is_err());

        let mut bad = spec();
        bad.execution = ExecutionSpec::Threaded {
            network: NetworkModel {
                latency: LatencyModel::Constant { nanos: 100 },
                nanos_per_byte: f64::NAN,
            },
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn malformed_cluster_json_is_rejected_not_panicked() {
        // f >= n encodes fine in JSON but must fail validation.
        let json = spec().to_json().unwrap().replace("\"f\": 2", "\"f\": 9");
        assert!(ScenarioSpec::from_json(&json).is_err());
        // Garbage JSON is a structured error.
        assert!(ScenarioSpec::from_json("{not json").is_err());
        assert!(ScenarioSpec::from_json("{}").is_err());
    }

    #[test]
    fn execution_spec_displays_via_strategy() {
        assert_eq!(ExecutionSpec::Sequential.to_string(), "sequential");
        let threaded = ExecutionSpec::Threaded {
            network: NetworkModel {
                latency: LatencyModel::Constant { nanos: 500 },
                nanos_per_byte: 0.5,
            },
        };
        let text = threaded.to_string();
        assert!(text.starts_with("threaded("));
        assert!(text.contains("constant(500ns)"));
        assert!(text.contains("0.5ns/byte"));
        let quorum = ExecutionSpec::AsyncQuorum {
            quorum: 7,
            max_staleness: 2,
            reuse_stale: false,
            network: NetworkModel {
                latency: LatencyModel::Pareto {
                    min_nanos: 1_000,
                    alpha: 1.1,
                },
                nanos_per_byte: 0.1,
            },
        };
        let text = quorum.to_string();
        assert!(text.starts_with("async-quorum(q=7, staleness<=2"));
        assert!(text.contains("pareto"));
    }

    fn async_execution(quorum: usize) -> ExecutionSpec {
        ExecutionSpec::AsyncQuorum {
            quorum,
            max_staleness: 2,
            reuse_stale: false,
            network: NetworkModel {
                latency: LatencyModel::Uniform {
                    min_nanos: 1_000,
                    max_nanos: 100_000,
                },
                nanos_per_byte: 0.0,
            },
        }
    }

    #[test]
    fn async_quorum_specs_round_trip_and_cross_validate() {
        // n = 9, f = 2: quorum must sit in [7, 9] and satisfy the rule's
        // precondition against the quorum size.
        let mut s = spec();
        s.execution = async_execution(7);
        s.validate().unwrap();
        assert_eq!(s.execution.aggregation_arity(9), 7);
        let json = s.to_json().unwrap();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, s);

        let mut bad = spec();
        bad.execution = async_execution(6); // < n - f
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.execution = async_execution(10); // > n
        assert!(bad.validate().is_err());

        // Krum needs 2f + 2 < quorum: f = 3 at n = 10 is fine for the
        // barrier (2·3 + 2 < 10) but not for a quorum of 7 (2·3 + 2 >= 7).
        let mut bad = spec();
        bad.cluster = ClusterSpec::new(10, 3).unwrap();
        bad.execution = async_execution(7);
        assert!(
            matches!(bad.validate(), Err(ScenarioError::Rule(_))),
            "Krum's precondition must be held against the quorum size"
        );
        let mut ok = spec();
        ok.cluster = ClusterSpec::new(10, 3).unwrap();
        ok.execution = async_execution(9);
        ok.validate().unwrap();

        // The Pareto tail index is validated through the spec too.
        let mut bad = spec();
        bad.execution = ExecutionSpec::AsyncQuorum {
            quorum: 7,
            max_staleness: 2,
            reuse_stale: false,
            network: NetworkModel {
                latency: LatencyModel::Pareto {
                    min_nanos: 10,
                    alpha: f64::NAN,
                },
                nanos_per_byte: 0.0,
            },
        };
        assert!(bad.validate().is_err());
    }

    /// Tentpole: `Remote` execution round-trips, validates its quorum
    /// bounds against the cluster, holds the rule precondition against the
    /// remote arity, and deliberately has no in-process strategy.
    #[test]
    fn remote_specs_validate_display_and_round_trip() {
        let mut s = spec();
        s.execution = ExecutionSpec::remote(None, 0);
        s.validate().unwrap();
        assert_eq!(s.execution.aggregation_arity(9), 9);
        assert!(s.execution.network().is_none());
        assert!(s.execution.strategy().is_none());
        assert_eq!(s.execution.to_string(), "remote(barrier)");
        let json = s.to_json().unwrap();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), s);

        let mut q = spec();
        q.execution = ExecutionSpec::remote(Some(7), 2);
        q.validate().unwrap();
        assert_eq!(q.execution.aggregation_arity(9), 7);
        assert_eq!(q.execution.to_string(), "remote(q=7, staleness<=2)");

        for bad_quorum in [6, 10] {
            let mut bad = spec();
            bad.execution = ExecutionSpec::remote(Some(bad_quorum), 2);
            assert!(
                bad.validate().is_err(),
                "remote quorum {bad_quorum} must violate n - f <= q <= n at n = 9, f = 2"
            );
        }

        // Krum's 2f + 2 < n precondition is held against the remote arity:
        // f = 3 at n = 10 passes the barrier but not a quorum of 7.
        let mut bad = spec();
        bad.cluster = ClusterSpec::new(10, 3).unwrap();
        bad.execution = ExecutionSpec::remote(Some(7), 1);
        assert!(matches!(bad.validate(), Err(ScenarioError::Rule(_))));

        assert!(EXECUTION_NAMES.contains(&"remote"));
        assert_eq!(EXECUTION_NAMES.len(), 4);
    }

    /// Satellite: the remote timeout knobs default when absent from the
    /// JSON (a PR-5-era spec file parses unchanged) and validate as
    /// nonzero with `heartbeat < round timeout`.
    #[test]
    fn remote_timeouts_default_validate_and_round_trip() {
        // A remote spec serialised before the knobs existed: only quorum
        // and max_staleness present.
        let mut s = spec();
        s.execution = ExecutionSpec::remote(Some(7), 1);
        let json = s
            .to_json()
            .unwrap()
            .replace("\"round_timeout_secs\": 120,\n", "")
            .replace("\"handshake_timeout_secs\": 10,\n", "")
            .replace("\"staffing_timeout_secs\": 60,\n", "")
            .replace("\"heartbeat_secs\": 5,\n", "")
            .replace("\"on_crash\": \"WaitForRejoin\"", "\"max_staleness\": 1");
        assert!(
            !json.contains("round_timeout_secs"),
            "fixture must exercise the missing-field path: {json}"
        );
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, s, "absent knobs must resolve to the defaults");
        let knobs = back.execution.remote_timeouts();
        assert_eq!(knobs.round_secs, DEFAULT_ROUND_TIMEOUT_SECS);
        assert_eq!(knobs.handshake_secs, DEFAULT_HANDSHAKE_TIMEOUT_SECS);
        assert_eq!(knobs.staffing_secs, DEFAULT_STAFFING_TIMEOUT_SECS);
        assert_eq!(knobs.heartbeat_secs, DEFAULT_HEARTBEAT_SECS);
        assert_eq!(knobs.on_crash, CrashPolicy::WaitForRejoin);

        // Explicit knobs round-trip.
        let mut tuned = spec();
        tuned.execution = ExecutionSpec::Remote {
            quorum: Some(7),
            max_staleness: 1,
            round_timeout_secs: 30,
            handshake_timeout_secs: 3,
            staffing_timeout_secs: 15,
            heartbeat_secs: 2,
            on_crash: CrashPolicy::ProceedAtQuorum,
        };
        tuned.validate().unwrap();
        let json = tuned.to_json().unwrap();
        assert!(json.contains("\"on_crash\": \"ProceedAtQuorum\""));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), tuned);

        // Zero timeouts are rejected, one knob at a time.
        for knob in 0..4 {
            let mut bad = spec();
            bad.execution = ExecutionSpec::Remote {
                quorum: None,
                max_staleness: 0,
                round_timeout_secs: if knob == 0 { 0 } else { 120 },
                handshake_timeout_secs: if knob == 1 { 0 } else { 10 },
                staffing_timeout_secs: if knob == 2 { 0 } else { 60 },
                heartbeat_secs: if knob == 3 { 0 } else { 5 },
                on_crash: CrashPolicy::WaitForRejoin,
            };
            let err = bad.validate().unwrap_err();
            assert!(
                err.to_string().contains(">= 1 second"),
                "knob {knob}: {err}"
            );
        }

        // The heartbeat must fit under the round timeout.
        let mut bad = spec();
        bad.execution = ExecutionSpec::Remote {
            quorum: None,
            max_staleness: 0,
            round_timeout_secs: 5,
            handshake_timeout_secs: 10,
            staffing_timeout_secs: 60,
            heartbeat_secs: 5,
            on_crash: CrashPolicy::WaitForRejoin,
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("strictly less"), "got: {err}");

        assert_eq!(CrashPolicy::WaitForRejoin.to_string(), "wait-for-rejoin");
        assert_eq!(
            CrashPolicy::ProceedAtQuorum.to_string(),
            "proceed-at-quorum"
        );
    }

    /// Satellite: a fault plan rides on the spec (optional — absent in old
    /// files), round-trips through JSON, and is validated with the spec.
    #[test]
    fn fault_plans_ride_on_specs_optionally() {
        // No plan serialises as an explicit null and reads back as `None`…
        let plain = spec();
        let json = plain.to_json().unwrap();
        assert!(json.contains("\"fault_plan\": null"));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap().fault_plan, None);
        // …and a pre-PR-6 spec file with no `fault_plan` key at all parses.
        let old_style = json.replace(",\n  \"fault_plan\": null", "");
        assert!(!old_style.contains("fault_plan"), "got: {old_style}");
        let reparsed = ScenarioSpec::from_json(&old_style)
            .expect("spec files predating fault plans must keep parsing");
        assert_eq!(reparsed, plain);

        let mut chaotic = spec();
        chaotic.fault_plan = Some(crate::FaultPlan {
            description: "drop conn 2 mid-round".into(),
            faults: vec![crate::FaultSpec {
                conn: 2,
                at_frame: 4,
                action: crate::FaultAction::Drop,
            }],
            kill_server_after_round: Some(3),
        });
        chaotic.validate().unwrap();
        let json = chaotic.to_json().unwrap();
        assert!(json.contains("drop conn 2 mid-round"));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), chaotic);

        // Plan validation is spec validation.
        let mut bad = chaotic.clone();
        bad.fault_plan.as_mut().unwrap().faults[0].action = crate::FaultAction::Delay { millis: 0 };
        assert!(bad.validate().is_err());
    }

    /// Satellite: the Figure-2 collusion with f = 1 degenerates to zero
    /// decoys; scenario cross-validation rejects it with a clear error.
    #[test]
    fn collusion_with_f1_is_rejected_by_scenario_validation() {
        let mut bad = spec();
        bad.cluster = ClusterSpec::new(9, 1).unwrap();
        bad.attack = AttackSpec::Collusion { magnitude: 100.0 };
        let err = bad.validate().unwrap_err();
        assert!(
            matches!(err, ScenarioError::Attack(_)),
            "expected an attack cross-validation error, got: {err}"
        );
        assert!(err.to_string().contains("f >= 2"), "got: {err}");
        // f = 2 runs the real construction.
        let mut ok = spec();
        ok.cluster = ClusterSpec::new(9, 2).unwrap();
        ok.attack = AttackSpec::Collusion { magnitude: 100.0 };
        ok.validate().unwrap();
    }

    fn reuse_execution(quorum: usize) -> ExecutionSpec {
        ExecutionSpec::AsyncQuorum {
            quorum,
            max_staleness: 4,
            network: NetworkModel {
                latency: LatencyModel::Constant { nanos: 1_000 },
                nanos_per_byte: 0.0,
            },
            reuse_stale: true,
        }
    }

    /// Removes `key` from every object in a serialized [`serde::Value`]
    /// tree — simulating a spec file written before the field existed.
    fn strip_key(value: &mut serde::Value, key: &str) {
        match value {
            serde::Value::Object(fields) => {
                fields.retain(|(name, _)| name != key);
                for (_, v) in fields.iter_mut() {
                    strip_key(v, key);
                }
            }
            serde::Value::Array(items) => {
                for v in items.iter_mut() {
                    strip_key(v, key);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn reuse_stale_specs_validate_round_trip_and_default_to_false() {
        // n = 9, f = 2: a refresh pace far below n - f is legal in reuse
        // mode because the rule aggregates the full latest-proposal table.
        let mut s = spec();
        s.execution = reuse_execution(2);
        s.validate().unwrap();
        assert_eq!(s.execution.aggregation_arity(9), 9);
        assert!(s.execution.to_string().contains("reuse"));
        let json = s.to_json().unwrap();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, s);

        // The refresh pace is bounded by 1 <= quorum <= n.
        let mut bad = spec();
        bad.execution = reuse_execution(0);
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.execution = reuse_execution(10);
        assert!(bad.validate().is_err());

        // Spec files written before reuse mode carry no `reuse_stale`
        // field and must keep parsing as the barrier-quorum mode.
        let barrier = async_execution(7);
        let mut value = Serialize::serialize(&barrier);
        strip_key(&mut value, "reuse_stale");
        let legacy = <ExecutionSpec as Deserialize>::deserialize(&value).unwrap();
        assert_eq!(legacy, barrier);
    }

    /// Hierarchical rules flow through the spec: string/typed forms
    /// round-trip, and validation enforces the per-group Byzantine bound
    /// against the cluster — not just the flat `2f + 2 < n` condition.
    #[test]
    fn hierarchical_specs_round_trip_and_validate_per_group_bounds() {
        // n = 24, f = 3, g = 4: groups of 6 with at most ceil(3/4) = 1
        // Byzantine each — Krum is feasible in every group.
        let mut s = spec();
        s.cluster = ClusterSpec::new(24, 3).unwrap();
        s.rule = RuleSpec::Hierarchical {
            groups: 4,
            inner: StageRule::Krum,
            outer: StageRule::Krum,
        };
        s.validate().unwrap();
        let json = s.to_json().unwrap();
        assert!(json.contains("hierarchical:groups=4"));
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, s);

        // n = 16, f = 4, g = 4: groups of 4 with 1 Byzantine each violate
        // Krum's 2f_g + 2 < n_g inside every group, even though the flat
        // bound 2f + 2 < n holds. Validation must reject it structurally.
        let mut bad = spec();
        bad.cluster = ClusterSpec::new(16, 4).unwrap();
        bad.rule = RuleSpec::Hierarchical {
            groups: 4,
            inner: StageRule::Krum,
            outer: StageRule::Krum,
        };
        let err = bad.validate().unwrap_err();
        assert!(
            matches!(err, ScenarioError::Rule(_)),
            "expected a rule cross-validation error, got: {err}"
        );
        assert!(err.to_string().contains("group"), "got: {err}");
    }
}
