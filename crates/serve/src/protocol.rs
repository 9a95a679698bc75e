//! The closure-service wire protocol.
//!
//! Serde-serializable [`Request`] / [`Response`] types carried as JSON
//! over a length-prefixed framing that works identically in-process
//! (any `Read`/`Write` pair) and across a Unix-domain socket: each
//! frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. (The derives are wired through the offline
//! `serde` shim today; the hand-rolled [`crate::json`] codec produces
//! the actual bytes — see `vendor/README.md`.) There is one framing
//! implementation — `encode_frame` going out, `read_frame_with` +
//! `decode_payload` coming in — under the blocking client
//! ([`write_frame`] / [`read_frame`]), the server's interruptible
//! reader and the torn-frame fault path alike, and it works in a buffer
//! the connection keeps across frames.
//!
//! Designs travel as Verilog source text and are parsed server-side;
//! the [`WireConfig`] mirrors [`EngineConfig`] with signal *names*
//! instead of module-local ids, so a config resolves against whatever
//! module the server parsed. [`ClosureSummary::outcome_debug`] carries
//! the full `Debug` render of the [`goldmine::ClosureOutcome`], which
//! is how the differential suite proves a served result byte-identical
//! to a standalone engine run across the socket.

use crate::json::{self, Json};
use gm_mc::Backend;
use gm_rtl::Module;
use goldmine::{
    EngineConfig, RefineConfig, SeedStimulus, ShardPolicy, SimBackend, TargetSelection,
    TemporalConfig, UnknownPolicy, MAX_LANE_BLOCK,
};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Largest accepted frame payload (a design source plus a full outcome
/// debug render fits comfortably).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A protocol-level failure: malformed frames, unknown message tags,
/// unresolvable signal names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn field<'a, 'j>(v: &'a Json<'j>, key: &str) -> Result<&'a Json<'j>, ProtocolError> {
    v.get(key)
        .ok_or_else(|| ProtocolError(format!("missing field '{key}'")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, ProtocolError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| ProtocolError(format!("field '{key}' must be an unsigned integer")))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, ProtocolError> {
    u32::try_from(u64_field(v, key)?)
        .map_err(|_| ProtocolError(format!("field '{key}' exceeds 32 bits")))
}

fn narrow_u32(value: u64, what: &str) -> Result<u32, ProtocolError> {
    u32::try_from(value).map_err(|_| ProtocolError(format!("{what} exceeds 32 bits")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| ProtocolError(format!("field '{key}' must be a string")))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, ProtocolError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| ProtocolError(format!("field '{key}' must be a boolean")))
}

/// An optional unsigned field: absent or `null` yields `default`. The
/// wire back-compat shape for knobs added after the first protocol
/// version — older clients never send them and must keep resolving to
/// the behavior they always had.
fn opt_u64_field(v: &Json, key: &str, default: u64) -> Result<u64, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(other) => other
            .as_u64()
            .ok_or_else(|| ProtocolError(format!("field '{key}' must be an unsigned integer"))),
    }
}

/// An optional boolean field: absent or `null` yields `default` (see
/// [`opt_u64_field`]).
fn opt_bool_field(v: &Json, key: &str, default: bool) -> Result<bool, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(other) => other
            .as_bool()
            .ok_or_else(|| ProtocolError(format!("field '{key}' must be a boolean"))),
    }
}

fn wide_usize(value: u64, what: &str) -> Result<usize, ProtocolError> {
    usize::try_from(value)
        .map_err(|_| ProtocolError(format!("{what} exceeds the platform word size")))
}

/// Mining-target selection by signal *name* (wire form of
/// [`TargetSelection`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireTargets {
    /// Every bit of every primary output.
    AllOutputs,
    /// Specific `(signal name, bit)` pairs.
    Bits(Vec<(String, u32)>),
}

/// The wire form of [`EngineConfig`]: everything a closure request
/// configures, with signal names in place of module-local ids.
///
/// Directed seed stimulus is not representable on the wire (it embeds
/// module-local vectors); requests use random or empty seeds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireConfig {
    /// Mining window length.
    pub window: u32,
    /// RNG seed for random stimulus.
    pub seed: u64,
    /// Random seed cycles; `None` = the zero-pattern limit study.
    pub random_cycles: Option<u64>,
    /// Iteration budget.
    pub max_iterations: u32,
    /// Backend: `"auto"`, `"explicit"`, `("bmc", bound)`,
    /// `("kind", max_k)`.
    pub backend: WireBackend,
    /// Whether `Unknown` verdicts are assumed true.
    pub unknown_assume: bool,
    /// Target selection.
    pub targets: WireTargets,
    /// Shard sessions: 0 = off, `n` = fixed, `None` = per-core.
    pub shards: Option<u32>,
    /// Record per-iteration coverage.
    pub record_coverage: bool,
    /// Temporal-mining lookahead horizon (the wire form of
    /// [`TemporalConfig::horizon`]); `0` disables temporal mining.
    /// Absent on the wire = `0` — pre-temporal clients keep the
    /// behavior they always had.
    pub temporal_horizon: u32,
    /// Directed variants synthesized per counterexample prefix
    /// ([`RefineConfig::variants`]); `0` disables the refinement pass.
    /// Absent on the wire = `0`.
    pub refine_variants: u64,
    /// Random data-input cycles appended after each replayed prefix
    /// ([`RefineConfig::extra_cycles`]). Absent on the wire = the
    /// engine default.
    pub refine_extra_cycles: u64,
    /// Top-ranked directed segments absorbed per iteration
    /// ([`RefineConfig::max_absorb`]). Absent on the wire = the engine
    /// default.
    pub refine_max_absorb: u64,
    /// Simulation backend: `"interpreter"`, `"scalar"`, `"batch"`, or
    /// `("wide", W)`. Absent on the wire = the default (64-lane
    /// compiled batch) — older clients keep working unchanged. Every
    /// backend yields a byte-identical outcome (`sim/compiled_agree`);
    /// the knob only trades throughput.
    pub sim_backend: WireSimBackend,
}

/// Wire form of [`SimBackend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireSimBackend {
    /// The reference event-driven interpreter.
    Interpreter,
    /// The compiled tape, one lane at a time.
    CompiledScalar,
    /// The compiled tape, 64 lanes per pass (the default).
    #[default]
    CompiledBatch,
    /// The compiled tape with a lane block of `W` words — `64 * W`
    /// stimulus vectors per pass. `W` must be in
    /// `1..=`[`MAX_LANE_BLOCK`].
    CompiledBatchWide(u8),
}

/// Wire form of [`Backend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireBackend {
    /// Explicit when in limits, SAT otherwise.
    Auto,
    /// Explicit-state only.
    Explicit,
    /// BMC with the given bound.
    Bmc(u32),
    /// k-induction with the given depth.
    KInduction(u32),
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig::from_engine(&EngineConfig::default()).expect("default config is wire-safe")
    }
}

impl WireConfig {
    /// Converts an [`EngineConfig`] into wire form. Target signal ids
    /// are *not* resolvable without a module, so this only accepts
    /// [`TargetSelection::AllOutputs`]; use [`WireConfig::with_bit_targets`]
    /// for named bit targets.
    ///
    /// # Errors
    ///
    /// Fails on directed stimulus or id-based target selections.
    pub fn from_engine(config: &EngineConfig) -> Result<Self, ProtocolError> {
        let random_cycles = match &config.stimulus {
            SeedStimulus::Random { cycles } => Some(*cycles),
            SeedStimulus::None => None,
            SeedStimulus::Directed(_) => {
                return Err(ProtocolError(
                    "directed stimulus is not representable on the wire".into(),
                ))
            }
        };
        let targets = match &config.targets {
            TargetSelection::AllOutputs => WireTargets::AllOutputs,
            _ => {
                return Err(ProtocolError(
                    "id-based targets need a module; use with_bit_targets".into(),
                ))
            }
        };
        Ok(WireConfig {
            window: config.window,
            seed: config.seed,
            random_cycles,
            max_iterations: config.max_iterations,
            backend: match config.backend {
                Backend::Auto => WireBackend::Auto,
                Backend::Explicit => WireBackend::Explicit,
                Backend::Bmc { bound } => WireBackend::Bmc(bound),
                Backend::KInduction { max_k } => WireBackend::KInduction(max_k),
            },
            unknown_assume: config.unknown == UnknownPolicy::AssumeTrue,
            targets,
            shards: match config.shards {
                ShardPolicy::Off => Some(0),
                ShardPolicy::Fixed(n) => Some(n as u32),
                ShardPolicy::PerCore => None,
            },
            record_coverage: config.record_coverage,
            temporal_horizon: config.temporal.horizon,
            refine_variants: config.refine.variants as u64,
            refine_extra_cycles: config.refine.extra_cycles,
            refine_max_absorb: config.refine.max_absorb as u64,
            sim_backend: match config.sim_backend {
                SimBackend::Interpreter => WireSimBackend::Interpreter,
                SimBackend::CompiledScalar => WireSimBackend::CompiledScalar,
                SimBackend::CompiledBatch => WireSimBackend::CompiledBatch,
                // Normalize to the width the executor will actually
                // use, so the wire form always round-trips.
                b @ SimBackend::CompiledBatchWide(_) => {
                    WireSimBackend::CompiledBatchWide(b.lane_block() as u8)
                }
            },
        })
    }

    /// Replaces the target selection with named `(signal, bit)` pairs.
    pub fn with_bit_targets(mut self, bits: Vec<(String, u32)>) -> Self {
        self.targets = WireTargets::Bits(bits);
        self
    }

    /// Resolves the wire config against a parsed module, producing the
    /// exact [`EngineConfig`] a standalone engine would run with.
    ///
    /// # Errors
    ///
    /// Fails when a named target signal does not exist in `module`.
    pub fn to_engine(&self, module: &Module) -> Result<EngineConfig, ProtocolError> {
        let targets = match &self.targets {
            WireTargets::AllOutputs => TargetSelection::AllOutputs,
            WireTargets::Bits(bits) => TargetSelection::Bits(
                bits.iter()
                    .map(|(name, bit)| {
                        module
                            .require(name)
                            .map(|sig| (sig, *bit))
                            .map_err(|_| ProtocolError(format!("unknown target signal '{name}'")))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(EngineConfig {
            window: self.window,
            seed: self.seed,
            stimulus: match self.random_cycles {
                Some(cycles) => SeedStimulus::Random { cycles },
                None => SeedStimulus::None,
            },
            max_iterations: self.max_iterations,
            backend: match self.backend {
                WireBackend::Auto => Backend::Auto,
                WireBackend::Explicit => Backend::Explicit,
                WireBackend::Bmc(bound) => Backend::Bmc { bound },
                WireBackend::KInduction(max_k) => Backend::KInduction { max_k },
            },
            unknown: if self.unknown_assume {
                UnknownPolicy::AssumeTrue
            } else {
                UnknownPolicy::LeaveOpen
            },
            targets,
            shards: match self.shards {
                Some(0) => ShardPolicy::Off,
                Some(n) => ShardPolicy::Fixed(n as usize),
                None => ShardPolicy::PerCore,
            },
            record_coverage: self.record_coverage,
            temporal: TemporalConfig {
                horizon: self.temporal_horizon,
            },
            refine: RefineConfig {
                variants: wide_usize(self.refine_variants, "refine_variants")?,
                extra_cycles: self.refine_extra_cycles,
                max_absorb: wide_usize(self.refine_max_absorb, "refine_max_absorb")?,
            },
            sim_backend: match self.sim_backend {
                WireSimBackend::Interpreter => SimBackend::Interpreter,
                WireSimBackend::CompiledScalar => SimBackend::CompiledScalar,
                WireSimBackend::CompiledBatch => SimBackend::CompiledBatch,
                WireSimBackend::CompiledBatchWide(w) => SimBackend::CompiledBatchWide(w),
            },
        })
    }

    fn to_json(&self) -> Json<'_> {
        Json::obj(vec![
            ("window", Json::UInt(self.window.into())),
            ("seed", Json::UInt(self.seed)),
            (
                "random_cycles",
                self.random_cycles.map_or(Json::Null, Json::UInt),
            ),
            ("max_iterations", Json::UInt(self.max_iterations.into())),
            (
                "backend",
                match self.backend {
                    WireBackend::Auto => Json::Str("auto".into()),
                    WireBackend::Explicit => Json::Str("explicit".into()),
                    WireBackend::Bmc(b) => {
                        Json::Arr(vec![Json::Str("bmc".into()), Json::UInt(b.into())])
                    }
                    WireBackend::KInduction(k) => {
                        Json::Arr(vec![Json::Str("kind".into()), Json::UInt(k.into())])
                    }
                },
            ),
            ("unknown_assume", Json::Bool(self.unknown_assume)),
            (
                "targets",
                match &self.targets {
                    WireTargets::AllOutputs => Json::Str("all_outputs".into()),
                    WireTargets::Bits(bits) => Json::Arr(
                        bits.iter()
                            .map(|(name, bit)| {
                                Json::Arr(vec![Json::str(name), Json::UInt((*bit).into())])
                            })
                            .collect(),
                    ),
                },
            ),
            (
                "shards",
                self.shards.map_or(Json::Null, |n| Json::UInt(n.into())),
            ),
            ("record_coverage", Json::Bool(self.record_coverage)),
            ("temporal_horizon", Json::UInt(self.temporal_horizon.into())),
            ("refine_variants", Json::UInt(self.refine_variants)),
            ("refine_extra_cycles", Json::UInt(self.refine_extra_cycles)),
            ("refine_max_absorb", Json::UInt(self.refine_max_absorb)),
            (
                "sim_backend",
                match self.sim_backend {
                    WireSimBackend::Interpreter => Json::Str("interpreter".into()),
                    WireSimBackend::CompiledScalar => Json::Str("scalar".into()),
                    WireSimBackend::CompiledBatch => Json::Str("batch".into()),
                    WireSimBackend::CompiledBatchWide(w) => {
                        Json::Arr(vec![Json::Str("wide".into()), Json::UInt(w.into())])
                    }
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let backend = match field(v, "backend")? {
            Json::Str(s) if s == "auto" => WireBackend::Auto,
            Json::Str(s) if s == "explicit" => WireBackend::Explicit,
            Json::Arr(items) => match (items.first().and_then(Json::as_str), items.get(1)) {
                (Some("bmc"), Some(b)) => WireBackend::Bmc(narrow_u32(
                    b.as_u64()
                        .ok_or_else(|| ProtocolError("bmc bound must be an integer".into()))?,
                    "bmc bound",
                )?),
                (Some("kind"), Some(k)) => WireBackend::KInduction(narrow_u32(
                    k.as_u64()
                        .ok_or_else(|| ProtocolError("kind depth must be an integer".into()))?,
                    "kind depth",
                )?),
                _ => return Err(ProtocolError("unknown backend".into())),
            },
            _ => return Err(ProtocolError("unknown backend".into())),
        };
        let targets = match field(v, "targets")? {
            Json::Str(s) if s == "all_outputs" => WireTargets::AllOutputs,
            Json::Arr(items) => WireTargets::Bits(
                items
                    .iter()
                    .map(|pair| {
                        let items = pair
                            .as_arr()
                            .ok_or_else(|| ProtocolError("target must be [name, bit]".into()))?;
                        match (
                            items.first().and_then(Json::as_str),
                            items.get(1).and_then(Json::as_u64),
                        ) {
                            (Some(name), Some(bit)) => {
                                Ok((name.to_string(), narrow_u32(bit, "target bit")?))
                            }
                            _ => Err(ProtocolError("target must be [name, bit]".into())),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            _ => return Err(ProtocolError("unknown target selection".into())),
        };
        // Absent (or null) is the pre-wide-lane wire form: default to
        // the 64-lane compiled batch, as those clients always ran.
        let sim_backend = match v.get("sim_backend") {
            None | Some(Json::Null) => WireSimBackend::CompiledBatch,
            Some(Json::Str(s)) if s == "interpreter" => WireSimBackend::Interpreter,
            Some(Json::Str(s)) if s == "scalar" => WireSimBackend::CompiledScalar,
            Some(Json::Str(s)) if s == "batch" => WireSimBackend::CompiledBatch,
            Some(Json::Arr(items)) => match (
                items.first().and_then(Json::as_str),
                items.get(1).and_then(Json::as_u64),
            ) {
                (Some("wide"), Some(w)) if (1..=MAX_LANE_BLOCK as u64).contains(&w) => {
                    WireSimBackend::CompiledBatchWide(w as u8)
                }
                (Some("wide"), Some(w)) => {
                    return Err(ProtocolError(format!(
                        "wide lane block must be 1..={MAX_LANE_BLOCK}, got {w}"
                    )))
                }
                _ => return Err(ProtocolError("unknown sim backend".into())),
            },
            _ => return Err(ProtocolError("unknown sim backend".into())),
        };
        // Older clients still send `batched`, `steal` and `racing`. The
        // last two never changed a run's artifacts and are ignored like
        // any unknown key; unbatched verification absorbed
        // counterexamples in a different order, so a request for it is
        // refused rather than silently run batched.
        if !opt_bool_field(v, "batched", true)? {
            return Err(ProtocolError(
                "field 'batched' must be true: unbatched verification was removed".into(),
            ));
        }
        Ok(WireConfig {
            window: u32_field(v, "window")?,
            seed: u64_field(v, "seed")?,
            random_cycles: match field(v, "random_cycles")? {
                Json::Null => None,
                other => Some(other.as_u64().ok_or_else(|| {
                    ProtocolError("random_cycles must be an integer or null".into())
                })?),
            },
            max_iterations: u32_field(v, "max_iterations")?,
            backend,
            unknown_assume: bool_field(v, "unknown_assume")?,
            targets,
            shards: match field(v, "shards")? {
                Json::Null => None,
                other => Some(narrow_u32(
                    other
                        .as_u64()
                        .ok_or_else(|| ProtocolError("shards must be an integer or null".into()))?,
                    "shards",
                )?),
            },
            record_coverage: bool_field(v, "record_coverage")?,
            // Absent temporal/refine knobs are the pre-observability
            // wire form: resolve to the engine defaults those clients
            // always ran with.
            temporal_horizon: narrow_u32(
                opt_u64_field(
                    v,
                    "temporal_horizon",
                    TemporalConfig::default().horizon.into(),
                )?,
                "temporal_horizon",
            )?,
            refine_variants: opt_u64_field(
                v,
                "refine_variants",
                RefineConfig::default().variants as u64,
            )?,
            refine_extra_cycles: opt_u64_field(
                v,
                "refine_extra_cycles",
                RefineConfig::default().extra_cycles,
            )?,
            refine_max_absorb: opt_u64_field(
                v,
                "refine_max_absorb",
                RefineConfig::default().max_absorb as u64,
            )?,
            sim_backend,
        })
    }
}

/// One per-iteration progress event streamed back to clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// Iteration number (0 = seed snapshot).
    pub iteration: u32,
    /// Open candidates at the start of the iteration.
    pub candidates: u64,
    /// Total proved assertions so far.
    pub proved_total: u64,
    /// Candidates refuted this iteration.
    pub refuted: u64,
    /// Input-space coverage of the proved assertions.
    pub input_space_coverage: f64,
    /// Total stimulus cycles accumulated.
    pub suite_cycles: u64,
}

impl ProgressEvent {
    /// Builds an event from an engine iteration report.
    pub fn from_report(r: &goldmine::IterationReport) -> Self {
        ProgressEvent {
            iteration: r.iteration,
            candidates: r.candidates as u64,
            proved_total: r.proved_total as u64,
            refuted: r.refuted as u64,
            input_space_coverage: r.input_space_coverage,
            suite_cycles: r.suite_cycles as u64,
        }
    }

    fn to_json(&self) -> Json<'_> {
        Json::obj(vec![
            ("iteration", Json::UInt(self.iteration.into())),
            ("candidates", Json::UInt(self.candidates)),
            ("proved_total", Json::UInt(self.proved_total)),
            ("refuted", Json::UInt(self.refuted)),
            (
                "input_space_coverage",
                Json::Float(self.input_space_coverage),
            ),
            ("suite_cycles", Json::UInt(self.suite_cycles)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        Ok(ProgressEvent {
            iteration: u32_field(v, "iteration")?,
            candidates: u64_field(v, "candidates")?,
            proved_total: u64_field(v, "proved_total")?,
            refuted: u64_field(v, "refuted")?,
            input_space_coverage: field(v, "input_space_coverage")?
                .as_f64()
                .ok_or_else(|| ProtocolError("input_space_coverage must be a number".into()))?,
            suite_cycles: u64_field(v, "suite_cycles")?,
        })
    }
}

/// The final result of a served closure job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClosureSummary {
    /// Whether every target converged.
    pub converged: bool,
    /// Counterexample iterations performed.
    pub iterations: u32,
    /// Proved assertions, rendered as LTL.
    pub assertions: Vec<String>,
    /// Total stimulus cycles in the closing suite.
    pub suite_cycles: u64,
    /// Candidates assumed true on `Unknown` verdicts.
    pub unknown_assumed: u64,
    /// The full `Debug` render of the
    /// [`goldmine::ClosureOutcome`] — byte-identical to a standalone
    /// engine run's, which is how the differential suite audits the
    /// service across the socket.
    pub outcome_debug: String,
}

impl ClosureSummary {
    /// Builds the wire summary from an engine outcome.
    pub fn from_outcome(outcome: &goldmine::ClosureOutcome, module: &Module) -> Self {
        ClosureSummary {
            converged: outcome.converged,
            iterations: outcome.iteration_count(),
            assertions: outcome
                .assertions
                .iter()
                .map(|a| a.to_ltl(module))
                .collect(),
            suite_cycles: outcome.suite.total_cycles() as u64,
            unknown_assumed: outcome.unknown_assumed as u64,
            outcome_debug: format!("{outcome:?}"),
        }
    }

    fn to_json(&self) -> Json<'_> {
        Json::obj(vec![
            ("converged", Json::Bool(self.converged)),
            ("iterations", Json::UInt(self.iterations.into())),
            (
                "assertions",
                Json::Arr(self.assertions.iter().map(|a| Json::str(a)).collect()),
            ),
            ("suite_cycles", Json::UInt(self.suite_cycles)),
            ("unknown_assumed", Json::UInt(self.unknown_assumed)),
            ("outcome_debug", Json::str(&self.outcome_debug)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        Ok(ClosureSummary {
            converged: bool_field(v, "converged")?,
            iterations: u32_field(v, "iterations")?,
            assertions: field(v, "assertions")?
                .as_arr()
                .ok_or_else(|| ProtocolError("assertions must be an array".into()))?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ProtocolError("assertion must be a string".into()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            suite_cycles: u64_field(v, "suite_cycles")?,
            unknown_assumed: u64_field(v, "unknown_assumed")?,
            outcome_debug: str_field(v, "outcome_debug")?.to_string(),
        })
    }
}

/// The lifecycle state of a served job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in a worker queue.
    Queued,
    /// A worker is running the closure loop.
    Running,
    /// Finished; a summary is available.
    Done,
    /// The engine failed; the status carries the error.
    Failed,
    /// Cancelled before or during the run.
    Cancelled,
}

impl JobState {
    /// The wire tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn from_str(s: &str) -> Result<Self, ProtocolError> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            other => return Err(ProtocolError(format!("unknown job state '{other}'"))),
        })
    }
}

/// Upper bounds of the service latency-histogram buckets, as
/// `(nanoseconds, Prometheus le-label)` pairs. Shared by every
/// [`WireHistogram`] so bucket counts stay comparable across metrics;
/// the final implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_NS: [(u64, &str); 12] = [
    (1_000_000, "0.001"),
    (2_500_000, "0.0025"),
    (5_000_000, "0.005"),
    (10_000_000, "0.01"),
    (25_000_000, "0.025"),
    (50_000_000, "0.05"),
    (100_000_000, "0.1"),
    (250_000_000, "0.25"),
    (500_000_000, "0.5"),
    (1_000_000_000, "1"),
    (2_500_000_000, "2.5"),
    (5_000_000_000, "5"),
];

/// A fixed-bucket latency histogram in wire form.
///
/// Bucket bounds are the process-wide [`LATENCY_BUCKETS_NS`]; counts
/// are stored per bucket (not cumulative) plus one overflow slot, and
/// durations sum in integer nanoseconds, so snapshots stay exactly
/// comparable (`Eq`) and render to the Prometheus cumulative-`le` form
/// on demand.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireHistogram {
    /// Per-bucket observation counts aligned with
    /// [`LATENCY_BUCKETS_NS`]; the extra final slot counts observations
    /// above every bound (the `+Inf` bucket).
    pub buckets: Vec<u64>,
    /// Sum of every observed duration, in nanoseconds.
    pub sum_ns: u64,
}

impl Default for WireHistogram {
    fn default() -> Self {
        WireHistogram {
            buckets: vec![0; LATENCY_BUCKETS_NS.len() + 1],
            sum_ns: 0,
        }
    }
}

impl WireHistogram {
    /// Records one observed duration.
    pub fn observe_ns(&mut self, ns: u64) {
        let slot = LATENCY_BUCKETS_NS
            .iter()
            .position(|&(bound, _)| ns <= bound)
            .unwrap_or(LATENCY_BUCKETS_NS.len());
        self.buckets[slot] += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Total observations (the Prometheus `_count` sample).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The observed-duration sum in seconds (the `_sum` sample).
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    fn to_json(&self) -> Json<'_> {
        Json::obj(vec![
            (
                "buckets",
                Json::Arr(self.buckets.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("sum_ns", Json::UInt(self.sum_ns)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let buckets = field(v, "buckets")?
            .as_arr()
            .ok_or_else(|| ProtocolError("histogram buckets must be an array".into()))?
            .iter()
            .map(|c| {
                c.as_u64()
                    .ok_or_else(|| ProtocolError("histogram bucket must be an integer".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if buckets.len() != LATENCY_BUCKETS_NS.len() + 1 {
            return Err(ProtocolError(format!(
                "histogram must have {} buckets, got {}",
                LATENCY_BUCKETS_NS.len() + 1,
                buckets.len()
            )));
        }
        Ok(WireHistogram {
            buckets,
            sum_ns: u64_field(v, "sum_ns")?,
        })
    }
}

/// Upper bounds of the per-job retry-count histogram buckets, as
/// `(retries, le-label)` pairs; the final implicit bucket is `+Inf`.
/// Unit-less (counts, not durations) — most jobs land in the `0`
/// bucket, and anything past the `8` bound signals a retry storm.
pub const RETRY_BUCKETS: [(u64, &str); 5] = [(0, "0"), (1, "1"), (2, "2"), (4, "4"), (8, "8")];

/// A fixed-bucket histogram over small unit-less counts (per-job
/// retries), bucketed by [`RETRY_BUCKETS`]. Same storage discipline as
/// [`WireHistogram`]: per-bucket (non-cumulative) counts plus one
/// overflow slot, integer sum, rendered to the Prometheus
/// cumulative-`le` form on demand.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCountHistogram {
    /// Per-bucket observation counts aligned with [`RETRY_BUCKETS`];
    /// the extra final slot is the `+Inf` bucket.
    pub buckets: Vec<u64>,
    /// Sum of every observed value.
    pub sum: u64,
}

impl Default for WireCountHistogram {
    fn default() -> Self {
        WireCountHistogram {
            buckets: vec![0; RETRY_BUCKETS.len() + 1],
            sum: 0,
        }
    }
}

impl WireCountHistogram {
    /// Records one observed value.
    pub fn observe(&mut self, value: u64) {
        let slot = RETRY_BUCKETS
            .iter()
            .position(|&(bound, _)| value <= bound)
            .unwrap_or(RETRY_BUCKETS.len());
        self.buckets[slot] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations (the Prometheus `_count` sample).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn to_json(&self) -> Json<'_> {
        Json::obj(vec![
            (
                "buckets",
                Json::Arr(self.buckets.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("sum", Json::UInt(self.sum)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let buckets = field(v, "buckets")?
            .as_arr()
            .ok_or_else(|| ProtocolError("histogram buckets must be an array".into()))?
            .iter()
            .map(|c| {
                c.as_u64()
                    .ok_or_else(|| ProtocolError("histogram bucket must be an integer".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if buckets.len() != RETRY_BUCKETS.len() + 1 {
            return Err(ProtocolError(format!(
                "count histogram must have {} buckets, got {}",
                RETRY_BUCKETS.len() + 1,
                buckets.len()
            )));
        }
        Ok(WireCountHistogram {
            buckets,
            sum: u64_field(v, "sum")?,
        })
    }
}

/// Aggregate service counters.
///
/// Snapshots are internally consistent — every field is read under one
/// acquisition of the service's state lock, so
/// `submitted == queued + running + completed + failed + cancelled`
/// holds in every snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs waiting in a worker queue right now (gauge).
    pub queued: u64,
    /// Jobs a worker is running right now (gauge).
    pub running: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed with an engine error.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// Jobs a worker claimed from a peer's queue.
    pub steals: u64,
    /// Design-cache entries currently resident.
    pub cache_entries: u64,
    /// Submissions whose design was already cached.
    pub cache_hits: u64,
    /// Submissions that had to build design artifacts.
    pub cache_misses: u64,
    /// Cache entries evicted for any reason (the sum of the per-reason
    /// counters below).
    pub cache_evictions: u64,
    /// Cache entries evicted by the entry-count bound.
    pub cache_evictions_capacity: u64,
    /// Cache entries evicted LRU-first by the byte budget.
    pub cache_evictions_bytes: u64,
    /// Cache entries dropped on a content-key collision.
    pub cache_evictions_collision: u64,
    /// Approximate resident bytes of the cached design artifacts.
    pub cache_bytes: u64,
    /// The cache byte budget (0 = unbounded).
    pub cache_max_bytes: u64,
    /// Compiled instruction tapes built and parked into cache entries.
    pub compiled_built: u64,
    /// Submissions that reused a parked compiled tape instead of
    /// recompiling.
    pub compiled_reused: u64,
    /// SAT solver calls across every retired job's verification work.
    pub verify_sat_queries: u64,
    /// Property checks decided by the SAT engines.
    pub verify_sat_decided: u64,
    /// Property checks decided by explicit-state reachability.
    pub verify_explicit_queries: u64,
    /// Property results served from checker memos.
    pub verify_memo_hits: u64,
    /// Time frames newly encoded into unrollings.
    pub verify_frames_encoded: u64,
    /// Frames reused from warm unrollings.
    pub verify_frames_reused: u64,
    /// Counterexamples re-extracted on canonical unrollings.
    pub verify_cex_canonicalized: u64,
    /// Queue latency: submission to worker claim, per claimed job.
    pub queue_seconds: WireHistogram,
    /// Job wall time: worker claim to terminal state, per retired job.
    pub wall_seconds: WireHistogram,
    /// Worker panics caught by the job isolation boundary
    /// (`catch_unwind`) — each one cost a retry or a typed failure,
    /// never a wedged worker.
    pub worker_panics: u64,
    /// Retry attempts scheduled for retryable job failures.
    pub jobs_retried: u64,
    /// Jobs that failed because their deadline expired.
    pub jobs_deadline_exceeded: u64,
    /// Submissions refused by admission control (queue bounds).
    pub requests_shed: u64,
    /// Dead worker threads respawned by the supervisor.
    pub workers_respawned: u64,
    /// Per-retired-job retry counts (most jobs observe 0).
    pub job_retries: WireCountHistogram,
}

impl ServeStats {
    fn to_json(&self) -> Json<'_> {
        Json::obj(vec![
            ("submitted", Json::UInt(self.submitted)),
            ("queued", Json::UInt(self.queued)),
            ("running", Json::UInt(self.running)),
            ("completed", Json::UInt(self.completed)),
            ("failed", Json::UInt(self.failed)),
            ("cancelled", Json::UInt(self.cancelled)),
            ("workers", Json::UInt(self.workers)),
            ("steals", Json::UInt(self.steals)),
            ("cache_entries", Json::UInt(self.cache_entries)),
            ("cache_hits", Json::UInt(self.cache_hits)),
            ("cache_misses", Json::UInt(self.cache_misses)),
            ("cache_evictions", Json::UInt(self.cache_evictions)),
            (
                "cache_evictions_capacity",
                Json::UInt(self.cache_evictions_capacity),
            ),
            (
                "cache_evictions_bytes",
                Json::UInt(self.cache_evictions_bytes),
            ),
            (
                "cache_evictions_collision",
                Json::UInt(self.cache_evictions_collision),
            ),
            ("cache_bytes", Json::UInt(self.cache_bytes)),
            ("cache_max_bytes", Json::UInt(self.cache_max_bytes)),
            ("compiled_built", Json::UInt(self.compiled_built)),
            ("compiled_reused", Json::UInt(self.compiled_reused)),
            ("verify_sat_queries", Json::UInt(self.verify_sat_queries)),
            ("verify_sat_decided", Json::UInt(self.verify_sat_decided)),
            (
                "verify_explicit_queries",
                Json::UInt(self.verify_explicit_queries),
            ),
            ("verify_memo_hits", Json::UInt(self.verify_memo_hits)),
            (
                "verify_frames_encoded",
                Json::UInt(self.verify_frames_encoded),
            ),
            (
                "verify_frames_reused",
                Json::UInt(self.verify_frames_reused),
            ),
            (
                "verify_cex_canonicalized",
                Json::UInt(self.verify_cex_canonicalized),
            ),
            ("queue_seconds", self.queue_seconds.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
            ("worker_panics", Json::UInt(self.worker_panics)),
            ("jobs_retried", Json::UInt(self.jobs_retried)),
            (
                "jobs_deadline_exceeded",
                Json::UInt(self.jobs_deadline_exceeded),
            ),
            ("requests_shed", Json::UInt(self.requests_shed)),
            ("workers_respawned", Json::UInt(self.workers_respawned)),
            ("job_retries", self.job_retries.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        Ok(ServeStats {
            submitted: u64_field(v, "submitted")?,
            queued: u64_field(v, "queued")?,
            running: u64_field(v, "running")?,
            completed: u64_field(v, "completed")?,
            failed: u64_field(v, "failed")?,
            cancelled: u64_field(v, "cancelled")?,
            workers: u64_field(v, "workers")?,
            steals: u64_field(v, "steals")?,
            cache_entries: u64_field(v, "cache_entries")?,
            cache_hits: u64_field(v, "cache_hits")?,
            cache_misses: u64_field(v, "cache_misses")?,
            cache_evictions: u64_field(v, "cache_evictions")?,
            cache_evictions_capacity: u64_field(v, "cache_evictions_capacity")?,
            cache_evictions_bytes: u64_field(v, "cache_evictions_bytes")?,
            cache_evictions_collision: u64_field(v, "cache_evictions_collision")?,
            cache_bytes: u64_field(v, "cache_bytes")?,
            cache_max_bytes: u64_field(v, "cache_max_bytes")?,
            compiled_built: u64_field(v, "compiled_built")?,
            compiled_reused: u64_field(v, "compiled_reused")?,
            verify_sat_queries: u64_field(v, "verify_sat_queries")?,
            verify_sat_decided: u64_field(v, "verify_sat_decided")?,
            verify_explicit_queries: u64_field(v, "verify_explicit_queries")?,
            verify_memo_hits: u64_field(v, "verify_memo_hits")?,
            verify_frames_encoded: u64_field(v, "verify_frames_encoded")?,
            verify_frames_reused: u64_field(v, "verify_frames_reused")?,
            verify_cex_canonicalized: u64_field(v, "verify_cex_canonicalized")?,
            // Absent histograms are the pre-observability wire form.
            queue_seconds: match v.get("queue_seconds") {
                None | Some(Json::Null) => WireHistogram::default(),
                Some(other) => WireHistogram::from_json(other)?,
            },
            wall_seconds: match v.get("wall_seconds") {
                None | Some(Json::Null) => WireHistogram::default(),
                Some(other) => WireHistogram::from_json(other)?,
            },
            // Absent resilience counters are the pre-fault-injection
            // wire form.
            worker_panics: opt_u64_field(v, "worker_panics", 0)?,
            jobs_retried: opt_u64_field(v, "jobs_retried", 0)?,
            jobs_deadline_exceeded: opt_u64_field(v, "jobs_deadline_exceeded", 0)?,
            requests_shed: opt_u64_field(v, "requests_shed", 0)?,
            workers_respawned: opt_u64_field(v, "workers_respawned", 0)?,
            job_retries: match v.get("job_retries") {
                None | Some(Json::Null) => WireCountHistogram::default(),
                Some(other) => WireCountHistogram::from_json(other)?,
            },
        })
    }

    /// Renders the counters in the Prometheus text exposition format —
    /// the scrapeable answer to [`Request::Metrics`]. Counters get
    /// `# TYPE … counter`, point-in-time values (`queued`, `running`,
    /// `cache_entries`, `cache_bytes`, configuration bounds) get
    /// `gauge`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut metric = |name: &str, kind: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP gmserve_{name} {help}");
            let _ = writeln!(out, "# TYPE gmserve_{name} {kind}");
            let _ = writeln!(out, "gmserve_{name} {value}");
        };
        metric(
            "jobs_submitted_total",
            "counter",
            "Jobs accepted.",
            self.submitted,
        );
        metric(
            "jobs_queued",
            "gauge",
            "Jobs waiting in a worker queue.",
            self.queued,
        );
        metric(
            "jobs_running",
            "gauge",
            "Jobs currently running.",
            self.running,
        );
        metric(
            "jobs_completed_total",
            "counter",
            "Jobs finished successfully.",
            self.completed,
        );
        metric(
            "jobs_failed_total",
            "counter",
            "Jobs failed with an engine error.",
            self.failed,
        );
        metric(
            "jobs_cancelled_total",
            "counter",
            "Jobs cancelled.",
            self.cancelled,
        );
        metric("workers", "gauge", "Worker-pool size.", self.workers);
        metric(
            "steals_total",
            "counter",
            "Jobs claimed from a peer's queue.",
            self.steals,
        );
        metric(
            "cache_entries",
            "gauge",
            "Design-cache entries resident.",
            self.cache_entries,
        );
        metric(
            "cache_hits_total",
            "counter",
            "Submissions served from the design cache.",
            self.cache_hits,
        );
        metric(
            "cache_misses_total",
            "counter",
            "Submissions that built design artifacts.",
            self.cache_misses,
        );
        metric(
            "cache_evictions_total",
            "counter",
            "Cache entries evicted, any reason.",
            self.cache_evictions,
        );
        metric(
            "cache_evictions_capacity_total",
            "counter",
            "Cache entries evicted by the entry-count bound.",
            self.cache_evictions_capacity,
        );
        metric(
            "cache_evictions_bytes_total",
            "counter",
            "Cache entries evicted by the byte budget.",
            self.cache_evictions_bytes,
        );
        metric(
            "cache_evictions_collision_total",
            "counter",
            "Cache entries dropped on a key collision.",
            self.cache_evictions_collision,
        );
        metric(
            "cache_bytes",
            "gauge",
            "Approximate resident bytes of cached artifacts.",
            self.cache_bytes,
        );
        metric(
            "cache_max_bytes",
            "gauge",
            "Cache byte budget (0 = unbounded).",
            self.cache_max_bytes,
        );
        metric(
            "compiled_built_total",
            "counter",
            "Compiled tapes built and parked.",
            self.compiled_built,
        );
        metric(
            "compiled_reused_total",
            "counter",
            "Submissions that reused a parked compiled tape.",
            self.compiled_reused,
        );
        metric(
            "verify_sat_queries_total",
            "counter",
            "SAT solver calls across retired jobs.",
            self.verify_sat_queries,
        );
        metric(
            "verify_sat_decided_total",
            "counter",
            "Property checks decided by the SAT engines.",
            self.verify_sat_decided,
        );
        metric(
            "verify_explicit_queries_total",
            "counter",
            "Property checks decided by explicit-state reachability.",
            self.verify_explicit_queries,
        );
        metric(
            "verify_memo_hits_total",
            "counter",
            "Property results served from checker memos.",
            self.verify_memo_hits,
        );
        metric(
            "verify_frames_encoded_total",
            "counter",
            "Time frames newly encoded into unrollings.",
            self.verify_frames_encoded,
        );
        metric(
            "verify_frames_reused_total",
            "counter",
            "Frames reused from warm unrollings.",
            self.verify_frames_reused,
        );
        metric(
            "verify_cex_canonicalized_total",
            "counter",
            "Counterexamples re-extracted canonically.",
            self.verify_cex_canonicalized,
        );
        metric(
            "worker_panics_total",
            "counter",
            "Worker panics caught by the job isolation boundary.",
            self.worker_panics,
        );
        metric(
            "jobs_retried_total",
            "counter",
            "Retry attempts scheduled for retryable job failures.",
            self.jobs_retried,
        );
        metric(
            "jobs_deadline_exceeded_total",
            "counter",
            "Jobs failed because their deadline expired.",
            self.jobs_deadline_exceeded,
        );
        metric(
            "requests_shed_total",
            "counter",
            "Submissions refused by admission control.",
            self.requests_shed,
        );
        metric(
            "workers_respawned_total",
            "counter",
            "Dead worker threads respawned by the supervisor.",
            self.workers_respawned,
        );
        let mut histogram = |name: &str, help: &str, h: &WireHistogram| {
            let _ = writeln!(out, "# HELP gmserve_{name} {help}");
            let _ = writeln!(out, "# TYPE gmserve_{name} histogram");
            let mut cumulative = 0u64;
            for (&(_, label), count) in LATENCY_BUCKETS_NS.iter().zip(&h.buckets) {
                cumulative += count;
                let _ = writeln!(out, "gmserve_{name}_bucket{{le=\"{label}\"}} {cumulative}");
            }
            let total = h.count();
            let _ = writeln!(out, "gmserve_{name}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "gmserve_{name}_sum {}", h.sum_seconds());
            let _ = writeln!(out, "gmserve_{name}_count {total}");
        };
        histogram(
            "job_queue_seconds",
            "Time jobs spent queued before a worker claimed them.",
            &self.queue_seconds,
        );
        histogram(
            "job_wall_seconds",
            "Job wall time from worker claim to terminal state.",
            &self.wall_seconds,
        );
        // The retry histogram buckets counts, not durations, so it
        // renders from its own bounds rather than the latency bounds.
        {
            let h = &self.job_retries;
            let _ = writeln!(
                out,
                "# HELP gmserve_job_retries Retries per retired job (0 = first attempt succeeded)."
            );
            let _ = writeln!(out, "# TYPE gmserve_job_retries histogram");
            let mut cumulative = 0u64;
            for (&(_, label), count) in RETRY_BUCKETS.iter().zip(&h.buckets) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "gmserve_job_retries_bucket{{le=\"{label}\"}} {cumulative}"
                );
            }
            let total = h.count();
            let _ = writeln!(out, "gmserve_job_retries_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "gmserve_job_retries_sum {}", h.sum);
            let _ = writeln!(out, "gmserve_job_retries_count {total}");
        }
        let _ = writeln!(
            out,
            "# HELP gmserve_build_info Build metadata; the value is always 1."
        );
        let _ = writeln!(out, "# TYPE gmserve_build_info gauge");
        let _ = writeln!(
            out,
            "gmserve_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        );
        out
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a design (Verilog source) for closure.
    Submit {
        /// A label for reports.
        name: String,
        /// The Verilog source; parsed server-side and content-hashed
        /// into the design cache.
        source: String,
        /// The run configuration.
        config: WireConfig,
        /// Capture a per-job flight recording; fetch it with
        /// [`Request::Trace`] once the job is terminal. Absent on the
        /// wire = `false` — tracing never changes the outcome
        /// (`trace_agree` proves byte-identity), only whether the
        /// recording exists.
        trace: bool,
        /// Per-job deadline in milliseconds from submission. Absent or
        /// `null` on the wire = `None`, which resolves to the server's
        /// configured default; an explicit `0` disables the deadline
        /// for this job.
        deadline_ms: Option<u64>,
    },
    /// Poll a job's lifecycle state.
    Status {
        /// The job id.
        job: u64,
    },
    /// Fetch per-iteration progress events from index `from` on.
    Progress {
        /// The job id.
        job: u64,
        /// First event index wanted (enables incremental streaming).
        from: u64,
    },
    /// Block until the job finishes and return its summary.
    Wait {
        /// The job id.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job id.
        job: u64,
    },
    /// Fetch a terminal traced job's flight recording as Chrome
    /// trace-event JSON.
    Trace {
        /// The job id.
        job: u64,
    },
    /// Fetch aggregate service counters.
    Stats,
    /// Fetch the counters rendered in the Prometheus text exposition
    /// format (the scrapeable form of [`Request::Stats`]).
    Metrics,
    /// Ask the server to shut down cleanly.
    Shutdown,
}

impl Request {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json<'_> {
        match self {
            Request::Submit {
                name,
                source,
                config,
                trace,
                deadline_ms,
            } => Json::obj(vec![
                ("type", Json::Str("submit".into())),
                ("name", Json::str(name)),
                ("source", Json::str(source)),
                ("config", config.to_json()),
                ("trace", Json::Bool(*trace)),
                ("deadline_ms", deadline_ms.map_or(Json::Null, Json::UInt)),
            ]),
            Request::Status { job } => Json::obj(vec![
                ("type", Json::Str("status".into())),
                ("job", Json::UInt(*job)),
            ]),
            Request::Progress { job, from } => Json::obj(vec![
                ("type", Json::Str("progress".into())),
                ("job", Json::UInt(*job)),
                ("from", Json::UInt(*from)),
            ]),
            Request::Wait { job } => Json::obj(vec![
                ("type", Json::Str("wait".into())),
                ("job", Json::UInt(*job)),
            ]),
            Request::Cancel { job } => Json::obj(vec![
                ("type", Json::Str("cancel".into())),
                ("job", Json::UInt(*job)),
            ]),
            Request::Trace { job } => Json::obj(vec![
                ("type", Json::Str("trace".into())),
                ("job", Json::UInt(*job)),
            ]),
            Request::Stats => Json::obj(vec![("type", Json::Str("stats".into()))]),
            Request::Metrics => Json::obj(vec![("type", Json::Str("metrics".into()))]),
            Request::Shutdown => Json::obj(vec![("type", Json::Str("shutdown".into()))]),
        }
    }

    /// Deserializes from the wire JSON.
    ///
    /// # Errors
    ///
    /// Fails on unknown tags or missing fields.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        match str_field(v, "type")? {
            "submit" => Ok(Request::Submit {
                name: str_field(v, "name")?.to_string(),
                source: str_field(v, "source")?.to_string(),
                config: WireConfig::from_json(field(v, "config")?)?,
                // Absent = untraced, the pre-observability wire form.
                trace: opt_bool_field(v, "trace", false)?,
                // Absent = server-default deadline; 0 = explicitly none.
                deadline_ms: match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(other) => Some(other.as_u64().ok_or_else(|| {
                        ProtocolError("field 'deadline_ms' must be an unsigned integer".into())
                    })?),
                },
            }),
            "status" => Ok(Request::Status {
                job: u64_field(v, "job")?,
            }),
            "progress" => Ok(Request::Progress {
                job: u64_field(v, "job")?,
                from: u64_field(v, "from")?,
            }),
            "wait" => Ok(Request::Wait {
                job: u64_field(v, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: u64_field(v, "job")?,
            }),
            "trace" => Ok(Request::Trace {
                job: u64_field(v, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError(format!("unknown request type '{other}'"))),
        }
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A submission was accepted.
    Submitted {
        /// The assigned job id.
        job: u64,
        /// Whether the design's artifacts were already cached.
        cached: bool,
    },
    /// A status poll answer.
    Status {
        /// The job id.
        job: u64,
        /// Lifecycle state.
        state: JobState,
        /// Job label.
        name: String,
        /// Progress events recorded so far.
        progress_len: u64,
        /// The engine error, for failed jobs.
        error: Option<String>,
    },
    /// A progress slice.
    Progress {
        /// The job id.
        job: u64,
        /// Index of the first event in `events`.
        from: u64,
        /// The events.
        events: Vec<ProgressEvent>,
        /// Whether the job has reached a terminal state (no more events
        /// will follow).
        terminal: bool,
    },
    /// A finished job's summary (answer to `Wait`, or to `Status` once
    /// done if the client asks again — `Wait` is the blocking form).
    Done {
        /// The job id.
        job: u64,
        /// The result.
        summary: ClosureSummary,
    },
    /// A terminal traced job's flight recording.
    Trace {
        /// The job id.
        job: u64,
        /// Chrome trace-event JSON (load in Perfetto or
        /// `chrome://tracing`).
        trace: String,
    },
    /// Aggregate counters. Boxed: the stats block (histograms included)
    /// dwarfs every other variant.
    Stats(Box<ServeStats>),
    /// The counters in the Prometheus text exposition format.
    Metrics {
        /// The rendered metrics page.
        text: String,
    },
    /// The server acknowledges a shutdown request.
    ShuttingDown,
    /// Admission control refused a submission: the queue bound was hit.
    /// A typed response (not a generic `Error`) so clients can
    /// distinguish "back off and resubmit" from a request that will
    /// never succeed.
    Overloaded {
        /// Jobs queued at refusal time.
        queued: u64,
        /// The configured bound that was hit (depth or bytes, whichever
        /// tripped).
        limit: u64,
    },
    /// Any failure: unknown job, parse error, engine error, cancelled
    /// wait.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json<'_> {
        match self {
            Response::Submitted { job, cached } => Json::obj(vec![
                ("type", Json::Str("submitted".into())),
                ("job", Json::UInt(*job)),
                ("cached", Json::Bool(*cached)),
            ]),
            Response::Status {
                job,
                state,
                name,
                progress_len,
                error,
            } => Json::obj(vec![
                ("type", Json::Str("status".into())),
                ("job", Json::UInt(*job)),
                ("state", Json::str(state.as_str())),
                ("name", Json::str(name)),
                ("progress_len", Json::UInt(*progress_len)),
                ("error", error.as_deref().map_or(Json::Null, Json::str)),
            ]),
            Response::Progress {
                job,
                from,
                events,
                terminal,
            } => Json::obj(vec![
                ("type", Json::Str("progress".into())),
                ("job", Json::UInt(*job)),
                ("from", Json::UInt(*from)),
                (
                    "events",
                    Json::Arr(events.iter().map(ProgressEvent::to_json).collect()),
                ),
                ("terminal", Json::Bool(*terminal)),
            ]),
            Response::Done { job, summary } => Json::obj(vec![
                ("type", Json::Str("done".into())),
                ("job", Json::UInt(*job)),
                ("summary", summary.to_json()),
            ]),
            Response::Trace { job, trace } => Json::obj(vec![
                ("type", Json::Str("trace".into())),
                ("job", Json::UInt(*job)),
                ("trace", Json::str(trace)),
            ]),
            Response::Stats(stats) => Json::obj(vec![
                ("type", Json::Str("stats".into())),
                ("stats", stats.to_json()),
            ]),
            Response::Metrics { text } => Json::obj(vec![
                ("type", Json::Str("metrics".into())),
                ("text", Json::str(text)),
            ]),
            Response::ShuttingDown => Json::obj(vec![("type", Json::Str("shutting_down".into()))]),
            Response::Overloaded { queued, limit } => Json::obj(vec![
                ("type", Json::Str("overloaded".into())),
                ("queued", Json::UInt(*queued)),
                ("limit", Json::UInt(*limit)),
            ]),
            Response::Error { message } => Json::obj(vec![
                ("type", Json::Str("error".into())),
                ("message", Json::str(message)),
            ]),
        }
    }

    /// Deserializes from the wire JSON.
    ///
    /// # Errors
    ///
    /// Fails on unknown tags or missing fields.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        match str_field(v, "type")? {
            "submitted" => Ok(Response::Submitted {
                job: u64_field(v, "job")?,
                cached: bool_field(v, "cached")?,
            }),
            "status" => Ok(Response::Status {
                job: u64_field(v, "job")?,
                state: JobState::from_str(str_field(v, "state")?)?,
                name: str_field(v, "name")?.to_string(),
                progress_len: u64_field(v, "progress_len")?,
                error: match field(v, "error")? {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_str()
                            .ok_or_else(|| ProtocolError("error must be a string".into()))?
                            .to_string(),
                    ),
                },
            }),
            "progress" => Ok(Response::Progress {
                job: u64_field(v, "job")?,
                from: u64_field(v, "from")?,
                events: field(v, "events")?
                    .as_arr()
                    .ok_or_else(|| ProtocolError("events must be an array".into()))?
                    .iter()
                    .map(ProgressEvent::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
                terminal: bool_field(v, "terminal")?,
            }),
            "done" => Ok(Response::Done {
                job: u64_field(v, "job")?,
                summary: ClosureSummary::from_json(field(v, "summary")?)?,
            }),
            "trace" => Ok(Response::Trace {
                job: u64_field(v, "job")?,
                trace: str_field(v, "trace")?.to_string(),
            }),
            "stats" => Ok(Response::Stats(Box::new(ServeStats::from_json(field(
                v, "stats",
            )?)?))),
            "metrics" => Ok(Response::Metrics {
                text: str_field(v, "text")?.to_string(),
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "overloaded" => Ok(Response::Overloaded {
                queued: u64_field(v, "queued")?,
                limit: u64_field(v, "limit")?,
            }),
            "error" => Ok(Response::Error {
                message: str_field(v, "message")?.to_string(),
            }),
            other => Err(ProtocolError(format!("unknown response type '{other}'"))),
        }
    }
}

/// Appends UTF-8 text to a byte buffer.
struct Utf8Sink<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Utf8Sink<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

fn invalid_data(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Capacity a connection's frame buffer may keep between frames. A
/// larger frame (a flight recording, a big design) still goes through,
/// but [`release_oversized`] frees its buffer before the connection
/// goes back to waiting, so an idle connection never pins it.
const RETAINED_FRAME_BYTES: usize = 1 << 20;

fn release_oversized(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_FRAME_BYTES {
        *buf = Vec::new();
    }
}

/// Payload bytes a reader commits to per step: a peer that announces a
/// huge frame and then stalls pins this much, not the announced length.
const READ_STEP_BYTES: usize = 1 << 20;

/// Encodes one frame — 4 bytes big-endian payload length, then the JSON
/// bytes — into `buf`, replacing its contents. The payload is
/// serialized straight into the buffer, which connections keep across
/// frames, so a steady stream of frames allocates nothing here.
///
/// # Errors
///
/// Fails when the payload exceeds [`MAX_FRAME_BYTES`].
pub(crate) fn encode_frame(buf: &mut Vec<u8>, payload: &Json<'_>) -> io::Result<()> {
    let mut span = gm_trace::span("serve", "serve.encode");
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    payload
        .write_to(&mut Utf8Sink(buf))
        .expect("writing to a Vec cannot fail");
    let len = u32::try_from(buf.len() - 4)
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| invalid_data("frame too large"))?;
    buf[..4].copy_from_slice(&len.to_be_bytes());
    if span.is_active() {
        span.arg("bytes", u64::from(len));
    }
    Ok(())
}

/// Decodes one frame's payload: a single UTF-8 validation of the whole
/// payload, then a parse that borrows from it.
///
/// # Errors
///
/// Fails on invalid UTF-8 or malformed JSON.
fn decode_payload(payload: &[u8]) -> io::Result<Json<'_>> {
    let mut span = gm_trace::span("serve", "serve.decode");
    if span.is_active() {
        span.arg("bytes", payload.len() as u64);
    }
    let text = std::str::from_utf8(payload).map_err(invalid_data)?;
    json::parse(text).map_err(invalid_data)
}

/// Writes one frame with a single `write_all`; `buf` is the
/// connection's frame buffer, reused across frames.
///
/// # Errors
///
/// Propagates encode and I/O failures.
pub fn write_frame(w: &mut impl Write, buf: &mut Vec<u8>, payload: &Json<'_>) -> io::Result<()> {
    encode_frame(buf, payload)?;
    w.write_all(buf)?;
    release_oversized(buf);
    w.flush()
}

/// Reads one frame into `buf` (the connection's decode buffer, reused
/// across frames) and decodes it. `fill(dst, at_boundary)` is the
/// transport: it fills `dst` completely and returns `true`, or returns
/// `false` for a clean end of the stream, which it may only do when
/// `at_boundary` (before the first byte of a frame). Returns `None` on
/// such a clean end.
///
/// # Errors
///
/// Fails on oversized lengths, streams that end mid-frame, invalid
/// UTF-8 or malformed JSON, and propagates `fill`'s failures.
pub(crate) fn read_frame_with<'b>(
    buf: &'b mut Vec<u8>,
    mut fill: impl FnMut(&mut [u8], bool) -> io::Result<bool>,
) -> io::Result<Option<Json<'b>>> {
    release_oversized(buf);
    let mut len_bytes = [0u8; 4];
    if !fill(&mut len_bytes, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(invalid_data(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES} byte cap"
        )));
    }
    let len = len as usize;
    buf.clear();
    while buf.len() < len {
        let filled = buf.len();
        buf.resize(len.min(filled + READ_STEP_BYTES), 0);
        if !fill(&mut buf[filled..], false)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
    }
    decode_payload(buf).map(Some)
}

/// Reads one length-prefixed frame from a blocking reader into `buf`
/// (the connection's frame buffer, reused across frames) and decodes
/// it; the value borrows from `buf`. Returns `None` on a clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// Fails on truncated frames, oversized lengths, invalid UTF-8 or
/// malformed JSON.
pub fn read_frame<'b>(r: &mut impl Read, buf: &'b mut Vec<u8>) -> io::Result<Option<Json<'b>>> {
    read_frame_with(buf, |dst, at_boundary| match r.read_exact(dst) {
        Ok(()) => Ok(true),
        Err(e) if at_boundary && e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let json = req.to_json();
        assert_eq!(Request::from_json(&json).unwrap(), req);
        // And through the framing.
        let (mut wire, mut buf) = (Vec::new(), Vec::new());
        write_frame(&mut wire, &mut buf, &json).unwrap();
        let back = read_frame(&mut wire.as_slice(), &mut buf).unwrap().unwrap();
        assert_eq!(Request::from_json(&back).unwrap(), req);
    }

    #[test]
    fn requests_round_trip_through_frames() {
        round_trip_request(Request::Submit {
            name: "arbiter2".into(),
            source: "module m(input a, output y);\n  assign y = a;\nendmodule".into(),
            config: WireConfig::default().with_bit_targets(vec![("gnt0".into(), 0)]),
            trace: false,
            deadline_ms: None,
        });
        for sim_backend in [
            WireSimBackend::Interpreter,
            WireSimBackend::CompiledScalar,
            WireSimBackend::CompiledBatch,
            WireSimBackend::CompiledBatchWide(4),
        ] {
            round_trip_request(Request::Submit {
                name: "arbiter2".into(),
                source: "module m(input a, output y); assign y = a; endmodule".into(),
                config: WireConfig {
                    sim_backend,
                    ..WireConfig::default()
                },
                trace: false,
                deadline_ms: None,
            });
        }
        // A traced submission with the temporal/refine knobs engaged.
        round_trip_request(Request::Submit {
            name: "b09".into(),
            source: "module m(input a, output y); assign y = a; endmodule".into(),
            config: WireConfig {
                temporal_horizon: 3,
                refine_variants: 8,
                refine_extra_cycles: 24,
                refine_max_absorb: 4,
                ..WireConfig::default()
            },
            trace: true,
            deadline_ms: Some(30_000),
        });
        // An explicit 0 (deadline disabled) survives the wire distinct
        // from absent (server default).
        round_trip_request(Request::Submit {
            name: "nodeadline".into(),
            source: "module m(input a, output y); assign y = a; endmodule".into(),
            config: WireConfig::default(),
            trace: false,
            deadline_ms: Some(0),
        });
        round_trip_request(Request::Status { job: 7 });
        round_trip_request(Request::Progress { job: 7, from: 3 });
        round_trip_request(Request::Wait { job: u64::MAX });
        round_trip_request(Request::Cancel { job: 0 });
        round_trip_request(Request::Trace { job: 12 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Submitted {
                job: 3,
                cached: true,
            },
            Response::Status {
                job: 3,
                state: JobState::Running,
                name: "b09".into(),
                progress_len: 4,
                error: None,
            },
            Response::Progress {
                job: 3,
                from: 1,
                events: vec![ProgressEvent {
                    iteration: 1,
                    candidates: 12,
                    proved_total: 5,
                    refuted: 2,
                    input_space_coverage: 0.625,
                    suite_cycles: 96,
                }],
                terminal: false,
            },
            Response::Done {
                job: 3,
                summary: ClosureSummary {
                    converged: true,
                    iterations: 4,
                    assertions: vec!["req0 => X gnt0".into()],
                    suite_cycles: 128,
                    unknown_assumed: 0,
                    outcome_debug: "ClosureOutcome { .. }".into(),
                },
            },
            Response::Stats(Box::new(ServeStats {
                submitted: 9,
                queued: 1,
                running: 2,
                workers: 4,
                steals: 2,
                cache_hits: 5,
                cache_evictions_bytes: 3,
                compiled_reused: 4,
                verify_sat_queries: 17,
                queue_seconds: {
                    let mut h = WireHistogram::default();
                    h.observe_ns(40_000);
                    h.observe_ns(7_000_000);
                    h
                },
                wall_seconds: {
                    let mut h = WireHistogram::default();
                    h.observe_ns(800_000_000);
                    h.observe_ns(90_000_000_000);
                    h
                },
                ..ServeStats::default()
            })),
            Response::Trace {
                job: 3,
                trace: "{\"traceEvents\":[]}".into(),
            },
            Response::Metrics {
                text: ServeStats::default().to_prometheus(),
            },
            Response::ShuttingDown,
            Response::Overloaded {
                queued: 64,
                limit: 64,
            },
            Response::Error {
                message: "unknown job 99".into(),
            },
        ] {
            assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn prometheus_rendering_exposes_every_counter_with_a_type_line() {
        let stats = ServeStats {
            submitted: 7,
            queued: 1,
            running: 2,
            completed: 3,
            cancelled: 1,
            cache_bytes: 4096,
            ..ServeStats::default()
        };
        let text = stats.to_prometheus();
        assert!(text.contains("# TYPE gmserve_jobs_submitted_total counter"));
        assert!(text.contains("gmserve_jobs_submitted_total 7"));
        assert!(text.contains("# TYPE gmserve_jobs_queued gauge"));
        assert!(text.contains("gmserve_jobs_queued 1"));
        assert!(text.contains("gmserve_jobs_running 2"));
        assert!(text.contains("gmserve_cache_bytes 4096"));
        assert!(text.contains("# TYPE gmserve_build_info gauge"));
        assert!(text.contains(&format!(
            "gmserve_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        // Every sample line names a gmserve_ metric (optionally with a
        // {label="…"} set) and parses as `name value`, with the value a
        // finite number — the shape a promtool-style lint accepts.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample is `name value`");
            assert!(name.starts_with("gmserve_"), "bad metric line: {line}");
            if let Some(open) = name.find('{') {
                assert!(name.ends_with('}'), "unterminated label set: {line}");
                assert!(name[open + 1..].contains('='), "empty label set: {line}");
            }
            assert!(
                value.parse::<f64>().unwrap().is_finite(),
                "bad sample value: {line}"
            );
        }
        // Exactly one TYPE line per metric family.
        let mut families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let total = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), total, "duplicate TYPE lines");
    }

    #[test]
    fn prometheus_histograms_render_cumulative_le_buckets() {
        let mut stats = ServeStats::default();
        stats.queue_seconds.observe_ns(500_000); // ≤ 0.001s
        stats.queue_seconds.observe_ns(2_000_000); // ≤ 0.0025s
        stats.queue_seconds.observe_ns(90_000_000_000); // overflow
        let text = stats.to_prometheus();
        assert!(text.contains("# TYPE gmserve_job_queue_seconds histogram"));
        assert!(text.contains("gmserve_job_queue_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("gmserve_job_queue_seconds_bucket{le=\"0.0025\"} 2"));
        // Cumulative counts carry through every later bound.
        assert!(text.contains("gmserve_job_queue_seconds_bucket{le=\"5\"} 2"));
        assert!(text.contains("gmserve_job_queue_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("gmserve_job_queue_seconds_count 3"));
        assert!(text.contains("gmserve_job_queue_seconds_sum 90.0025"));
        // The untouched histogram still renders a full (empty) family.
        assert!(text.contains("gmserve_job_wall_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("gmserve_job_wall_seconds_count 0"));
    }

    #[test]
    fn serve_stats_histograms_round_trip_and_tolerate_absence() {
        let mut stats = ServeStats {
            submitted: 2,
            completed: 2,
            ..ServeStats::default()
        };
        stats.queue_seconds.observe_ns(1_500_000);
        stats.wall_seconds.observe_ns(3_000_000_000);
        let back = ServeStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
        // Pre-observability stats frames carry no histograms; they
        // resolve to empty ones, not an error.
        let mut json = stats.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "queue_seconds" && k != "wall_seconds");
        }
        let old = ServeStats::from_json(&json).unwrap();
        assert_eq!(old.queue_seconds, WireHistogram::default());
        assert_eq!(old.wall_seconds, WireHistogram::default());
        assert_eq!(old.submitted, 2);
    }

    #[test]
    fn resilience_counters_round_trip_and_tolerate_absence() {
        let mut stats = ServeStats {
            worker_panics: 3,
            jobs_retried: 5,
            jobs_deadline_exceeded: 1,
            requests_shed: 7,
            workers_respawned: 2,
            ..ServeStats::default()
        };
        stats.job_retries.observe(0);
        stats.job_retries.observe(2);
        stats.job_retries.observe(11); // overflow bucket
        let back = ServeStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
        // Pre-fault-injection stats frames carry none of the resilience
        // fields; they resolve to zeros, not an error.
        let mut json = stats.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| {
                !matches!(
                    &**k,
                    "worker_panics"
                        | "jobs_retried"
                        | "jobs_deadline_exceeded"
                        | "requests_shed"
                        | "workers_respawned"
                        | "job_retries"
                )
            });
        }
        let old = ServeStats::from_json(&json).unwrap();
        assert_eq!(old.worker_panics, 0);
        assert_eq!(old.requests_shed, 0);
        assert_eq!(old.job_retries, WireCountHistogram::default());
    }

    #[test]
    fn prometheus_renders_the_resilience_family_with_retry_buckets() {
        let mut stats = ServeStats {
            worker_panics: 2,
            jobs_retried: 4,
            jobs_deadline_exceeded: 1,
            requests_shed: 3,
            workers_respawned: 1,
            ..ServeStats::default()
        };
        stats.job_retries.observe(0);
        stats.job_retries.observe(0);
        stats.job_retries.observe(3); // lands in the le="4" bucket
        let text = stats.to_prometheus();
        assert!(text.contains("# TYPE gmserve_worker_panics_total counter"));
        assert!(text.contains("gmserve_worker_panics_total 2"));
        assert!(text.contains("gmserve_jobs_retried_total 4"));
        assert!(text.contains("gmserve_jobs_deadline_exceeded_total 1"));
        assert!(text.contains("gmserve_requests_shed_total 3"));
        assert!(text.contains("gmserve_workers_respawned_total 1"));
        assert!(text.contains("# TYPE gmserve_job_retries histogram"));
        assert!(text.contains("gmserve_job_retries_bucket{le=\"0\"} 2"));
        assert!(text.contains("gmserve_job_retries_bucket{le=\"2\"} 2"));
        assert!(text.contains("gmserve_job_retries_bucket{le=\"4\"} 3"));
        assert!(text.contains("gmserve_job_retries_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("gmserve_job_retries_sum 3"));
        assert!(text.contains("gmserve_job_retries_count 3"));
    }

    #[test]
    fn temporal_and_refine_knobs_absent_from_the_wire_default_off() {
        // Pre-observability clients never sent the knobs; their frames
        // must resolve to the engine defaults they always ran with.
        let default = WireConfig::default();
        let mut json = default.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| !k.starts_with("temporal_") && !k.starts_with("refine_"));
        }
        let back = WireConfig::from_json(&json).unwrap();
        assert_eq!(back, WireConfig::default());
        let m =
            gm_rtl::parse_verilog("module m(input a, output y); assign y = a; endmodule").unwrap();
        let engine = back.to_engine(&m).unwrap();
        assert_eq!(engine.temporal, TemporalConfig::default());
        assert_eq!(engine.refine, RefineConfig::default());
        // And a submit frame without the trace flag is untraced.
        let req = Json::obj(vec![
            ("type", Json::Str("submit".into())),
            ("name", Json::Str("m".into())),
            ("source", Json::Str("module m; endmodule".into())),
            ("config", default.to_json()),
        ]);
        match Request::from_json(&req).unwrap() {
            Request::Submit {
                trace, deadline_ms, ..
            } => {
                assert!(!trace);
                assert_eq!(
                    deadline_ms, None,
                    "absent deadline resolves to the server default"
                );
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn wire_temporal_and_refine_knobs_reach_the_engine_config() {
        let m =
            gm_rtl::parse_verilog("module m(input a, output y); assign y = a; endmodule").unwrap();
        let wire = WireConfig {
            temporal_horizon: 2,
            refine_variants: 6,
            refine_extra_cycles: 32,
            refine_max_absorb: 3,
            record_coverage: true,
            ..WireConfig::default()
        };
        let engine = wire.to_engine(&m).unwrap();
        assert_eq!(engine.temporal.horizon, 2);
        assert_eq!(engine.refine.variants, 6);
        assert_eq!(engine.refine.extra_cycles, 32);
        assert_eq!(engine.refine.max_absorb, 3);
        // And the round trip through from_engine preserves them.
        assert_eq!(WireConfig::from_engine(&engine).unwrap(), wire);
    }

    #[test]
    fn wire_config_resolves_to_the_standalone_engine_config() {
        let m = gm_rtl::parse_verilog(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk) if (rst) q <= 0; else q <= d;
             endmodule",
        )
        .unwrap();
        let wire = WireConfig::default().with_bit_targets(vec![("q".into(), 0)]);
        let engine = wire.to_engine(&m).unwrap();
        let q = m.require("q").unwrap();
        assert_eq!(engine.targets, TargetSelection::Bits(vec![(q, 0)]));
        assert_eq!(engine.seed, EngineConfig::default().seed);
        // Unknown signal names are rejected, not silently dropped.
        let bad = WireConfig::default().with_bit_targets(vec![("nope".into(), 0)]);
        assert!(bad.to_engine(&m).is_err());
    }

    #[test]
    fn sim_backend_absent_from_the_wire_defaults_to_batch() {
        // Pre-wide-lane clients never sent the field; their frames must
        // keep resolving to the backend they always ran (the default
        // 64-lane batch), not error out.
        let default = WireConfig::default();
        let mut json = default.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "sim_backend");
        }
        let back = WireConfig::from_json(&json).unwrap();
        assert_eq!(back.sim_backend, WireSimBackend::CompiledBatch);
        assert_eq!(back, WireConfig::default());
        // Out-of-range lane blocks are rejected loudly.
        let wide = |w: u64| {
            let mut json = default.to_json();
            if let Json::Obj(fields) = &mut json {
                for (k, v) in fields.iter_mut() {
                    if k == "sim_backend" {
                        *v = Json::Arr(vec![Json::Str("wide".into()), Json::UInt(w)]);
                    }
                }
            }
            WireConfig::from_json(&json)
        };
        assert_eq!(
            wide(8).unwrap().sim_backend,
            WireSimBackend::CompiledBatchWide(8)
        );
        assert!(wide(0).is_err());
        assert!(wide(9).is_err());
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let (mut wire, mut buf) = (Vec::new(), Vec::new());
        write_frame(&mut wire, &mut buf, &Json::UInt(1)).unwrap();
        wire.truncate(wire.len() - 1);
        assert!(read_frame(&mut wire.as_slice(), &mut buf).is_err());
        let huge = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        assert!(read_frame(&mut huge.as_slice(), &mut buf).is_err());
        // Clean EOF at a boundary is not an error.
        assert_eq!(read_frame(&mut [].as_slice(), &mut buf).unwrap(), None);
    }

    /// The golden `Submit` frame (see
    /// `encoded_frames_match_the_golden_bytes`).
    const SUBMIT: &[u8] = b"\x00\x00\x01\xb3{\"type\":\"submit\",\"name\":\"arbiter2\",\"source\":\"module m(input a, output y);\\n  assign y = a; // \\\"q\\\" \\\\ \\t\xcf\x80\\nendmodule\",\"config\":{\"window\":1,\"seed\":12648430,\"random_cycles\":64,\"max_iterations\":64,\"backend\":\"auto\",\"unknown_assume\":true,\"targets\":[[\"gnt0\",0]],\"shards\":0,\"record_coverage\":true,\"temporal_horizon\":0,\"refine_variants\":0,\"refine_extra_cycles\":16,\"refine_max_absorb\":2,\"sim_backend\":\"batch\"},\"trace\":true,\"deadline_ms\":1500}";

    /// "Wire bytes unchanged" is checked, not assumed: these frames were
    /// captured from the pre-rewrite codec (char-by-char writer, cloned
    /// `Json` tree). They pin key order, number forms and every escape
    /// the writer emits, multi-byte UTF-8 included.
    #[test]
    fn encoded_frames_match_the_golden_bytes() {
        const DONE: &[u8] = b"\x00\x00\x00\xdc{\"type\":\"done\",\"job\":3,\"summary\":{\"converged\":true,\"iterations\":4,\"assertions\":[\"req0 => X gnt0\",\"a \\\"b\\\"\"],\"suite_cycles\":128,\"unknown_assumed\":0,\"outcome_debug\":\"ClosureOutcome { name: \\\"s0\\\", cov: 0.625 }\\n\\u0001\xc3\xa9\"}}";
        let submit = Request::Submit {
            name: "arbiter2".into(),
            source: "module m(input a, output y);\n  assign y = a; // \"q\" \\ \tπ\nendmodule"
                .into(),
            config: WireConfig::default().with_bit_targets(vec![("gnt0".into(), 0)]),
            trace: true,
            deadline_ms: Some(1500),
        };
        let done = Response::Done {
            job: 3,
            summary: ClosureSummary {
                converged: true,
                iterations: 4,
                assertions: vec!["req0 => X gnt0".into(), "a \"b\"".into()],
                suite_cycles: 128,
                unknown_assumed: 0,
                outcome_debug: "ClosureOutcome { name: \"s0\", cov: 0.625 }\n\u{1}é".into(),
            },
        };
        let mut buf = Vec::new();
        encode_frame(&mut buf, &submit.to_json()).unwrap();
        assert_eq!(
            buf.escape_ascii().to_string(),
            SUBMIT.escape_ascii().to_string()
        );
        // The same buffer, reused: nothing of the longer frame is left.
        encode_frame(&mut buf, &done.to_json()).unwrap();
        assert_eq!(
            buf.escape_ascii().to_string(),
            DONE.escape_ascii().to_string()
        );
        // `to_string` is the same serializer.
        assert_eq!(done.to_json().to_string().as_bytes(), &DONE[4..]);
        // And the golden bytes decode to the messages.
        let frame = read_frame(&mut &SUBMIT[..], &mut buf).unwrap().unwrap();
        assert_eq!(Request::from_json(&frame).unwrap(), submit);
        let frame = read_frame(&mut &DONE[..], &mut buf).unwrap().unwrap();
        assert_eq!(Response::from_json(&frame).unwrap(), done);
    }

    /// The golden `Submit` payload as clients sent it while `WireConfig`
    /// still had its three dispatch keys, at their old key positions.
    fn legacy_submit(batched: bool, steal: bool, racing: bool) -> String {
        let text = std::str::from_utf8(&SUBMIT[4..]).unwrap();
        let legacy = text.replace(
            "\"shards\":0,",
            &format!("\"batched\":{batched},\"shards\":0,\"steal\":{steal},\"racing\":{racing},"),
        );
        assert_ne!(legacy, text);
        legacy
    }

    #[test]
    fn legacy_dispatch_keys_decode_to_the_same_config() {
        let text = std::str::from_utf8(&SUBMIT[4..]).unwrap();
        let golden = Request::from_json(&crate::json::parse(text).unwrap()).unwrap();
        // `steal` and `racing` never changed a run's artifacts: ignored
        // whatever they carry.
        for (steal, racing) in [(false, false), (true, true)] {
            let legacy = legacy_submit(true, steal, racing);
            let decoded = Request::from_json(&crate::json::parse(&legacy).unwrap()).unwrap();
            assert_eq!(decoded, golden);
        }
    }

    #[test]
    fn a_request_for_unbatched_verification_is_a_typed_error() {
        let unbatched = legacy_submit(false, false, false);
        let err = Request::from_json(&crate::json::parse(&unbatched).unwrap()).unwrap_err();
        assert!(err.0.contains("'batched'"), "{}", err.0);
    }
}
