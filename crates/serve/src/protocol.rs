//! The closure-service wire protocol.
//!
//! [`Request`] / [`Response`] types carried as JSON over a
//! length-prefixed framing that works identically in-process (any
//! `Read`/`Write` pair) and across a Unix-domain socket: each frame is
//! a 4-byte big-endian payload length followed by that many bytes of
//! UTF-8 JSON, written and parsed by the hand-written [`crate::json`]
//! codec — the only codec there is. There is one framing
//! implementation — `encode_frame` going out, `read_frame_with` +
//! `decode_payload` coming in — under the blocking client
//! ([`write_frame`] / [`read_frame`]), the server's interruptible
//! reader and the torn-frame fault path alike, and it works in a buffer
//! the connection keeps across frames.
//!
//! Each message and config is declared once: its keys in wire order,
//! each optional key with the value older clients imply. The
//! `wire_struct!` and `wire_enum!` declarations generate both
//! directions of its codec from that list, so a key is never spelled
//! twice and every decode refusal names its key.
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
use std::io::{self, Read, Write};

/// Largest accepted frame payload (a design source plus a full outcome
/// debug render fits comfortably).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

// Bounds on the sizes a [`WireConfig`] carries. Each of these fields
// sizes an allocation, or a loop that runs before the job first polls
// its cancel token, so a value from the wire could otherwise exhaust
// memory — which aborts the whole daemon, past `catch_unwind`,
// deadlines and retries alike. [`WireConfig::to_engine`] refuses
// anything above them. Every bound is at least 16× the largest value
// any test, example or benchmark workload sends.

/// Largest accepted [`WireConfig::window`]: the miner builds
/// `(window + 1) × cone bits` features per target before the run
/// starts (catalog windows are at most 1).
pub const MAX_WINDOW: u64 = 64;

/// Largest accepted [`WireConfig::random_cycles`]: every seed cycle is
/// materialised as an input vector before the first one is simulated
/// (seeds in use are at most 64 cycles).
pub const MAX_RANDOM_CYCLES: u64 = 1 << 16;

/// Largest accepted [`WireConfig::shards`]: the checker fills its pool
/// with this many unrolling sessions before it decides a property.
pub const MAX_SHARDS: u64 = 64;

/// Largest accepted [`WireConfig::temporal_horizon`]: candidate
/// proposal scans every shift up to the horizon, per tree leaf, without
/// a cancel poll.
pub const MAX_TEMPORAL_HORIZON: u64 = 64;

/// Largest accepted [`WireConfig::refine_variants`]: a refinement pass
/// writes this many stimulus variants per counterexample prefix before
/// its first cancel poll.
pub const MAX_REFINE_VARIANTS: u64 = 256;

/// Largest accepted [`WireConfig::refine_extra_cycles`]: the length of
/// the random suffix written into the lanes of every one of those
/// variants.
/// ([`WireConfig::refine_max_absorb`] needs no bound: it only truncates
/// the ranked variant list.)
pub const MAX_REFINE_EXTRA_CYCLES: u64 = 4096;

/// A protocol-level failure: malformed frames, unknown message tags,
/// unresolvable signal names, sizes above their wire bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// A value with a wire form. Every message is built from these: a
/// struct's codec is its field list (`wire_struct!`), a message
/// enum's is one row per variant (`wire_enum!`), and only the field
/// types below spell out a JSON shape.
trait Wire: Sized {
    /// The JSON form, borrowing the value's strings.
    fn encode(&self) -> Json<'_>;

    /// Reads the value stored under `key`; every refusal names `key`.
    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError>;
}

/// The uniform decode refusal: `field '<key>' must be <what>`.
fn expected(key: &str, what: &str) -> ProtocolError {
    ProtocolError(format!("field '{key}' must be {what}"))
}

fn field<'a, 'j>(v: &'a Json<'j>, key: &str) -> Result<&'a Json<'j>, ProtocolError> {
    v.get(key)
        .ok_or_else(|| ProtocolError(format!("missing field '{key}'")))
}

/// An optional field: absent or `null` reads as `None`. The wire
/// back-compat shape for keys added after the first protocol version —
/// older clients never send them and must keep resolving to the
/// behavior they always had.
fn opt_field<'a, 'j>(v: &'a Json<'j>, key: &str) -> Option<&'a Json<'j>> {
    v.get(key).filter(|value| !matches!(value, Json::Null))
}

/// Decodes the key `key` of the object `v`, which must be present.
fn required<T: Wire>(v: &Json, key: &str) -> Result<T, ProtocolError> {
    T::decode(field(v, key)?, key)
}

/// Decodes an optional key (see [`opt_field`]): absent or `null`, it
/// reads as `default`.
fn optional<T: Wire>(v: &Json, key: &str, default: impl FnOnce() -> T) -> Result<T, ProtocolError> {
    opt_field(v, key).map_or_else(|| Ok(default()), |value| T::decode(value, key))
}

/// Refuses a value under `key` that is not an object.
fn object(v: &Json, key: &str) -> Result<(), ProtocolError> {
    let is_object = matches!(v, Json::Obj(_));
    is_object
        .then_some(())
        .ok_or_else(|| expected(key, "an object"))
}

/// The parts of a `[tag, value]` pair.
fn pair<'a, 'j>(v: &'a Json<'j>) -> Option<(Option<&'a str>, &'a Json<'j>)> {
    match v.as_arr()? {
        [tag, value, ..] => Some((tag.as_str(), value)),
        _ => None,
    }
}

fn tagged(tag: &'static str, n: u64) -> Json<'static> {
    Json::Arr(vec![Json::str(tag), Json::UInt(n)])
}

impl Wire for u64 {
    fn encode(&self) -> Json<'_> {
        Json::UInt(*self)
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_u64()
            .ok_or_else(|| expected(key, "an unsigned integer"))
    }
}

impl Wire for u32 {
    fn encode(&self) -> Json<'_> {
        Json::UInt((*self).into())
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        u32::try_from(u64::decode(v, key)?).map_err(|_| expected(key, "below 2^32"))
    }
}

impl Wire for bool {
    fn encode(&self) -> Json<'_> {
        Json::Bool(*self)
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_bool().ok_or_else(|| expected(key, "a boolean"))
    }
}

impl Wire for f64 {
    fn encode(&self) -> Json<'_> {
        Json::Float(*self)
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_f64().ok_or_else(|| expected(key, "a number"))
    }
}

impl Wire for String {
    fn encode(&self) -> Json<'_> {
        Json::str(self)
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected(key, "a string"))
    }
}

/// `null` is `None`.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Json<'_> {
        self.as_ref().map_or(Json::Null, T::encode)
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        match v {
            Json::Null => Ok(None),
            value => T::decode(value, key).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Json<'_> {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_arr()
            .ok_or_else(|| expected(key, "an array"))?
            .iter()
            .map(|item| T::decode(item, key))
            .collect()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self) -> Json<'_> {
        (**self).encode()
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        T::decode(v, key).map(Box::new)
    }
}

/// Declares a struct's wire codec: its fields in key order, each
/// `field` required and each `field = default` optional (absent or
/// `null`, it reads as `default` — what clients that predate the key
/// always ran with). `checked by f` runs `f` on the object first.
macro_rules! wire_struct {
    ($ty:ident $(checked by $check:ident)? {
        $($field:ident $(= $default:expr)?),* $(,)?
    }) => {
        impl Wire for $ty {
            fn encode(&self) -> Json<'_> {
                Json::obj(vec![$((stringify!($field), self.$field.encode()),)*])
            }

            fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
                object(v, key)?;
                $($check(v)?;)?
                Ok($ty {
                    $($field: wire_field!(v, $field $(= $default)?),)*
                })
            }
        }
    };
}

/// Declares a message enum's wire codec, one row per variant: its
/// `"type"` tag, then its fields in key order as in `wire_struct!`
/// (a unit variant has none: `Variant {}`). Generates the public
/// `to_json` and `from_json`.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident { $($field:ident $(= $default:expr)?),* }),* $(,)?
    }) => {
        impl $ty {
            /// Serializes to the wire JSON.
            pub fn to_json(&self) -> Json<'_> {
                match self {
                    $($ty::$variant { $($field),* } => Json::obj(vec![
                        ("type", Json::str($tag)),
                        $((stringify!($field), $field.encode()),)*
                    ]),)*
                }
            }

            /// Deserializes from the wire JSON.
            ///
            /// # Errors
            ///
            /// Fails on unknown tags, missing fields and values of the
            /// wrong shape, naming the key.
            pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
                match field(v, "type")?.as_str() {
                    $(Some($tag) => Ok($ty::$variant {
                        $($field: wire_field!(v, $field $(= $default)?),)*
                    }),)*
                    _ => Err(expected("type", concat!("a ", $what, " type"))),
                }
            }
        }
    };
}

/// Decodes one declared field of the object `v`.
macro_rules! wire_field {
    ($v:ident, $field:ident) => {
        required($v, stringify!($field))?
    };
    ($v:ident, $field:ident = $default:expr) => {
        optional($v, stringify!($field), || $default)?
    };
}

fn wide_usize(value: u64, what: &str) -> Result<usize, ProtocolError> {
    usize::try_from(value)
        .map_err(|_| ProtocolError(format!("{what} exceeds the platform word size")))
}

/// Refuses a wire-supplied size above its bound (see
/// [`MAX_WINDOW`] and the constants after it).
fn bounded<T: Copy + Into<u64>>(key: &str, value: T, max: u64) -> Result<T, ProtocolError> {
    let size: u64 = value.into();
    if size > max {
        return Err(ProtocolError(format!(
            "field '{key}' is {size}, above its bound of {max}"
        )));
    }
    Ok(value)
}

/// Mining-target selection by signal *name* (wire form of
/// [`TargetSelection`]).
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct WireConfig {
    /// Mining window length, at most [`MAX_WINDOW`].
    pub window: u32,
    /// RNG seed for random stimulus.
    pub seed: u64,
    /// Random seed cycles, at most [`MAX_RANDOM_CYCLES`]; `None` =
    /// the zero-pattern limit study.
    pub random_cycles: Option<u64>,
    /// Iteration budget.
    pub max_iterations: u32,
    /// Model-checking backend; on the wire `"auto"`, `"explicit"`,
    /// `["bmc", bound]` or `["kind", max_k]`.
    pub backend: Backend,
    /// Whether `Unknown` verdicts are assumed true.
    pub unknown_assume: bool,
    /// Target selection.
    pub targets: WireTargets,
    /// Shard sessions: 0 = off, `n` = fixed (at most
    /// [`MAX_SHARDS`]), `None` = per-core.
    pub shards: Option<u32>,
    /// Record per-iteration coverage.
    pub record_coverage: bool,
    /// Temporal-mining lookahead horizon (the wire form of
    /// [`TemporalConfig::horizon`]), at most
    /// [`MAX_TEMPORAL_HORIZON`]; `0` disables temporal mining.
    /// Absent on the wire = `0` — pre-temporal clients keep the
    /// behavior they always had.
    pub temporal_horizon: u32,
    /// Directed variants synthesized per counterexample prefix
    /// ([`RefineConfig::variants`]), at most
    /// [`MAX_REFINE_VARIANTS`]; `0` disables the refinement pass.
    /// Absent on the wire = `0`.
    pub refine_variants: u64,
    /// Random data-input cycles appended after each replayed prefix
    /// ([`RefineConfig::extra_cycles`]), at most
    /// [`MAX_REFINE_EXTRA_CYCLES`]. Absent on the wire = the
    /// engine default.
    pub refine_extra_cycles: u64,
    /// Top-ranked directed segments absorbed per iteration
    /// ([`RefineConfig::max_absorb`]). Absent on the wire = the engine
    /// default.
    pub refine_max_absorb: u64,
    /// Simulation backend; on the wire `"interpreter"`, `"batch"` (the
    /// 64-lane compiled batch) or `["wide", W]` for lane blocks of up to
    /// `W` words, `W` in `1..=`[`MAX_LANE_BLOCK`]. A block is the widest
    /// a replay may use: each replay narrows it to the lane groups its
    /// segments fill. Absent on the wire = `"batch"`, the wire's default
    /// since before wide blocks existed, and the `"scalar"` older
    /// clients may still send (a one-vector executor of the same tape,
    /// since removed) is read as `"batch"` — both keep working
    /// unchanged. The engine's own default is wider,
    /// `CompiledBatch(`[`MAX_LANE_BLOCK`]`)`: a client sends
    /// `["wide", 8]` to get it, as [`WireConfig::default`] (the wire form
    /// of [`EngineConfig::default`]) does. Every backend yields a
    /// byte-identical outcome (`sim/compiled_agree`); the knob only
    /// trades throughput.
    pub sim_backend: SimBackend,
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
    /// Fails on directed stimulus, id-based target selections, and a
    /// fixed shard count above [`MAX_SHARDS`].
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
            backend: config.backend,
            unknown_assume: config.unknown == UnknownPolicy::AssumeTrue,
            targets,
            shards: match config.shards {
                ShardPolicy::Off => Some(0),
                ShardPolicy::Fixed(n) => Some(bounded("shards", n as u64, MAX_SHARDS)? as u32),
                ShardPolicy::PerCore => None,
            },
            record_coverage: config.record_coverage,
            temporal_horizon: config.temporal.horizon,
            refine_variants: config.refine.variants as u64,
            refine_extra_cycles: config.refine.extra_cycles,
            refine_max_absorb: config.refine.max_absorb as u64,
            sim_backend: config.sim_backend,
        })
    }

    /// Replaces the target selection with named `(signal, bit)` pairs.
    pub fn with_bit_targets(mut self, bits: Vec<(String, u32)>) -> Self {
        self.targets = WireTargets::Bits(bits);
        self
    }

    /// Resolves the wire config against a parsed module, producing the
    /// exact [`EngineConfig`] a standalone engine would run with. Every
    /// wire config passes through here before an engine sees it, so
    /// this is where the size bounds are enforced.
    ///
    /// # Errors
    ///
    /// Fails when a size is above its bound ([`MAX_WINDOW`] and
    /// the constants after it), a named target signal does not exist
    /// in `module`, or a target bit is not below its signal's width.
    pub fn to_engine(&self, module: &Module) -> Result<EngineConfig, ProtocolError> {
        let targets = match &self.targets {
            WireTargets::AllOutputs => TargetSelection::AllOutputs,
            WireTargets::Bits(bits) => TargetSelection::Bits(
                bits.iter()
                    .map(|(name, bit)| {
                        let sig = module.require(name).map_err(|_| {
                            ProtocolError(format!("unknown target signal '{name}'"))
                        })?;
                        let width = module.signal_width(sig);
                        if *bit >= width {
                            return Err(ProtocolError(format!(
                                "target bit {bit} of '{name}' is out of range: \
                                 the signal is {width} bits wide"
                            )));
                        }
                        Ok((sig, *bit))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(EngineConfig {
            window: bounded("window", self.window, MAX_WINDOW)?,
            seed: self.seed,
            stimulus: match self.random_cycles {
                Some(cycles) => SeedStimulus::Random {
                    cycles: bounded("random_cycles", cycles, MAX_RANDOM_CYCLES)?,
                },
                None => SeedStimulus::None,
            },
            max_iterations: self.max_iterations,
            backend: self.backend,
            unknown: if self.unknown_assume {
                UnknownPolicy::AssumeTrue
            } else {
                UnknownPolicy::LeaveOpen
            },
            targets,
            shards: match self.shards {
                Some(0) => ShardPolicy::Off,
                Some(n) => ShardPolicy::Fixed(bounded("shards", n, MAX_SHARDS)? as usize),
                None => ShardPolicy::PerCore,
            },
            record_coverage: self.record_coverage,
            temporal: TemporalConfig {
                horizon: bounded(
                    "temporal_horizon",
                    self.temporal_horizon,
                    MAX_TEMPORAL_HORIZON,
                )?,
            },
            refine: RefineConfig {
                variants: wide_usize(
                    bounded("refine_variants", self.refine_variants, MAX_REFINE_VARIANTS)?,
                    "refine_variants",
                )?,
                extra_cycles: bounded(
                    "refine_extra_cycles",
                    self.refine_extra_cycles,
                    MAX_REFINE_EXTRA_CYCLES,
                )?,
                max_absorb: wide_usize(self.refine_max_absorb, "refine_max_absorb")?,
            },
            sim_backend: self.sim_backend,
        })
    }
}

/// `"auto"`, `"explicit"`, `["bmc", bound]` or `["kind", max_k]`.
impl Wire for Backend {
    fn encode(&self) -> Json<'_> {
        match *self {
            Backend::Auto => Json::str("auto"),
            Backend::Explicit => Json::str("explicit"),
            Backend::Bmc { bound } => tagged("bmc", bound.into()),
            Backend::KInduction { max_k } => tagged("kind", max_k.into()),
        }
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        match (v.as_str(), pair(v)) {
            (Some("auto"), _) => Ok(Backend::Auto),
            (Some("explicit"), _) => Ok(Backend::Explicit),
            (_, Some((Some("bmc"), bound))) => Ok(Backend::Bmc {
                bound: u32::decode(bound, key)?,
            }),
            (_, Some((Some("kind"), max_k))) => Ok(Backend::KInduction {
                max_k: u32::decode(max_k, key)?,
            }),
            _ => Err(expected(
                key,
                "auto, explicit, [bmc, bound] or [kind, max_k]",
            )),
        }
    }
}

/// `"all_outputs"` or a list of `[name, bit]` pairs.
impl Wire for WireTargets {
    fn encode(&self) -> Json<'_> {
        match self {
            WireTargets::AllOutputs => Json::str("all_outputs"),
            WireTargets::Bits(bits) => Json::Arr(
                bits.iter()
                    .map(|(name, bit)| Json::Arr(vec![name.encode(), bit.encode()]))
                    .collect(),
            ),
        }
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        const SHAPE: &str = "all_outputs or a list of [name, bit] pairs";
        if v.as_str() == Some("all_outputs") {
            return Ok(WireTargets::AllOutputs);
        }
        let bits = v.as_arr().ok_or_else(|| expected(key, SHAPE))?;
        bits.iter()
            .map(|target| match pair(target) {
                Some((Some(name), bit)) => Ok((name.to_string(), u32::decode(bit, key)?)),
                _ => Err(expected(key, SHAPE)),
            })
            .collect::<Result<_, _>>()
            .map(WireTargets::Bits)
    }
}

/// `"interpreter"`, `"batch"` or `["wide", W]`.
impl Wire for SimBackend {
    fn encode(&self) -> Json<'_> {
        // By the width the executor will actually use, so every block
        // the wire writes is one it also accepts.
        match (self, self.lane_block()) {
            (SimBackend::Interpreter, _) => Json::str("interpreter"),
            (SimBackend::CompiledBatch(_), 1) => Json::str("batch"),
            (SimBackend::CompiledBatch(_), w) => tagged("wide", w as u64),
        }
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        match (v.as_str(), pair(v)) {
            (Some("interpreter"), _) => Ok(SimBackend::Interpreter),
            // `"scalar"` only ever chose how byte-identical traces were
            // computed: accepted and ignored, never written.
            (Some("batch" | "scalar"), _) => Ok(SimBackend::CompiledBatch(1)),
            (_, Some((Some("wide"), w))) => match u64::decode(w, key)? {
                w if (1..=MAX_LANE_BLOCK as u64).contains(&w) => {
                    Ok(SimBackend::CompiledBatch(w as u8))
                }
                w => Err(ProtocolError(format!(
                    "wide lane block must be 1..={MAX_LANE_BLOCK}, got {w}"
                ))),
            },
            _ => Err(expected(key, "interpreter, batch or [wide, W]")),
        }
    }
}

/// Older clients still send `batched`, `steal` and `racing`. The last
/// two never changed a run's artifacts and are ignored like any unknown
/// key; unbatched verification absorbed counterexamples in a different
/// order, so a request for it is refused rather than silently run
/// batched.
fn refuse_unbatched(v: &Json) -> Result<(), ProtocolError> {
    let refusal = "field 'batched' must be true: unbatched verification was removed";
    let batched = optional(v, "batched", || true)?;
    batched
        .then_some(())
        .ok_or_else(|| ProtocolError(refusal.into()))
}

// Keys added after the first protocol version default to what those
// clients always ran: no temporal mining, the engine's refinement
// defaults and the 64-lane compiled batch.
wire_struct! {
    WireConfig checked by refuse_unbatched {
        window, seed, random_cycles, max_iterations, backend, unknown_assume, targets, shards,
        record_coverage,
        temporal_horizon = TemporalConfig::default().horizon,
        refine_variants = RefineConfig::default().variants as u64,
        refine_extra_cycles = RefineConfig::default().extra_cycles,
        refine_max_absorb = RefineConfig::default().max_absorb as u64,
        sim_backend = SimBackend::CompiledBatch(1),
    }
}

/// One per-iteration progress event streamed back to clients.
#[derive(Clone, Debug, PartialEq)]
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
}

wire_struct! {
    ProgressEvent {
        iteration, candidates, proved_total, refuted, input_space_coverage, suite_cycles,
    }
}

/// The final result of a served closure job.
#[derive(Clone, Debug, PartialEq)]
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
}

wire_struct! {
    ClosureSummary {
        converged, iterations, assertions, suite_cycles, unknown_assumed, outcome_debug,
    }
}

/// The lifecycle state of a served job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
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
}

impl Wire for JobState {
    fn encode(&self) -> Json<'_> {
        Json::str(self.as_str())
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        use JobState::*;
        [Queued, Running, Done, Failed, Cancelled]
            .into_iter()
            .find(|state| v.as_str() == Some(state.as_str()))
            .ok_or_else(|| expected(key, "a job state"))
    }
}

/// Upper bounds of the service latency-histogram buckets, as
/// `(nanoseconds, Prometheus le-label)` pairs. Shared by every latency
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

/// Upper bounds of the per-job retry-count histogram buckets, as
/// `(retries, le-label)` pairs; the final implicit bucket is `+Inf`.
/// Unit-less (counts, not durations) — most jobs land in the `0`
/// bucket, and anything past the `8` bound signals a retry storm.
pub const RETRY_BUCKETS: [(u64, &str); 5] = [(0, "0"), (1, "1"), (2, "2"), (4, "4"), (8, "8")];

/// A fixed-bucket histogram in wire form, over one of the process-wide
/// bucket tables: [`LATENCY_BUCKETS_NS`] for durations,
/// [`RETRY_BUCKETS`] for small unit-less counts.
///
/// Counts are stored per bucket (not cumulative) plus one overflow
/// slot, and observations sum in integers, so snapshots stay exactly
/// comparable (`Eq`) and render to the Prometheus cumulative-`le` form
/// on demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHistogram {
    /// Per-bucket observation counts aligned with the bucket table; the
    /// extra final slot counts observations above every bound (the
    /// `+Inf` bucket).
    pub buckets: Vec<u64>,
    /// Sum of every observed value, in the table's unit (nanoseconds
    /// under [`LATENCY_BUCKETS_NS`]).
    pub sum: u64,
    /// The bucket table: `(upper bound, le-label)` pairs.
    bounds: &'static [(u64, &'static str)],
}

impl WireHistogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &'static [(u64, &'static str)]) -> Self {
        WireHistogram {
            buckets: vec![0; bounds.len() + 1],
            sum: 0,
            bounds,
        }
    }

    /// Records one observed value.
    pub fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&(bound, _)| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[slot] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations (the Prometheus `_count` sample).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The sum of a latency histogram in seconds (its `_sum` sample).
    pub fn sum_seconds(&self) -> f64 {
        self.sum as f64 / 1e9
    }

    fn to_json(&self, sum_key: &'static str) -> Json<'_> {
        Json::obj(vec![
            ("buckets", self.buckets.encode()),
            (sum_key, self.sum.encode()),
        ])
    }

    /// Replaces the counts with the ones `v`, stored under `key`,
    /// carries; the bucket table stays, and `v` must match its length.
    fn read_json(&mut self, v: &Json, key: &str, sum_key: &str) -> Result<(), ProtocolError> {
        object(v, key)?;
        let buckets: Vec<u64> = required(v, "buckets")?;
        if buckets.len() != self.buckets.len() {
            let shape = format!("{} counts, got {}", self.buckets.len(), buckets.len());
            return Err(expected("buckets", &shape));
        }
        self.buckets = buckets;
        self.sum = required(v, sum_key)?;
        Ok(())
    }
}

/// One [`ServeStats`] field, classified as its table row says.
enum Stat<S, H> {
    /// A monotonic total.
    Counter(S),
    /// A point-in-time value or a configuration bound.
    Gauge(S),
    /// A histogram, with the wire key of its sum and how many sum units
    /// make one unit of the rendered `_sum` sample (1e9: nanoseconds
    /// rendered as seconds; 1: counts).
    Histogram(H, &'static str, f64),
}

/// The columns every row of the [`ServeStats`] table has.
struct StatRow {
    /// The field's name, which is also its wire key.
    key: &'static str,
    /// The Prometheus family name, after the `gmserve_` prefix.
    family: &'static str,
    /// Whether a stats frame without the key is malformed. Keys added
    /// after the first protocol version are not: absent or `null`, they
    /// read as zero (an empty histogram).
    required: bool,
    /// The `# HELP` text.
    help: &'static str,
}

/// Declares [`ServeStats`] from its table, one row per counter:
///
/// ```text
/// /// doc comment
/// field: type [= empty value] => Kind[(kind columns)], required | optional, "family", "help";
/// ```
///
/// and generates the struct, its `Default`, the shared columns as
/// [`STAT_ROWS`], and `fields` / `fields_mut`, which hand out every
/// field as a [`Stat`] in table order. The wire codec and the metrics
/// page are loops over those; nothing else names a field.
macro_rules! serve_stats {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty $(= $empty:expr)? => $kind:ident $(($($column:expr),+))?,
        $presence:ident, $family:literal, $help:literal;
    )*) => {
        /// Aggregate service counters.
        ///
        /// Snapshots are internally consistent — every field is read
        /// under one acquisition of the service's state lock, so
        /// `submitted == queued + running + completed + failed + cancelled`
        /// holds in every snapshot.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct ServeStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Default for ServeStats {
            fn default() -> Self {
                ServeStats {
                    $($field: serve_stats!(@empty $($empty)?),)*
                }
            }
        }

        /// The shared columns of the [`ServeStats`] table, in table
        /// order — which is the JSON key order.
        const STAT_ROWS: &[StatRow] = &[$(StatRow {
            key: stringify!($field),
            family: $family,
            required: serve_stats!(@required $presence),
            help: $help,
        },)*];

        impl ServeStats {
            /// Every field, in table order (zip with [`STAT_ROWS`]).
            fn fields(&self) -> [Stat<&u64, &WireHistogram>; STAT_ROWS.len()] {
                [$(Stat::$kind(&self.$field $($(, $column)+)?),)*]
            }

            /// [`ServeStats::fields`], mutably.
            fn fields_mut(&mut self) -> [Stat<&mut u64, &mut WireHistogram>; STAT_ROWS.len()] {
                [$(Stat::$kind(&mut self.$field $($(, $column)+)?),)*]
            }
        }
    };
    (@empty) => { 0 };
    (@empty $empty:expr) => { $empty };
    (@required required) => { true };
    (@required optional) => { false };
}

// Table order is the JSON key order; the metrics page renders the
// scalars in table order, then the histograms in table order. To add a
// counter, add its row here and increment the field where the event
// happens (`service.rs` accumulates straight into a `ServeStats`).
serve_stats! {
    /// Jobs accepted.
    submitted: u64 => Counter, required, "jobs_submitted_total", "Jobs accepted.";
    /// Jobs waiting in the queue right now (gauge).
    queued: u64 => Gauge, required, "jobs_queued", "Jobs waiting in a worker queue.";
    /// Jobs a worker is running right now (gauge).
    running: u64 => Gauge, required, "jobs_running", "Jobs currently running.";
    /// Jobs finished successfully.
    completed: u64 => Counter, required, "jobs_completed_total", "Jobs finished successfully.";
    /// Jobs that failed with an engine error.
    failed: u64 => Counter, required, "jobs_failed_total", "Jobs failed with an engine error.";
    /// Jobs cancelled.
    cancelled: u64 => Counter, required, "jobs_cancelled_total", "Jobs cancelled.";
    /// Worker-pool size.
    workers: u64 => Gauge, required, "workers", "Worker-pool size.";
    /// Always 0 since the workers claim from one queue: there is no
    /// peer's queue to steal from. Kept because clients read the key.
    steals: u64 => Counter, required,
        "steals_total", "Always 0 since one queue: jobs claimed from a peer's queue.";
    /// Design-cache entries currently resident.
    cache_entries: u64 => Gauge, required, "cache_entries", "Design-cache entries resident.";
    /// Submissions whose design was already cached.
    cache_hits: u64 => Counter, required,
        "cache_hits_total", "Submissions served from the design cache.";
    /// Submissions that had to build design artifacts.
    cache_misses: u64 => Counter, required,
        "cache_misses_total", "Submissions that built design artifacts.";
    /// Cache entries evicted for any reason (the sum of the per-reason
    /// counters below).
    cache_evictions: u64 => Counter, required,
        "cache_evictions_total", "Cache entries evicted, any reason.";
    /// Cache entries evicted by the entry-count bound.
    cache_evictions_capacity: u64 => Counter, required,
        "cache_evictions_capacity_total", "Cache entries evicted by the entry-count bound.";
    /// Cache entries evicted LRU-first by the byte budget.
    cache_evictions_bytes: u64 => Counter, required,
        "cache_evictions_bytes_total", "Cache entries evicted by the byte budget.";
    /// Cache entries dropped on a content-key collision.
    cache_evictions_collision: u64 => Counter, required,
        "cache_evictions_collision_total", "Cache entries dropped on a key collision.";
    /// Approximate resident bytes of the cached design artifacts.
    cache_bytes: u64 => Gauge, required,
        "cache_bytes", "Approximate resident bytes of cached artifacts.";
    /// The cache byte budget (0 = unbounded).
    cache_max_bytes: u64 => Gauge, required,
        "cache_max_bytes", "Cache byte budget (0 = unbounded).";
    /// Compiled instruction tapes built and parked into cache entries.
    compiled_built: u64 => Counter, required,
        "compiled_built_total", "Compiled tapes built and parked.";
    /// Submissions that reused a parked compiled tape instead of
    /// recompiling.
    compiled_reused: u64 => Counter, required,
        "compiled_reused_total", "Submissions that reused a parked compiled tape.";
    /// SAT solver calls across every retired job's verification work.
    verify_sat_queries: u64 => Counter, required,
        "verify_sat_queries_total", "SAT solver calls across retired jobs.";
    /// Property checks decided by the SAT engines.
    verify_sat_decided: u64 => Counter, required,
        "verify_sat_decided_total", "Property checks decided by the SAT engines.";
    /// Property checks decided by explicit-state reachability.
    verify_explicit_queries: u64 => Counter, required,
        "verify_explicit_queries_total", "Property checks decided by explicit-state reachability.";
    /// In-batch duplicate properties that took an earlier position's
    /// verdict.
    verify_memo_hits: u64 => Counter, required,
        "verify_memo_hits_total", "In-batch duplicate properties decided once.";
    /// Time frames newly encoded into unrollings.
    verify_frames_encoded: u64 => Counter, required,
        "verify_frames_encoded_total", "Time frames newly encoded into unrollings.";
    /// Frames reused from warm unrollings.
    verify_frames_reused: u64 => Counter, required,
        "verify_frames_reused_total", "Frames reused from warm unrollings.";
    /// Counterexamples re-extracted on canonical unrollings.
    verify_cex_canonicalized: u64 => Counter, required,
        "verify_cex_canonicalized_total", "Counterexamples re-extracted canonically.";
    /// Queue latency: submission to worker claim, per claimed job —
    /// cancelled-while-queued jobs never waited a full queue turn and
    /// are not sampled. Optional on the wire, as is `wall_seconds`:
    /// pre-observability frames carry neither.
    queue_seconds: WireHistogram = WireHistogram::new(&LATENCY_BUCKETS_NS)
        => Histogram("sum_ns", 1e9), optional,
        "job_queue_seconds", "Time jobs spent queued before a worker claimed them.";
    /// Job wall time: worker claim to terminal state, per retired job.
    wall_seconds: WireHistogram = WireHistogram::new(&LATENCY_BUCKETS_NS)
        => Histogram("sum_ns", 1e9), optional,
        "job_wall_seconds", "Job wall time from worker claim to terminal state.";
    /// Worker panics caught by the job isolation boundary
    /// (`catch_unwind`) — each one cost a retry or a typed failure,
    /// never a wedged worker. Optional on the wire, as are the four
    /// counters and the histogram after it: pre-fault-injection frames
    /// carry none of them.
    worker_panics: u64 => Counter, optional,
        "worker_panics_total", "Worker panics caught by the job isolation boundary.";
    /// Retry attempts scheduled for retryable job failures.
    jobs_retried: u64 => Counter, optional,
        "jobs_retried_total", "Retry attempts scheduled for retryable job failures.";
    /// Jobs that failed because their deadline expired.
    jobs_deadline_exceeded: u64 => Counter, optional,
        "jobs_deadline_exceeded_total", "Jobs failed because their deadline expired.";
    /// Submissions refused by admission control (queue bounds).
    requests_shed: u64 => Counter, optional,
        "requests_shed_total", "Submissions refused by admission control.";
    /// Dead worker threads respawned by the supervisor.
    workers_respawned: u64 => Counter, optional,
        "workers_respawned_total", "Dead worker threads respawned by the supervisor.";
    /// Per-retired-job retry counts (most jobs observe 0).
    job_retries: WireHistogram = WireHistogram::new(&RETRY_BUCKETS)
        => Histogram("sum", 1.0), optional,
        "job_retries", "Retries per retired job (0 = first attempt succeeded).";
}

/// Every row of the table, in table order.
impl Wire for ServeStats {
    fn encode(&self) -> Json<'_> {
        let pairs = STAT_ROWS.iter().zip(self.fields()).map(|(row, stat)| {
            let value = match stat {
                Stat::Counter(n) | Stat::Gauge(n) => n.encode(),
                Stat::Histogram(h, sum_key, _) => h.to_json(sum_key),
            };
            (row.key, value)
        });
        Json::obj(pairs.collect())
    }

    fn decode(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        object(v, key)?;
        let mut stats = ServeStats::default();
        for (row, stat) in STAT_ROWS.iter().zip(stats.fields_mut()) {
            if !row.required && opt_field(v, row.key).is_none() {
                continue;
            }
            match stat {
                Stat::Counter(n) | Stat::Gauge(n) => *n = required(v, row.key)?,
                Stat::Histogram(h, sum_key, _) => {
                    h.read_json(field(v, row.key)?, row.key, sum_key)?
                }
            }
        }
        Ok(stats)
    }
}

impl ServeStats {
    /// Renders the counters in the Prometheus text exposition format —
    /// the scrapeable answer to [`Request::Metrics`]. Every table row
    /// is one `gmserve_*` family with its `# HELP` and `# TYPE` lines:
    /// the scalars first, then the histograms in the cumulative-`le`
    /// form, then `gmserve_build_info`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let head = |out: &mut String, row: &StatRow, kind: &str| {
            let _ = writeln!(out, "# HELP gmserve_{} {}", row.family, row.help);
            let _ = writeln!(out, "# TYPE gmserve_{} {kind}", row.family);
        };
        for (row, stat) in STAT_ROWS.iter().zip(self.fields()) {
            let (kind, value) = match stat {
                Stat::Counter(n) => ("counter", n),
                Stat::Gauge(n) => ("gauge", n),
                Stat::Histogram(..) => continue,
            };
            head(&mut out, row, kind);
            let _ = writeln!(out, "gmserve_{} {value}", row.family);
        }
        for (row, stat) in STAT_ROWS.iter().zip(self.fields()) {
            let Stat::Histogram(h, _, sum_per_unit) = stat else {
                continue;
            };
            head(&mut out, row, "histogram");
            let name = row.family;
            let mut cumulative = 0u64;
            for (&(_, label), count) in h.bounds.iter().zip(&h.buckets) {
                cumulative += count;
                let _ = writeln!(out, "gmserve_{name}_bucket{{le=\"{label}\"}} {cumulative}");
            }
            let total = h.count();
            let _ = writeln!(out, "gmserve_{name}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "gmserve_{name}_sum {}", h.sum as f64 / sum_per_unit);
            let _ = writeln!(out, "gmserve_{name}_count {total}");
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
#[derive(Clone, Debug, PartialEq)]
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

wire_enum! {
    Request, "request" {
        "submit" => Submit { name, source, config, trace = false, deadline_ms = None },
        "status" => Status { job },
        "progress" => Progress { job, from },
        "wait" => Wait { job },
        "cancel" => Cancel { job },
        "trace" => Trace { job },
        "stats" => Stats {},
        "metrics" => Metrics {},
        "shutdown" => Shutdown {},
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
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
    /// Aggregate counters.
    Stats {
        /// The counters. Boxed: the stats block (histograms included)
        /// dwarfs every other variant.
        stats: Box<ServeStats>,
    },
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

wire_enum! {
    Response, "response" {
        "submitted" => Submitted { job, cached },
        "status" => Status { job, state, name, progress_len, error },
        "progress" => Progress { job, from, events, terminal },
        "done" => Done { job, summary },
        "trace" => Trace { job, trace },
        "stats" => Stats { stats },
        "metrics" => Metrics { text },
        "shutting_down" => ShuttingDown {},
        "overloaded" => Overloaded { queued, limit },
        "error" => Error { message },
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
    use proptest::prelude::*;

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
            SimBackend::Interpreter,
            SimBackend::CompiledBatch(1),
            SimBackend::CompiledBatch(4),
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
            Response::Stats {
                stats: Box::new(ServeStats {
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
                        let mut h = WireHistogram::new(&LATENCY_BUCKETS_NS);
                        h.observe(40_000);
                        h.observe(7_000_000);
                        h
                    },
                    wall_seconds: {
                        let mut h = WireHistogram::new(&LATENCY_BUCKETS_NS);
                        h.observe(800_000_000);
                        h.observe(90_000_000_000);
                        h
                    },
                    ..ServeStats::default()
                }),
            },
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
        stats.queue_seconds.observe(500_000); // ≤ 0.001s
        stats.queue_seconds.observe(2_000_000); // ≤ 0.0025s
        stats.queue_seconds.observe(90_000_000_000); // overflow
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
        stats.queue_seconds.observe(1_500_000);
        stats.wall_seconds.observe(3_000_000_000);
        let back = ServeStats::decode(&stats.encode(), "stats").unwrap();
        assert_eq!(back, stats);
        // Pre-observability stats frames carry no histograms; they
        // resolve to empty ones, not an error.
        let mut json = stats.encode();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "queue_seconds" && k != "wall_seconds");
        }
        let old = ServeStats::decode(&json, "stats").unwrap();
        assert_eq!(old.queue_seconds, WireHistogram::new(&LATENCY_BUCKETS_NS));
        assert_eq!(old.wall_seconds, WireHistogram::new(&LATENCY_BUCKETS_NS));
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
        let back = ServeStats::decode(&stats.encode(), "stats").unwrap();
        assert_eq!(back, stats);
        // Pre-fault-injection stats frames carry none of the resilience
        // fields; they resolve to zeros, not an error.
        let mut json = stats.encode();
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
        let old = ServeStats::decode(&json, "stats").unwrap();
        assert_eq!(old.worker_panics, 0);
        assert_eq!(old.requests_shed, 0);
        assert_eq!(old.job_retries, WireHistogram::new(&RETRY_BUCKETS));
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

    /// Driven by the table, so a row added to it is covered without
    /// touching this test.
    #[test]
    fn the_stats_table_covers_the_frame_and_the_page() {
        let stats = golden_stats();
        let json = stats.encode();
        let Json::Obj(fields) = &json else {
            panic!("stats encode to an object");
        };
        // The frame's keys are the table's keys, each once, in order.
        let keys: Vec<&str> = fields.iter().map(|(k, _)| &**k).collect();
        let table: Vec<&str> = STAT_ROWS.iter().map(|row| row.key).collect();
        assert_eq!(keys, table);
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "duplicate table key");
        // The page has one family per row, plus `build_info`.
        let page = stats.to_prometheus();
        let families: Vec<&str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE gmserve_"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(families.len(), STAT_ROWS.len() + 1);
        for row in STAT_ROWS {
            assert!(
                families.contains(&row.family),
                "{} not rendered",
                row.family
            );
        }
        assert!(families.contains(&"build_info"));
        // Without any optional key the frame decodes, and every
        // optional field reads as zero / empty.
        let without = |dropped: &dyn Fn(&StatRow) -> bool| {
            let mut json = json.clone();
            if let Json::Obj(fields) = &mut json {
                fields
                    .retain(|(k, _)| !STAT_ROWS.iter().any(|row| row.key == &**k && dropped(row)));
            }
            json
        };
        let old = ServeStats::decode(&without(&|row| !row.required), "stats").unwrap();
        let mut want = stats.clone();
        for (row, stat) in STAT_ROWS.iter().zip(want.fields_mut()) {
            match stat {
                _ if row.required => {}
                Stat::Counter(n) | Stat::Gauge(n) => *n = 0,
                Stat::Histogram(h, ..) => *h = WireHistogram::new(h.bounds),
            }
        }
        assert_eq!(old, want);
        assert_eq!(old.jobs_retried, 0);
        assert_eq!(old.job_retries.count(), 0);
        // Without a required key it is an error naming the key.
        for row in STAT_ROWS.iter().filter(|row| row.required) {
            let err = ServeStats::decode(&without(&|r| r.key == row.key), "stats").unwrap_err();
            assert_eq!(err.0, format!("missing field '{}'", row.key));
        }
    }

    /// README "Operating `gmserved`" carries the metric reference: one
    /// line per table row.
    #[test]
    fn the_readme_documents_every_metric_family() {
        let readme = include_str!("../../../README.md");
        for row in STAT_ROWS {
            assert!(
                readme.contains(&format!("`gmserve_{}`", row.family)),
                "README.md has no reference line for gmserve_{}",
                row.family
            );
        }
    }

    #[test]
    fn sizes_above_their_wire_bounds_are_refused_before_an_engine_sees_them() {
        let m =
            gm_rtl::parse_verilog("module m(input a, output y); assign y = a; endmodule").unwrap();
        let base = WireConfig::default;
        let over: [(&str, u64, WireConfig); 6] = [
            (
                "window",
                MAX_WINDOW,
                WireConfig {
                    window: MAX_WINDOW as u32 + 1,
                    ..base()
                },
            ),
            (
                "random_cycles",
                MAX_RANDOM_CYCLES,
                WireConfig {
                    random_cycles: Some(MAX_RANDOM_CYCLES + 1),
                    ..base()
                },
            ),
            (
                "shards",
                MAX_SHARDS,
                WireConfig {
                    shards: Some(MAX_SHARDS as u32 + 1),
                    ..base()
                },
            ),
            (
                "temporal_horizon",
                MAX_TEMPORAL_HORIZON,
                WireConfig {
                    temporal_horizon: u32::MAX,
                    ..base()
                },
            ),
            (
                "refine_variants",
                MAX_REFINE_VARIANTS,
                WireConfig {
                    refine_variants: u64::MAX,
                    ..base()
                },
            ),
            (
                "refine_extra_cycles",
                MAX_REFINE_EXTRA_CYCLES,
                WireConfig {
                    refine_extra_cycles: MAX_REFINE_EXTRA_CYCLES + 1,
                    ..base()
                },
            ),
        ];
        for (key, max, wire) in over {
            let err = wire.to_engine(&m).unwrap_err();
            assert!(
                err.0.contains(&format!("'{key}'")) && err.0.ends_with(&format!("bound of {max}")),
                "{key}: {}",
                err.0
            );
        }
        // At the bounds everything resolves.
        let at = WireConfig {
            window: MAX_WINDOW as u32,
            random_cycles: Some(MAX_RANDOM_CYCLES),
            shards: Some(MAX_SHARDS as u32),
            temporal_horizon: MAX_TEMPORAL_HORIZON as u32,
            refine_variants: MAX_REFINE_VARIANTS,
            refine_extra_cycles: MAX_REFINE_EXTRA_CYCLES,
            ..base()
        };
        assert_eq!(
            at.to_engine(&m).unwrap().shards,
            ShardPolicy::Fixed(MAX_SHARDS as usize)
        );
        // A fixed shard count the wire cannot carry is refused going
        // out, not truncated.
        for n in [MAX_SHARDS as usize + 1, usize::MAX] {
            let engine = EngineConfig {
                shards: ShardPolicy::Fixed(n),
                ..EngineConfig::default()
            };
            let err = WireConfig::from_engine(&engine).unwrap_err();
            assert!(err.0.contains("'shards'"), "{}", err.0);
        }
    }

    #[test]
    fn temporal_and_refine_knobs_absent_from_the_wire_default_off() {
        // Pre-observability clients never sent the knobs; their frames
        // must resolve to the engine defaults they always ran with.
        let default = WireConfig::default();
        let mut json = default.encode();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| !k.starts_with("temporal_") && !k.starts_with("refine_"));
        }
        let back = WireConfig::decode(&json, "config").unwrap();
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
            ("config", default.encode()),
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
    fn an_out_of_range_target_bit_is_refused_at_the_wire() {
        // An engine mining bit 7 of a one-bit grant panics in row
        // extraction; the wire must refuse the config instead.
        let m = gm_rtl::parse_verilog(
            "module arbiter2(input clk, input rst, input req0, input req1,
                             output reg gnt0, output reg gnt1);
               always @(posedge clk)
                 if (rst) begin gnt0 <= 0; gnt1 <= 0; end
                 else begin
                   gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
                   gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
                 end
             endmodule",
        )
        .unwrap();
        let bad = WireConfig::default().with_bit_targets(vec![("gnt0".into(), 7)]);
        let err = bad.to_engine(&m).unwrap_err();
        assert!(
            err.0.contains("'gnt0'") && err.0.contains("1 bits wide"),
            "{err}"
        );
        let last = WireConfig::default().with_bit_targets(vec![("gnt1".into(), 0)]);
        assert!(last.to_engine(&m).is_ok());
    }

    #[test]
    fn sim_backend_absent_from_the_wire_defaults_to_batch() {
        // Pre-wide-lane clients never sent the field; their frames must
        // keep resolving to the backend they always ran (the default
        // 64-lane batch), not error out.
        let default = WireConfig::default();
        let mut json = default.encode();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "sim_backend");
        }
        let back = WireConfig::decode(&json, "config").unwrap();
        assert_eq!(back.sim_backend, SimBackend::CompiledBatch(1));
        assert_eq!(
            back,
            WireConfig {
                sim_backend: SimBackend::CompiledBatch(1),
                ..WireConfig::default()
            }
        );
        // The engine's default block is the widest, and travels as such.
        assert_eq!(default.sim_backend.encode(), tagged("wide", 8));
        // Out-of-range lane blocks are rejected loudly.
        let wide = |w: u64| {
            let mut json = default.encode();
            if let Json::Obj(fields) = &mut json {
                for (k, v) in fields.iter_mut() {
                    if k == "sim_backend" {
                        *v = Json::Arr(vec![Json::Str("wide".into()), Json::UInt(w)]);
                    }
                }
            }
            WireConfig::decode(&json, "config")
        };
        assert_eq!(wide(8).unwrap().sim_backend, SimBackend::CompiledBatch(8));
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

    /// The golden `Done` frame (see
    /// `encoded_frames_match_the_golden_bytes`).
    const DONE: &[u8] = b"\x00\x00\x00\xdc{\"type\":\"done\",\"job\":3,\"summary\":{\"converged\":true,\"iterations\":4,\"assertions\":[\"req0 => X gnt0\",\"a \\\"b\\\"\"],\"suite_cycles\":128,\"unknown_assumed\":0,\"outcome_debug\":\"ClosureOutcome { name: \\\"s0\\\", cov: 0.625 }\\n\\u0001\xc3\xa9\"}}";

    /// "Wire bytes unchanged" is checked, not assumed: these frames were
    /// captured from the pre-rewrite codec (char-by-char writer, cloned
    /// `Json` tree). They pin key order, number forms and every escape
    /// the writer emits, multi-byte UTF-8 included.
    #[test]
    fn encoded_frames_match_the_golden_bytes() {
        // The engine's defaults on the 64-lane batch: the frame clients
        // sent before the engine's default block widened.
        let batch = WireConfig {
            sim_backend: SimBackend::CompiledBatch(1),
            ..WireConfig::default()
        };
        let submit = Request::Submit {
            name: "arbiter2".into(),
            source: "module m(input a, output y);\n  assign y = a; // \"q\" \\ \tπ\nendmodule"
                .into(),
            config: batch.with_bit_targets(vec![("gnt0".into(), 0)]),
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
        // Every other variant, both directions.
        for (request, golden) in golden_requests() {
            encode_frame(&mut buf, &request.to_json()).unwrap();
            assert_eq!(
                buf.escape_ascii().to_string(),
                golden.escape_ascii().to_string()
            );
            let frame = read_frame(&mut &golden[..], &mut buf).unwrap().unwrap();
            assert_eq!(Request::from_json(&frame).unwrap(), request);
        }
        for (response, golden) in golden_responses() {
            encode_frame(&mut buf, &response.to_json()).unwrap();
            assert_eq!(
                buf.escape_ascii().to_string(),
                golden.escape_ascii().to_string()
            );
            let frame = read_frame(&mut &golden[..], &mut buf).unwrap().unwrap();
            assert_eq!(Response::from_json(&frame).unwrap(), response);
        }
    }

    /// A golden frame for every request variant besides [`SUBMIT`] (and a
    /// second `Submit` with the other forms of the config's value
    /// codecs), captured from the hand-written codec.
    fn golden_requests() -> Vec<(Request, &'static [u8])> {
        let config = WireConfig {
            window: 2,
            seed: 7,
            random_cycles: None,
            max_iterations: 9,
            backend: Backend::KInduction { max_k: 2 },
            unknown_assume: false,
            targets: WireTargets::AllOutputs,
            shards: None,
            record_coverage: false,
            temporal_horizon: 3,
            refine_variants: 8,
            refine_extra_cycles: 24,
            refine_max_absorb: 4,
            sim_backend: SimBackend::CompiledBatch(4),
        };
        vec![
            (
                Request::Submit {
                    name: "b12".into(),
                    source: "module m; endmodule".into(),
                    config,
                    trace: false,
                    deadline_ms: Some(0),
                },
                b"\x00\x00\x01}{\"type\":\"submit\",\"name\":\"b12\",\"source\":\"module m; endmodule\",\"config\":{\"window\":2,\"seed\":7,\"random_cycles\":null,\"max_iterations\":9,\"backend\":[\"kind\",2],\"unknown_assume\":false,\"targets\":\"all_outputs\",\"shards\":null,\"record_coverage\":false,\"temporal_horizon\":3,\"refine_variants\":8,\"refine_extra_cycles\":24,\"refine_max_absorb\":4,\"sim_backend\":[\"wide\",4]},\"trace\":false,\"deadline_ms\":0}",
            ),
            (
                Request::Status { job: 7 },
                b"\x00\x00\x00\x19{\"type\":\"status\",\"job\":7}",
            ),
            (
                Request::Progress { job: 7, from: 3 },
                b"\x00\x00\x00${\"type\":\"progress\",\"job\":7,\"from\":3}",
            ),
            (
                Request::Wait { job: u64::MAX },
                b"\x00\x00\x00*{\"type\":\"wait\",\"job\":18446744073709551615}",
            ),
            (
                Request::Cancel { job: 0 },
                b"\x00\x00\x00\x19{\"type\":\"cancel\",\"job\":0}",
            ),
            (
                Request::Trace { job: 12 },
                b"\x00\x00\x00\x19{\"type\":\"trace\",\"job\":12}",
            ),
            (Request::Stats, b"\x00\x00\x00\x10{\"type\":\"stats\"}"),
            (Request::Metrics, b"\x00\x00\x00\x12{\"type\":\"metrics\"}"),
            (Request::Shutdown, b"\x00\x00\x00\x13{\"type\":\"shutdown\"}"),
        ]
    }

    /// A golden frame for every response variant besides `Done` and
    /// `Stats`, captured from the hand-written codec: `Status` with and
    /// without an error, `Progress` with a fractional and an integral
    /// coverage.
    fn golden_responses() -> Vec<(Response, &'static [u8])> {
        let event = |iteration, input_space_coverage| ProgressEvent {
            iteration,
            candidates: 12,
            proved_total: 5,
            refuted: 2,
            input_space_coverage,
            suite_cycles: 96,
        };
        vec![
            (
                Response::Submitted {
                    job: 3,
                    cached: true,
                },
                b"\x00\x00\x00*{\"type\":\"submitted\",\"job\":3,\"cached\":true}",
            ),
            (
                Response::Status {
                    job: 3,
                    state: JobState::Running,
                    name: "b09".into(),
                    progress_len: 4,
                    error: None,
                },
                b"\x00\x00\x00V{\"type\":\"status\",\"job\":3,\"state\":\"running\",\"name\":\"b09\",\"progress_len\":4,\"error\":null}",
            ),
            (
                Response::Status {
                    job: 4,
                    state: JobState::Failed,
                    name: "b09".into(),
                    progress_len: 0,
                    error: Some("engine: unknown signal 'x'".into()),
                },
                b"\x00\x00\x00m{\"type\":\"status\",\"job\":4,\"state\":\"failed\",\"name\":\"b09\",\"progress_len\":0,\"error\":\"engine: unknown signal \'x\'\"}",
            ),
            (
                Response::Progress {
                    job: 3,
                    from: 1,
                    events: vec![event(1, 0.625), event(2, 1.0)],
                    terminal: false,
                },
                b"\x00\x00\x01\x16{\"type\":\"progress\",\"job\":3,\"from\":1,\"events\":[{\"iteration\":1,\"candidates\":12,\"proved_total\":5,\"refuted\":2,\"input_space_coverage\":0.625,\"suite_cycles\":96},{\"iteration\":2,\"candidates\":12,\"proved_total\":5,\"refuted\":2,\"input_space_coverage\":1.0,\"suite_cycles\":96}],\"terminal\":false}",
            ),
            (
                Response::Trace {
                    job: 3,
                    trace: "{\"traceEvents\":[]}".into(),
                },
                b"\x00\x00\x007{\"type\":\"trace\",\"job\":3,\"trace\":\"{\\\"traceEvents\\\":[]}\"}",
            ),
            (
                Response::Metrics {
                    text: "# TYPE gmserve_workers gauge\ngmserve_workers 4\n".into(),
                },
                b"\x00\x00\x00M{\"type\":\"metrics\",\"text\":\"# TYPE gmserve_workers gauge\\ngmserve_workers 4\\n\"}",
            ),
            (
                Response::ShuttingDown,
                b"\x00\x00\x00\x18{\"type\":\"shutting_down\"}",
            ),
            (
                Response::Overloaded {
                    queued: 64,
                    limit: 64,
                },
                b"\x00\x00\x00,{\"type\":\"overloaded\",\"queued\":64,\"limit\":64}",
            ),
            (
                Response::Error {
                    message: "unknown job 99".into(),
                },
                b"\x00\x00\x00+{\"type\":\"error\",\"message\":\"unknown job 99\"}",
            ),
        ]
    }

    /// A `ServeStats` with every scalar distinct and non-zero (its
    /// 1-based table position) and every histogram holding at least two
    /// buckets plus the overflow slot.
    fn golden_stats() -> ServeStats {
        let mut stats = ServeStats {
            submitted: 1,
            queued: 2,
            running: 3,
            completed: 4,
            failed: 5,
            cancelled: 6,
            workers: 7,
            steals: 8,
            cache_entries: 9,
            cache_hits: 10,
            cache_misses: 11,
            cache_evictions: 12,
            cache_evictions_capacity: 13,
            cache_evictions_bytes: 14,
            cache_evictions_collision: 15,
            cache_bytes: 16,
            cache_max_bytes: 17,
            compiled_built: 18,
            compiled_reused: 19,
            verify_sat_queries: 20,
            verify_sat_decided: 21,
            verify_explicit_queries: 22,
            verify_memo_hits: 23,
            verify_frames_encoded: 24,
            verify_frames_reused: 25,
            verify_cex_canonicalized: 26,
            worker_panics: 27,
            jobs_retried: 28,
            jobs_deadline_exceeded: 29,
            requests_shed: 30,
            workers_respawned: 31,
            ..ServeStats::default()
        };
        for ns in [500_000, 2_000_000, 90_000_000_000] {
            stats.queue_seconds.observe(ns);
        }
        for ns in [800_000_000, 3_000_000_000, 3_000_000_000, 7_000_000_000] {
            stats.wall_seconds.observe(ns);
        }
        for retries in [0, 0, 2, 11] {
            stats.job_retries.observe(retries);
        }
        stats
    }

    /// The golden `stats` frame of [`golden_stats`] (see
    /// `stats_frame_and_metrics_page_match_the_golden_bytes`).
    const STATS: &[u8] = b"\x00\x00\x03X{\"type\":\"stats\",\"stats\":{\"submitted\":1,\"queued\":2,\"running\":3,\"completed\":4,\"failed\":5,\"cancelled\":6,\"workers\":7,\"steals\":8,\"cache_entries\":9,\"cache_hits\":10,\"cache_misses\":11,\"cache_evictions\":12,\"cache_evictions_capacity\":13,\"cache_evictions_bytes\":14,\"cache_evictions_collision\":15,\"cache_bytes\":16,\"cache_max_bytes\":17,\"compiled_built\":18,\"compiled_reused\":19,\"verify_sat_queries\":20,\"verify_sat_decided\":21,\"verify_explicit_queries\":22,\"verify_memo_hits\":23,\"verify_frames_encoded\":24,\"verify_frames_reused\":25,\"verify_cex_canonicalized\":26,\"queue_seconds\":{\"buckets\":[1,1,0,0,0,0,0,0,0,0,0,0,1],\"sum_ns\":90002500000},\"wall_seconds\":{\"buckets\":[0,0,0,0,0,0,0,0,0,1,0,2,1],\"sum_ns\":13800000000},\"worker_panics\":27,\"jobs_retried\":28,\"jobs_deadline_exceeded\":29,\"requests_shed\":30,\"workers_respawned\":31,\"job_retries\":{\"buckets\":[2,0,1,0,0,1],\"sum\":13}}}";

    /// The `stats` frame and the metrics page of [`golden_stats`], as
    /// the hand-written codec produced them before the table existed
    /// (captured at d465afe): key order, optional keys, histogram
    /// shapes, family order, help texts and `_sum` forms are pinned
    /// byte for byte.
    #[test]
    fn stats_frame_and_metrics_page_match_the_golden_bytes() {
        let stats = golden_stats();
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            &Response::Stats {
                stats: Box::new(stats.clone()),
            }
            .to_json(),
        )
        .unwrap();
        assert_eq!(
            buf.escape_ascii().to_string(),
            STATS.escape_ascii().to_string()
        );
        let frame = read_frame(&mut &STATS[..], &mut buf).unwrap().unwrap();
        assert_eq!(
            Response::from_json(&frame).unwrap(),
            Response::Stats {
                stats: Box::new(stats.clone()),
            }
        );
        // The page was captured at crate version 0.1.0; only the
        // `build_info` label follows the version.
        let page = include_str!("../tests/golden/metrics_page.txt").replace(
            "version=\"0.1.0\"",
            &format!("version=\"{}\"", env!("CARGO_PKG_VERSION")),
        );
        assert_eq!(stats.to_prometheus(), page);
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
    fn the_removed_scalar_sim_backend_decodes_to_the_default_batch() {
        let text = std::str::from_utf8(&SUBMIT[4..]).unwrap();
        let golden = Request::from_json(&crate::json::parse(text).unwrap()).unwrap();
        let legacy = text.replace("\"sim_backend\":\"batch\"", "\"sim_backend\":\"scalar\"");
        assert_ne!(legacy, text);
        let decoded = Request::from_json(&crate::json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(decoded, golden);
        // Accepted, never written: re-encoding yields the golden bytes.
        let mut wire = Vec::new();
        encode_frame(&mut wire, &decoded.to_json()).unwrap();
        assert_eq!(wire, SUBMIT);
    }

    #[test]
    fn a_request_for_unbatched_verification_is_a_typed_error() {
        let unbatched = legacy_submit(false, false, false);
        let err = Request::from_json(&crate::json::parse(&unbatched).unwrap()).unwrap_err();
        assert!(err.0.contains("'batched'"), "{}", err.0);
    }

    /// One step into a JSON value: an object key or an array index.
    #[derive(Clone, Debug, PartialEq)]
    enum Step {
        Key(String),
        Index(usize),
    }

    /// One hostile edit of a golden frame: the value at `path` removed
    /// (`None`, only under a key) or replaced.
    #[derive(Debug)]
    struct Mutant {
        path: Vec<Step>,
        value: Option<Json<'static>>,
    }

    /// A `u32` field's overflow.
    const OVERFLOW: u64 = 1 << 32;
    /// Request keys a client may leave out or send as `null`.
    const REQUEST_OPTIONAL: [&str; 7] = [
        "trace",
        "deadline_ms",
        "config.temporal_horizon",
        "config.refine_variants",
        "config.refine_extra_cycles",
        "config.refine_max_absorb",
        "config.sim_backend",
    ];
    /// Keys that must be present but may be `null`, each with a value of
    /// its type (which decodes where the golden frame has `null`).
    const NULLABLE: [(&str, Json); 3] = [
        ("config.random_cycles", Json::UInt(7)),
        ("config.shards", Json::UInt(7)),
        ("error", Json::Str(std::borrow::Cow::Borrowed("x"))),
    ];
    /// The `u32` fields: 2^32 is refused.
    const U32_FIELDS: [&str; 6] = [
        "config.window",
        "config.max_iterations",
        "config.shards",
        "config.temporal_horizon",
        "events.iteration",
        "summary.iterations",
    ];
    /// The one float field: any number decodes into it.
    const FLOAT_FIELD: &str = "events.input_space_coverage";

    impl Mutant {
        /// The keys on the path, outermost first.
        fn keys(&self) -> Vec<&str> {
            let keys = self.path.iter().filter_map(|step| match step {
                Step::Key(key) => Some(key.as_str()),
                Step::Index(_) => None,
            });
            keys.collect()
        }

        /// The key the edited value sits under (the nearest one, for an
        /// array element).
        fn key(&self) -> &str {
            let keys = self.keys().into_iter();
            keys.last().expect("every path starts at a key")
        }

        /// The keys on the path, dotted: `config.window`,
        /// `events.iteration`.
        fn dotted(&self) -> String {
            self.keys().join(".")
        }

        /// Whether the edited frame must still decode: an optional key
        /// dropped or `null`, a nullable key `null` or a value of its
        /// type, any number in the float field, 2^32 in a `u64` field —
        /// nothing else.
        fn decodes(&self, request: bool) -> bool {
            let keys = self.dotted();
            let at_key = matches!(self.path.last(), Some(Step::Key(_)));
            let optional = if request {
                REQUEST_OPTIONAL.contains(&keys.as_str())
            } else {
                let stat = keys.strip_prefix("stats.");
                STAT_ROWS
                    .iter()
                    .any(|row| !row.required && stat == Some(row.key))
            };
            let nullable = NULLABLE.iter().find(|(k, _)| *k == keys);
            let of_type = |value: &Json| {
                nullable.is_some_and(|(_, t)| {
                    std::mem::discriminant(t) == std::mem::discriminant(value)
                })
            };
            match &self.value {
                None => optional,
                Some(Json::UInt(OVERFLOW)) => !U32_FIELDS.contains(&keys.as_str()),
                Some(Json::Null) => at_key && (optional || nullable.is_some()),
                Some(value) if at_key && of_type(value) => true,
                Some(Json::UInt(_) | Json::Int(_) | Json::Float(_)) => {
                    at_key && keys == FLOAT_FIELD
                }
                Some(_) => false,
            }
        }

        /// Edits `frame`; `false` when the path is no longer there.
        fn apply(&self, frame: &mut Json<'static>) -> bool {
            let (last, parent) = self.path.split_last().expect("paths are never empty");
            let Some(parent) = at_mut(frame, parent) else {
                return false;
            };
            match (&self.value, parent, last) {
                (None, Json::Obj(pairs), Step::Key(key)) => {
                    let before = pairs.len();
                    pairs.retain(|(k, _)| k != key);
                    pairs.len() < before
                }
                (Some(value), parent, last) => match at_mut(parent, std::slice::from_ref(last)) {
                    Some(slot) => {
                        *slot = value.clone();
                        true
                    }
                    None => false,
                },
                _ => false,
            }
        }
    }

    fn at_mut<'v>(v: &'v mut Json<'static>, path: &[Step]) -> Option<&'v mut Json<'static>> {
        path.iter().try_fold(v, |v, step| match (v, step) {
            (Json::Obj(pairs), Step::Key(key)) => {
                pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            (Json::Arr(items), Step::Index(i)) => items.get_mut(*i),
            _ => None,
        })
    }

    /// Every single mutant of `frame`: an unknown `type`; every key
    /// dropped; every value, array elements included, replaced by one
    /// of each other JSON type; every integer under a key set to 2^32.
    fn mutants(frame: &Json) -> Vec<Mutant> {
        fn walk(v: &Json, path: &mut Vec<Step>, out: &mut Vec<Mutant>) {
            let children: Vec<(Step, &Json)> = match v {
                Json::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, child)| (Step::Key(k.to_string()), child))
                    .collect(),
                Json::Arr(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, child)| (Step::Index(i), child))
                    .collect(),
                _ => Vec::new(),
            };
            for (step, child) in children {
                let at_key = matches!(step, Step::Key(_));
                path.push(step);
                let mut edit = |value| {
                    out.push(Mutant {
                        path: path.clone(),
                        value,
                    })
                };
                if at_key {
                    edit(None);
                }
                if at_key && matches!(child, Json::UInt(_)) {
                    edit(Some(Json::UInt(OVERFLOW)));
                }
                for other in [
                    Json::Null,
                    Json::Bool(true),
                    Json::UInt(7),
                    Json::Int(-1),
                    Json::Float(0.5),
                    Json::str("x"),
                    Json::Arr(vec![Json::Null]),
                    Json::Obj(Vec::new()),
                ] {
                    if std::mem::discriminant(&other) != std::mem::discriminant(child) {
                        edit(Some(other));
                    }
                }
                walk(child, path, out);
                path.pop();
            }
        }
        let mut out = vec![Mutant {
            path: vec![Step::Key("type".into())],
            value: Some(Json::str("bogus")),
        }];
        walk(frame, &mut Vec::new(), &mut out);
        out
    }

    /// Every golden frame, parsed, and whether it is a request.
    fn golden_frames() -> Vec<(Json<'static>, bool)> {
        let parse =
            |bytes: &'static [u8]| json::parse(std::str::from_utf8(&bytes[4..]).unwrap()).unwrap();
        let requests = golden_requests().into_iter().map(|(_, bytes)| bytes);
        let responses = golden_responses().into_iter().map(|(_, bytes)| bytes);
        let requests = requests.chain([SUBMIT]).map(|bytes| (parse(bytes), true));
        let responses = responses
            .chain([DONE, STATS])
            .map(|bytes| (parse(bytes), false));
        requests.chain(responses).collect()
    }

    /// Decodes a frame carrying the `applied` edits: it must decode
    /// (and re-encode to itself) exactly when every edit allows it, and
    /// otherwise fail in the uniform form, naming the key of an edit
    /// that does not.
    fn check(frame: &Json, request: bool, applied: &[&Mutant]) {
        let decoded = if request {
            Request::from_json(frame)
                .map(|m| assert_eq!(Request::from_json(&m.to_json()).unwrap(), m))
        } else {
            Response::from_json(frame)
                .map(|m| assert_eq!(Response::from_json(&m.to_json()).unwrap(), m))
        };
        let refused: Vec<&str> = applied
            .iter()
            .filter(|m| !m.decodes(request))
            .map(|m| m.key())
            .collect();
        match decoded {
            Ok(()) => assert!(refused.is_empty(), "decoded: {applied:?}"),
            Err(err) => {
                let uniform = err.0.starts_with("field '") || err.0.starts_with("missing field '");
                let named = refused
                    .iter()
                    .any(|key| err.0.contains(&format!("'{key}'")));
                assert!(uniform && named, "{}: {applied:?}", err.0);
            }
        }
    }

    /// The hostile-frame lane, one edit at a time, over every golden
    /// frame. The key lists above are checked against the frames, so a
    /// misspelt entry cannot pass vacuously.
    #[test]
    fn hostile_frames_decode_or_name_the_key() {
        let mut seen = std::collections::BTreeSet::new();
        for (golden, request) in golden_frames() {
            for mutant in mutants(&golden) {
                let mut frame = golden.clone();
                assert!(mutant.apply(&mut frame), "{mutant:?}");
                check(&frame, request, &[&mutant]);
                seen.insert(mutant.dotted());
            }
        }
        let nullable = NULLABLE.iter().map(|(keys, _)| keys);
        let listed = REQUEST_OPTIONAL.iter().chain(nullable).chain(&U32_FIELDS);
        for keys in listed.chain([&FLOAT_FIELD]) {
            assert!(seen.contains(*keys), "no golden frame has {keys}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        /// The same lane, several edits of one frame at once, at paths
        /// none of which contains another.
        #[test]
        fn hostile_frames_with_several_edits_decode_or_name_a_key(
            pick in any::<u64>(),
            picks in prop::collection::vec(any::<u64>(), 1..6),
        ) {
            let frames = golden_frames();
            let (golden, request) = &frames[(pick % frames.len() as u64) as usize];
            let all = mutants(golden);
            let mut applied: Vec<&Mutant> = Vec::new();
            for pick in picks {
                let m = &all[(pick % all.len() as u64) as usize];
                if applied
                    .iter()
                    .all(|a| !m.path.starts_with(&a.path) && !a.path.starts_with(&m.path))
                {
                    applied.push(m);
                }
            }
            let mut frame = golden.clone();
            for m in &applied {
                prop_assert!(m.apply(&mut frame));
            }
            check(&frame, *request, &applied);
        }
    }

    /// A backend's bound is not limited on the wire, and need not be:
    /// the checker sizes nothing from it. A decoded `["bmc", u32::MAX]`
    /// or `["kind", u32::MAX]` refuting a property at reset costs what
    /// bound 0 costs.
    #[test]
    fn a_huge_wire_bound_costs_only_the_starts_scanned() {
        use gm_mc::{BitAtom, CheckResult, Checker, WindowProperty};
        let m = gm_designs::b18_lite();
        let go = m.require("go").unwrap();
        let done = m.require("done").unwrap();
        let prop = WindowProperty::implication(
            vec![BitAtom::new(go, 0, 0, true)],
            BitAtom::new(done, 0, 1, true),
        );
        let bytes = |backend: Backend| {
            let mut c = Checker::new(&m).unwrap().with_backend(backend);
            let res = c.check_batch(std::slice::from_ref(&prop)).unwrap();
            assert!(matches!(res[..], [CheckResult::Violated(_)]));
            c.approx_bytes()
        };
        for (wire, small) in [
            (r#"["bmc", 4294967295]"#, Backend::Bmc { bound: 0 }),
            (r#"["kind", 4294967295]"#, Backend::KInduction { max_k: 0 }),
        ] {
            let huge = Backend::decode(&json::parse(wire).unwrap(), "backend").unwrap();
            assert_ne!(huge, small);
            assert_eq!(bytes(huge), bytes(small), "{wire}");
        }
    }
}
