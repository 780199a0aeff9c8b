//! Wire protocol: job DTOs and the minimal JSON codec they ride on.
//!
//! The server is zero-dependency, so this module carries its own small
//! JSON value model ([`Json`]) with a recursive-descent parser and a
//! canonical serializer. Job specifications round-trip exactly through
//! this codec (`spec == JobSpec::from_json_str(&spec.to_json_string())`),
//! which the spool relies on to rebuild engines bit-identically after a
//! crash.
//!
//! A job specification looks like:
//!
//! ```json
//! {
//!   "tenant": "acme",
//!   "problem": {"kind": "onemax", "len": 64},
//!   "engine": {"family": "ga", "pop": 40},
//!   "seed": 7,
//!   "budget": {"generations": 50}
//! }
//! ```

use std::fmt;

use pga_core::termination::Termination;

/// Errors raised while decoding or validating wire payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// The JSON text failed to parse.
    Parse {
        /// Byte offset of the failure.
        pos: usize,
        /// What the parser expected.
        message: String,
    },
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but its value is out of range or the wrong type.
    Invalid {
        /// Field name.
        field: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The budget has no criterion that is guaranteed to fire.
    UnboundedBudget,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse { pos, message } => write!(f, "JSON parse error at byte {pos}: {message}"),
            Self::Missing(field) => write!(f, "missing required field `{field}`"),
            Self::Invalid { field, message } => write!(f, "invalid field `{field}`: {message}"),
            Self::UnboundedBudget => write!(
                f,
                "budget has no bounded criterion (need generations, evaluations, or wall_clock_ms)"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A parsed JSON value (numbers as `f64`; integers are exact to 2^53,
/// far beyond any parameter this protocol carries).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered (the canonical serializer preserves
    /// field order, so round-trips are byte-stable).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Self, ProtocolError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes canonically (no whitespace, object order preserved,
    /// floats via Rust's shortest round-tripping `Display`).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    fn render(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Self::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Recursion bound for nested arrays/objects: the recursive-descent
/// parser would otherwise turn `[[[[…` into a stack overflow. Job specs
/// are ~4 levels deep; 64 is generous headroom.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> ProtocolError {
        ProtocolError::Parse {
            pos: self.pos,
            message: format!("expected {expected}"),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), ProtocolError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(token))
        }
    }

    fn value(&mut self) -> Result<Json, ProtocolError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    /// Runs one container parse with the depth counter held, bounding
    /// recursion at [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ProtocolError>,
    ) -> Result<Json, ProtocolError> {
        if self.depth >= MAX_DEPTH {
            return Err(ProtocolError::Parse {
                pos: self.pos,
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("closing quote")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("4 hex digits"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("4 hex digits"))?;
                            // Surrogates are not produced by our serializer;
                            // map unpaired ones to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of ordinary bytes at once:
                    // validating per character would re-scan the tail of
                    // the input each time, turning a long string into
                    // O(n²) work — a malformed-input DoS vector.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| !matches!(b, b'"' | b'\\'))
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ProtocolError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("a number"))?;
        // `parse::<f64>` happily overflows to ±inf (e.g. `1e999999999`);
        // JSON numbers are finite, so reject anything that is not.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("a finite number")),
        }
    }

    fn array(&mut self) -> Result<Json, ProtocolError> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ProtocolError> {
        self.eat("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }
}

/// Strips `head` from an object's fields, keeping the rest in order.
fn fields_without(json: &Json, head: &str) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(fields.iter().filter(|(k, _)| k != head).cloned().collect()),
        _ => Json::Obj(Vec::new()),
    }
}

/// Builds a params object from `(key, integer)` pairs.
fn num_params(pairs: &[(&str, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
            .collect(),
    )
}

/// Which benchmark problem a job optimizes: an open `(kind, params)`
/// pair resolved against the server's
/// [`ProblemRegistry`](crate::factory::ProblemRegistry). The protocol
/// layer does not enumerate problems — registering a kind is all it
/// takes to make it wire-reachable.
#[derive(Clone, Debug, PartialEq)]
pub struct ProblemSpec {
    kind: String,
    params: Json,
}

impl ProblemSpec {
    /// A spec for any registered problem kind. `params` should be a
    /// [`Json::Obj`]; validation happens against the registry when the
    /// spec is parsed or built.
    #[must_use]
    pub fn new(kind: impl Into<String>, params: Json) -> Self {
        Self {
            kind: kind.into(),
            params,
        }
    }

    /// OneMax over `len` bits.
    #[must_use]
    pub fn onemax(len: usize) -> Self {
        Self::new("onemax", num_params(&[("len", len as u64)]))
    }

    /// Concatenated deceptive traps: `blocks` traps of `k` bits.
    #[must_use]
    pub fn trap(k: usize, blocks: usize) -> Self {
        Self::new(
            "trap",
            num_params(&[("k", k as u64), ("blocks", blocks as u64)]),
        )
    }

    /// P-PEAKS multimodal generator: `p` peaks over `n` bits.
    #[must_use]
    pub fn ppeaks(p: usize, n: usize, seed: u64) -> Self {
        Self::new(
            "ppeaks",
            num_params(&[("p", p as u64), ("n", n as u64), ("seed", seed)]),
        )
    }

    /// Royal Road: `blocks` schemata of `block` bits.
    #[must_use]
    pub fn royal_road(block: usize, blocks: usize) -> Self {
        Self::new(
            "royalroad",
            num_params(&[("block", block as u64), ("blocks", blocks as u64)]),
        )
    }

    /// The problem kind, for tables and status payloads.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.kind
    }

    /// The wire params (everything but `kind`).
    #[must_use]
    pub fn params(&self) -> &Json {
        &self.params
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::Str(self.kind.clone()))];
        if let Json::Obj(params) = &self.params {
            fields.extend(params.iter().cloned());
        }
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Result<Self, ProtocolError> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::Missing("problem.kind"))?
            .to_string();
        let params = fields_without(json, "kind");
        crate::factory::Registries::builtin()
            .problems
            .validate(&kind, &params)?;
        Ok(Self { kind, params })
    }
}

/// Which engine family runs a job: an open `(family, params)` pair
/// resolved against the server's
/// [`FamilyRegistry`](crate::factory::FamilyRegistry). The protocol
/// layer does not enumerate families — a single
/// [`register`](crate::factory::FamilyRegistry::register) call makes a
/// new family wire-reachable, spool-restorable, and listed by
/// `GET /families`.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSpec {
    family: String,
    params: Json,
}

impl EngineSpec {
    /// A spec for any registered engine family. `params` should be a
    /// [`Json::Obj`]; validation happens against the registry when the
    /// spec is parsed or built.
    #[must_use]
    pub fn new(family: impl Into<String>, params: Json) -> Self {
        Self {
            family: family.into(),
            params,
        }
    }

    /// Panmictic generational GA (`pop` individuals, `elitism` elites).
    #[must_use]
    pub fn ga(pop: usize, elitism: usize) -> Self {
        Self::new(
            "ga",
            num_params(&[("pop", pop as u64), ("elitism", elitism as u64)]),
        )
    }

    /// Panmictic steady-state GA (worst-if-better replacement).
    #[must_use]
    pub fn steady(pop: usize) -> Self {
        Self::new("steady", num_params(&[("pop", pop as u64)]))
    }

    /// Cellular GA on a `rows × cols` torus.
    #[must_use]
    pub fn cellular(rows: usize, cols: usize) -> Self {
        Self::new(
            "cellular",
            num_params(&[("rows", rows as u64), ("cols", cols as u64)]),
        )
    }

    /// Ring-of-islands archipelago of generational GAs.
    #[must_use]
    pub fn island(islands: usize, pop: usize) -> Self {
        Self::new(
            "island",
            num_params(&[("islands", islands as u64), ("pop", pop as u64)]),
        )
    }

    /// Barrier-free asynchronous steady-state master–slave GA over the
    /// streaming cluster simulator (`workers` virtual evaluation nodes):
    /// results fold into the population as they arrive instead of at a
    /// batch barrier, under a deterministic virtual clock.
    #[must_use]
    pub fn async_steady(pop: usize, workers: usize) -> Self {
        Self::new(
            "async-steady",
            num_params(&[("pop", pop as u64), ("workers", workers as u64)]),
        )
    }

    /// Compact GA: the population is a probability vector updated by
    /// `virtual_pop`-sized steps — O(genome) memory, trivially
    /// checkpointable.
    #[must_use]
    pub fn cga(virtual_pop: usize) -> Self {
        Self::new("cga", num_params(&[("virtual_pop", virtual_pop as u64)]))
    }

    /// Sharded parallel compact GA: the probability vector is
    /// partitioned across `nodes` simulated nodes that exchange model
    /// updates (sampled slices and winner ids), never individuals,
    /// under a deterministic virtual clock.
    #[must_use]
    pub fn pcga(virtual_pop: usize, nodes: usize) -> Self {
        Self::new(
            "pcga",
            num_params(&[("virtual_pop", virtual_pop as u64), ("nodes", nodes as u64)]),
        )
    }

    /// Family name for tables and status payloads.
    #[must_use]
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The wire params (everything but `family`).
    #[must_use]
    pub fn params(&self) -> &Json {
        &self.params
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("family".to_string(), Json::Str(self.family.clone()))];
        if let Json::Obj(params) = &self.params {
            fields.extend(params.iter().cloned());
        }
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Result<Self, ProtocolError> {
        let family = json
            .get("family")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::Missing("engine.family"))?
            .to_string();
        let params = fields_without(json, "family");
        crate::factory::Registries::builtin()
            .families
            .validate(&family, &params)?;
        Ok(Self { family, params })
    }
}

/// A job's stopping budget. At least one *bounded* criterion
/// (`generations`, `evaluations`, or `wall_clock_ms`) is required.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Budget {
    /// Stop after this many generations.
    pub generations: Option<u64>,
    /// Stop after this many fitness evaluations.
    pub evaluations: Option<u64>,
    /// Stop after this much wall-clock time, in milliseconds, measured as
    /// *active* scheduler time (time actually spent stepping the job, so
    /// multi-tenant queueing does not eat a job's budget).
    pub wall_clock_ms: Option<u64>,
    /// Stop once best fitness reaches this target.
    pub target: Option<f64>,
    /// Stop at the problem's known optimum.
    pub until_optimum: bool,
}

impl Budget {
    /// Converts to the core [`Termination`] rule, rejecting unbounded
    /// budgets (which would let a job hold pool slices forever).
    pub fn to_termination(&self) -> Result<Termination, ProtocolError> {
        let mut t = Termination::new();
        if let Some(g) = self.generations {
            t = t.max_generations(g);
        }
        if let Some(e) = self.evaluations {
            t = t.max_evaluations(e);
        }
        if let Some(ms) = self.wall_clock_ms {
            t = t.wall_clock(std::time::Duration::from_millis(ms));
        }
        if let Some(target) = self.target {
            t = t.target_fitness(target);
        }
        if self.until_optimum {
            t = t.until_optimum();
        }
        if !t.is_bounded() {
            return Err(ProtocolError::UnboundedBudget);
        }
        Ok(t)
    }

    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(g) = self.generations {
            fields.push(("generations".to_string(), Json::Num(g as f64)));
        }
        if let Some(e) = self.evaluations {
            fields.push(("evaluations".to_string(), Json::Num(e as f64)));
        }
        if let Some(ms) = self.wall_clock_ms {
            fields.push(("wall_clock_ms".to_string(), Json::Num(ms as f64)));
        }
        if let Some(t) = self.target {
            fields.push(("target".to_string(), Json::Num(t)));
        }
        if self.until_optimum {
            fields.push(("until_optimum".to_string(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Result<Self, ProtocolError> {
        let int = |key: &str, field: &'static str| match json.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or(ProtocolError::Invalid {
                field,
                message: "must be a non-negative integer".into(),
            }),
        };
        let budget = Self {
            generations: int("generations", "budget.generations")?,
            evaluations: int("evaluations", "budget.evaluations")?,
            wall_clock_ms: int("wall_clock_ms", "budget.wall_clock_ms")?,
            target: match json.get("target") {
                None => None,
                Some(v) => Some(v.as_f64().ok_or(ProtocolError::Invalid {
                    field: "budget.target",
                    message: "must be a number".into(),
                })?),
            },
            until_optimum: match json.get("until_optimum") {
                None => false,
                Some(v) => v.as_bool().ok_or(ProtocolError::Invalid {
                    field: "budget.until_optimum",
                    message: "must be a boolean".into(),
                })?,
            },
        };
        budget.to_termination()?;
        Ok(budget)
    }
}

/// Largest seed a spec may carry: 2^53 − 1. JSON numbers are doubles,
/// which hold every integer up to 2^53 exactly; 2^53 itself is excluded
/// because the text `9007199254740993` also parses to it. A larger seed
/// would come back from the spool as a different number, and the job
/// would resume on a different trajectory.
pub const MAX_SEED: u64 = (1 << 53) - 1;

fn seed_error() -> ProtocolError {
    ProtocolError::Invalid {
        field: "seed",
        message: format!("must be an integer in 0..={MAX_SEED}"),
    }
}

/// One optimization job as submitted over the wire: who wants it
/// (`tenant`), what to optimize (`problem`), which engine family to run
/// it on (`engine`), the RNG seed, and when to stop (`budget`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Tenant identity used for fair scheduling (deficit round-robin).
    pub tenant: String,
    /// The problem to optimize.
    pub problem: ProblemSpec,
    /// The engine family and its structure.
    pub engine: EngineSpec,
    /// RNG seed — the sole source of run randomness, so a spec replays
    /// bit-identically.
    pub seed: u64,
    /// Stopping rule.
    pub budget: Budget,
}

impl JobSpec {
    /// Decodes and validates a specification from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ProtocolError> {
        let json = Json::parse(text)?;
        Self::from_json(&json)
    }

    /// Decodes and validates a specification from a parsed value.
    pub fn from_json(json: &Json) -> Result<Self, ProtocolError> {
        let tenant = json
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::Missing("tenant"))?;
        if tenant.is_empty() || tenant.len() > 128 {
            return Err(ProtocolError::Invalid {
                field: "tenant",
                message: "must be 1..=128 characters".into(),
            });
        }
        Ok(Self {
            tenant: tenant.to_string(),
            problem: ProblemSpec::from_json(
                json.get("problem")
                    .ok_or(ProtocolError::Missing("problem"))?,
            )?,
            engine: EngineSpec::from_json(
                json.get("engine").ok_or(ProtocolError::Missing("engine"))?,
            )?,
            seed: match json.get("seed") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .filter(|&seed| seed <= MAX_SEED)
                    .ok_or_else(seed_error)?,
            },
            budget: Budget::from_json(json.get("budget").ok_or(ProtocolError::Missing("budget"))?)?,
        })
    }

    /// Rejects a seed above [`MAX_SEED`], which the spec's JSON form
    /// (and so the spool) cannot carry exactly. [`JobSpec::from_json`]
    /// applies the same bound to decoded specs.
    pub fn check_seed(&self) -> Result<(), ProtocolError> {
        if self.seed > MAX_SEED {
            return Err(seed_error());
        }
        Ok(())
    }

    /// Canonical JSON encoding; round-trips exactly through
    /// [`JobSpec::from_json_str`] (the spool persistence contract).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        Json::Obj(vec![
            ("tenant".into(), Json::Str(self.tenant.clone())),
            ("problem".into(), self.problem.to_json()),
            ("engine".into(), self.engine.to_json()),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("budget".into(), self.budget.to_json()),
        ])
        .to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            problem: ProblemSpec::trap(4, 8),
            engine: EngineSpec::island(4, 20),
            seed: 42,
            budget: Budget {
                generations: Some(50),
                until_optimum: true,
                ..Budget::default()
            },
        }
    }

    #[test]
    fn spec_roundtrips_exactly() {
        let original = spec();
        let text = original.to_json_string();
        let back = JobSpec::from_json_str(&text).unwrap();
        assert_eq!(back, original);
        // Canonical: serializing again is byte-identical.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn all_families_and_problems_roundtrip() {
        let problems = [
            ProblemSpec::onemax(64),
            ProblemSpec::trap(4, 8),
            ProblemSpec::ppeaks(10, 64, 3),
            ProblemSpec::royal_road(8, 8),
        ];
        let engines = [
            EngineSpec::ga(30, 1),
            EngineSpec::steady(30),
            EngineSpec::cellular(6, 5),
            EngineSpec::island(3, 10),
            EngineSpec::async_steady(24, 6),
            EngineSpec::cga(63),
            EngineSpec::pcga(63, 8),
        ];
        for problem in &problems {
            for engine in &engines {
                let s = JobSpec {
                    tenant: "t".into(),
                    problem: problem.clone(),
                    engine: engine.clone(),
                    seed: 9,
                    budget: Budget {
                        evaluations: Some(1000),
                        ..Budget::default()
                    },
                };
                let back = JobSpec::from_json_str(&s.to_json_string()).unwrap();
                assert_eq!(back, s);
            }
        }
    }

    #[test]
    fn the_largest_seed_roundtrips_exactly() {
        for seed in [MAX_SEED, MAX_SEED - 1, 1 << 52, 0] {
            let original = JobSpec { seed, ..spec() };
            let back = JobSpec::from_json_str(&original.to_json_string()).unwrap();
            assert_eq!(back.seed, seed);
            assert_eq!(back.check_seed(), Ok(()));
        }
        let past = JobSpec {
            seed: MAX_SEED + 1,
            ..spec()
        };
        assert!(matches!(
            past.check_seed(),
            Err(ProtocolError::Invalid { field: "seed", .. })
        ));
        // Encoded anyway, it does not decode to a different seed.
        assert!(JobSpec::from_json_str(&past.to_json_string()).is_err());
    }

    #[test]
    fn json_parser_handles_nesting_strings_and_numbers() {
        let v =
            Json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"\\\nA"},"d":null,"e":true}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\"\\\nA"
        );
        assert_eq!(v.get("d").unwrap(), &Json::Null);
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert!(
            matches!(err, ProtocolError::Parse { pos: 6, .. }),
            "{err:?}"
        );
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn unbounded_budget_is_rejected() {
        let text = r#"{"tenant":"t","problem":{"kind":"onemax","len":8},
            "engine":{"family":"ga","pop":10},"budget":{"until_optimum":true}}"#;
        assert_eq!(
            JobSpec::from_json_str(text).unwrap_err(),
            ProtocolError::UnboundedBudget
        );
    }

    #[test]
    fn invalid_fields_are_typed() {
        let bad_family = r#"{"tenant":"t","problem":{"kind":"onemax","len":8},
            "engine":{"family":"quantum","pop":10},"budget":{"generations":5}}"#;
        assert!(matches!(
            JobSpec::from_json_str(bad_family).unwrap_err(),
            ProtocolError::Invalid {
                field: "engine.family",
                ..
            }
        ));
        let zero_pop = r#"{"tenant":"t","problem":{"kind":"onemax","len":8},
            "engine":{"family":"ga","pop":0},"budget":{"generations":5}}"#;
        assert!(matches!(
            JobSpec::from_json_str(zero_pop).unwrap_err(),
            ProtocolError::Invalid {
                field: "engine.pop",
                ..
            }
        ));
        let no_tenant = r#"{"problem":{"kind":"onemax","len":8},
            "engine":{"family":"ga","pop":10},"budget":{"generations":5}}"#;
        assert_eq!(
            JobSpec::from_json_str(no_tenant).unwrap_err(),
            ProtocolError::Missing("tenant")
        );
    }

    #[test]
    fn snapshot_tags_resolve_through_the_registry() {
        let families = &crate::factory::Registries::builtin().families;
        assert_eq!(families.snapshot_tag("ga"), Some("ga"));
        assert_eq!(families.snapshot_tag("steady"), Some("ga"));
        assert_eq!(families.snapshot_tag("cellular"), Some("cellular"));
        assert_eq!(families.snapshot_tag("island"), Some("archipelago"));
        assert_eq!(families.snapshot_tag("async-steady"), Some("async-steady"));
        assert_eq!(families.snapshot_tag("cga"), Some("cga"));
        assert_eq!(families.snapshot_tag("pcga"), Some("pcga"));
        assert_eq!(families.snapshot_tag("quantum"), None);
    }

    #[test]
    fn async_steady_workers_default_to_four() {
        // A spec with `workers` omitted builds the same engine as one
        // that says `workers: 4` explicitly — defaults live in the
        // family registration, not in the parser.
        let text = r#"{"tenant":"t","problem":{"kind":"onemax","len":8},
            "engine":{"family":"async-steady","pop":12},"seed":3,"budget":{"generations":5}}"#;
        let implied = JobSpec::from_json_str(text).unwrap();
        assert_eq!(implied.engine.family(), "async-steady");
        let explicit = JobSpec {
            engine: EngineSpec::async_steady(12, 4),
            ..implied.clone()
        };
        let a = crate::factory::build_engine(&implied, None).unwrap();
        let b = crate::factory::build_engine(&explicit, None).unwrap();
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
    }
}
