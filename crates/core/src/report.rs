//! Developer-facing race reports (paper §1 "Data Race Report", §4.3).
//!
//! For every potentially harmful race the tool hands the developer:
//!
//! * the two racing static instructions (disassembled, with source marks),
//! * a concrete reproducible scenario — the region pair, the two memory
//!   orders, and the live-out of each order (one of which is flagged as the
//!   original execution),
//! * instance statistics across the execution(s).

use std::fmt::Write as _;

use minijson::Json;

use idna_replay::replayer::ReplayTrace;
use idna_replay::vproc::{AccessSite, PairLiveOut, PairOrder, ReplayFailure};

use crate::classify::{ClassificationResult, ClassifiedRace, InstanceOutcome, Verdict};
use crate::detect::StaticRaceId;

/// A short window of disassembled instructions around a racing access,
/// with the racing instruction marked — the static context a developer
/// reads first.
#[derive(Clone, Debug)]
pub struct CodeContext {
    /// Lines of the form `  12: ld r1, [r15+8]`, racing line prefixed `>`.
    pub lines: Vec<String>,
    /// Register values just before the racing instruction executed in the
    /// recorded run (from time travel), rendered as `r3=5` pairs for the
    /// registers the instruction uses.
    pub registers: Vec<String>,
}

/// A replay scenario for one harmful race instance: what the developer
/// replays to see both outcomes.
#[derive(Clone, Debug)]
pub struct ReplayScenario {
    /// The racing instruction of side `a`, disassembled.
    pub instr_a: String,
    /// The racing instruction of side `b`, disassembled.
    pub instr_b: String,
    /// Mark (symbolic name) of side `a`'s instruction, when the program has
    /// one.
    pub mark_a: Option<String>,
    /// Mark of side `b`'s instruction.
    pub mark_b: Option<String>,
    /// Thread names.
    pub thread_a: String,
    pub thread_b: String,
    /// The racing address.
    pub addr: u64,
    /// Outcome of the instance's dual-order replay.
    pub outcome: InstanceOutcome,
    /// Which order matches the recorded execution, when identifiable.
    pub original_order: Option<PairOrder>,
    /// Human-readable summary of how the two orders differ.
    pub difference: String,
    /// Disassembly + recorded register context around side `a`'s access.
    pub context_a: CodeContext,
    /// Disassembly + recorded register context around side `b`'s access.
    pub context_b: CodeContext,
}

/// A report entry for one static race.
#[derive(Clone, Debug)]
pub struct RaceReport {
    pub id: StaticRaceId,
    pub verdict: Verdict,
    pub group: crate::classify::OutcomeGroup,
    pub instances_detected: usize,
    pub instances_analyzed: usize,
    pub instances_exposing: usize,
    /// Present for potentially harmful races: the first exposing scenario.
    pub scenario: Option<ReplayScenario>,
}

/// The full report over one classification result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Potentially harmful races first (the triage queue), then benign.
    pub races: Vec<RaceReport>,
    /// Races whose verdict rests on log damage rather than clean
    /// evidence (tolerant decode; see `ClassificationResult`). Zero for
    /// strict decodes.
    pub log_damaged_races: u64,
}

impl Report {
    /// Builds the report. A State-Change scenario's difference line renders
    /// the two live-outs the classification kept for it
    /// ([`ClassifiedRace::exposing_live_outs`]); nothing is replayed.
    #[must_use]
    pub fn build(trace: &ReplayTrace, result: &ClassificationResult) -> Self {
        let mut races: Vec<RaceReport> =
            result.races.values().map(|race| build_entry(trace, race)).collect();
        races.sort_by_key(|r| (r.verdict != Verdict::PotentiallyHarmful, r.id));
        Report { races, log_damaged_races: result.log_damaged_races }
    }

    /// The potentially harmful subset — what a developer triages.
    pub fn harmful(&self) -> impl Iterator<Item = &RaceReport> + '_ {
        self.races.iter().filter(|r| r.verdict == Verdict::PotentiallyHarmful)
    }

    /// Renders the report as human-readable text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let harmful = self.harmful().count();
        let _ = writeln!(
            out,
            "=== data race report: {} unique races, {} potentially harmful ===",
            self.races.len(),
            harmful
        );
        if self.log_damaged_races > 0 {
            let _ = writeln!(
                out,
                "!!! {} race(s) classified from a damaged log: their replays \
                 failed on lost state, so they are potentially harmful by the \
                 replay-failure rule, not on clean evidence",
                self.log_damaged_races
            );
        }
        for race in &self.races {
            let verdict = match race.verdict {
                Verdict::PotentiallyHarmful => "POTENTIALLY HARMFUL",
                Verdict::PotentiallyBenign => "potentially benign",
            };
            let _ = writeln!(
                out,
                "\n{} [{verdict}] group={:?} instances={} analyzed={} exposing={}",
                race.id,
                race.group,
                race.instances_detected,
                race.instances_analyzed,
                race.instances_exposing
            );
            if let Some(s) = &race.scenario {
                let name_a = s.mark_a.as_deref().unwrap_or("?");
                let name_b = s.mark_b.as_deref().unwrap_or("?");
                let _ = writeln!(out, "  address {:#x}", s.addr);
                let _ = writeln!(out, "  thread {}: {}  ({name_a})", s.thread_a, s.instr_a);
                let _ = writeln!(out, "  thread {}: {}  ({name_b})", s.thread_b, s.instr_b);
                let original = match s.original_order {
                    Some(PairOrder::AThenB) => "a-then-b (recorded)",
                    Some(PairOrder::BThenA) => "b-then-a (recorded)",
                    None => "unidentified",
                };
                let _ = writeln!(out, "  original order: {original}");
                let _ = writeln!(out, "  difference: {}", s.difference);
                for (label, ctx) in [("a", &s.context_a), ("b", &s.context_b)] {
                    let _ = writeln!(out, "  context {label} (regs: {}):", ctx.registers.join(" "));
                    for line in &ctx.lines {
                        let _ = writeln!(out, "    {line}");
                    }
                }
            }
        }
        out
    }

    /// Serializes the report as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// The report as a JSON value, for callers that compose it into a
    /// larger document (the CLI's `--replay-stats` does).
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let races: Vec<Json> = self.races.iter().map(race_to_json).collect();
        Json::obj(vec![
            ("races", Json::Arr(races)),
            ("log_damaged_races", Json::from(self.log_damaged_races)),
        ])
    }

    /// Parses a report previously produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let races = doc
            .field("races")?
            .as_arr()
            .ok_or("races must be an array")?
            .iter()
            .map(race_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // Absent in reports written before tolerant decoding existed.
        let log_damaged_races =
            doc.field("log_damaged_races").ok().and_then(Json::as_u64).unwrap_or(0);
        Ok(Report { races, log_damaged_races })
    }
}

// --- JSON conversion --------------------------------------------------------
//
// Hand-rolled (the workspace builds offline, without serde); the format is
// a straightforward field-per-field mapping, with enums as strings and the
// parameterized `ReplayFailure` outcome as a small object.

fn race_to_json(race: &RaceReport) -> Json {
    Json::obj(vec![
        ("pc_lo", Json::from(race.id.pc_lo)),
        ("pc_hi", Json::from(race.id.pc_hi)),
        (
            "verdict",
            Json::str(match race.verdict {
                Verdict::PotentiallyBenign => "PotentiallyBenign",
                Verdict::PotentiallyHarmful => "PotentiallyHarmful",
            }),
        ),
        (
            "group",
            Json::str(match race.group {
                crate::classify::OutcomeGroup::NoStateChange => "NoStateChange",
                crate::classify::OutcomeGroup::StateChange => "StateChange",
                crate::classify::OutcomeGroup::ReplayFailure => "ReplayFailure",
            }),
        ),
        ("instances_detected", Json::from(race.instances_detected)),
        ("instances_analyzed", Json::from(race.instances_analyzed)),
        ("instances_exposing", Json::from(race.instances_exposing)),
        ("scenario", race.scenario.as_ref().map_or(Json::Null, scenario_to_json)),
    ])
}

fn race_from_json(doc: &Json) -> Result<RaceReport, String> {
    let usize_field = |key: &str| -> Result<usize, String> {
        doc.field(key)?.as_usize().ok_or_else(|| format!("{key} must be an integer"))
    };
    let verdict = match doc.field("verdict")?.as_str() {
        Some("PotentiallyBenign") => Verdict::PotentiallyBenign,
        Some("PotentiallyHarmful") => Verdict::PotentiallyHarmful,
        other => return Err(format!("bad verdict {other:?}")),
    };
    let group = match doc.field("group")?.as_str() {
        Some("NoStateChange") => crate::classify::OutcomeGroup::NoStateChange,
        Some("StateChange") => crate::classify::OutcomeGroup::StateChange,
        Some("ReplayFailure") => crate::classify::OutcomeGroup::ReplayFailure,
        other => return Err(format!("bad group {other:?}")),
    };
    let scenario = match doc.field("scenario")? {
        Json::Null => None,
        s => Some(scenario_from_json(s)?),
    };
    Ok(RaceReport {
        id: StaticRaceId::new(usize_field("pc_lo")?, usize_field("pc_hi")?),
        verdict,
        group,
        instances_detected: usize_field("instances_detected")?,
        instances_analyzed: usize_field("instances_analyzed")?,
        instances_exposing: usize_field("instances_exposing")?,
        scenario,
    })
}

fn scenario_to_json(s: &ReplayScenario) -> Json {
    let outcome = match s.outcome {
        InstanceOutcome::NoStateChange => Json::str("NoStateChange"),
        InstanceOutcome::StateChange => Json::str("StateChange"),
        InstanceOutcome::ReplayFailure(f) => {
            let (kind, fields): (&str, Vec<(&str, Json)>) = match f {
                ReplayFailure::UnknownLoad { addr } => ("UnknownLoad", vec![("addr", addr.into())]),
                ReplayFailure::UnknownStore { addr } => {
                    ("UnknownStore", vec![("addr", addr.into())])
                }
                ReplayFailure::UnrecordedControlFlow { tid, pc } => {
                    ("UnrecordedControlFlow", vec![("tid", tid.into()), ("pc", pc.into())])
                }
                ReplayFailure::BudgetExhausted => ("BudgetExhausted", Vec::new()),
                ReplayFailure::LogDamage => ("LogDamage", Vec::new()),
            };
            let mut pairs = vec![("kind", Json::str(kind))];
            pairs.extend(fields);
            Json::obj(pairs)
        }
    };
    let context = |c: &CodeContext| {
        Json::obj(vec![
            ("lines", Json::from(c.lines.clone())),
            ("registers", Json::from(c.registers.clone())),
        ])
    };
    Json::obj(vec![
        ("instr_a", Json::str(s.instr_a.clone())),
        ("instr_b", Json::str(s.instr_b.clone())),
        ("mark_a", Json::from(s.mark_a.clone())),
        ("mark_b", Json::from(s.mark_b.clone())),
        ("thread_a", Json::str(s.thread_a.clone())),
        ("thread_b", Json::str(s.thread_b.clone())),
        ("addr", Json::from(s.addr)),
        ("outcome", outcome),
        (
            "original_order",
            match s.original_order {
                Some(PairOrder::AThenB) => Json::str("AThenB"),
                Some(PairOrder::BThenA) => Json::str("BThenA"),
                None => Json::Null,
            },
        ),
        ("difference", Json::str(s.difference.clone())),
        ("context_a", context(&s.context_a)),
        ("context_b", context(&s.context_b)),
    ])
}

fn scenario_from_json(doc: &Json) -> Result<ReplayScenario, String> {
    let str_field = |key: &str| -> Result<String, String> {
        doc.field(key)?.as_str().map(str::to_owned).ok_or_else(|| format!("{key} must be a string"))
    };
    let opt_str_field = |key: &str| -> Result<Option<String>, String> {
        match doc.field(key)? {
            Json::Null => Ok(None),
            v => v.as_str().map(|s| Some(s.to_owned())).ok_or_else(|| format!("bad {key}")),
        }
    };
    let outcome = match doc.field("outcome")? {
        Json::Str(s) if s == "NoStateChange" => InstanceOutcome::NoStateChange,
        Json::Str(s) if s == "StateChange" => InstanceOutcome::StateChange,
        failure @ Json::Obj(_) => {
            let addr = || -> Result<u64, String> {
                failure.field("addr")?.as_u64().ok_or_else(|| "addr must be an integer".to_string())
            };
            InstanceOutcome::ReplayFailure(match failure.field("kind")?.as_str() {
                Some("UnknownLoad") => ReplayFailure::UnknownLoad { addr: addr()? },
                Some("UnknownStore") => ReplayFailure::UnknownStore { addr: addr()? },
                Some("UnrecordedControlFlow") => ReplayFailure::UnrecordedControlFlow {
                    tid: failure.field("tid")?.as_usize().ok_or("tid must be an integer")?,
                    pc: failure.field("pc")?.as_usize().ok_or("pc must be an integer")?,
                },
                Some("BudgetExhausted") => ReplayFailure::BudgetExhausted,
                Some("LogDamage") => ReplayFailure::LogDamage,
                other => return Err(format!("bad failure kind {other:?}")),
            })
        }
        other => return Err(format!("bad outcome {other:?}")),
    };
    let context = |key: &str| -> Result<CodeContext, String> {
        let c = doc.field(key)?;
        let strings = |k: &str| -> Result<Vec<String>, String> {
            c.field(k)?
                .as_arr()
                .ok_or_else(|| format!("{k} must be an array"))?
                .iter()
                .map(|v| v.as_str().map(str::to_owned).ok_or_else(|| format!("bad {k} entry")))
                .collect()
        };
        Ok(CodeContext { lines: strings("lines")?, registers: strings("registers")? })
    };
    Ok(ReplayScenario {
        instr_a: str_field("instr_a")?,
        instr_b: str_field("instr_b")?,
        mark_a: opt_str_field("mark_a")?,
        mark_b: opt_str_field("mark_b")?,
        thread_a: str_field("thread_a")?,
        thread_b: str_field("thread_b")?,
        addr: doc.field("addr")?.as_u64().ok_or("addr must be an integer")?,
        outcome,
        original_order: match doc.field("original_order")? {
            Json::Null => None,
            Json::Str(s) if s == "AThenB" => Some(PairOrder::AThenB),
            Json::Str(s) if s == "BThenA" => Some(PairOrder::BThenA),
            other => return Err(format!("bad original_order {other:?}")),
        },
        difference: str_field("difference")?,
        context_a: context("context_a")?,
        context_b: context("context_b")?,
    })
}

fn build_entry(trace: &ReplayTrace, race: &ClassifiedRace) -> RaceReport {
    let scenario = race.first_exposing_instance().map(|ci| {
        let inst = &ci.instance;
        let program = trace.program();
        let render = |pc: usize| {
            program
                .instr(pc)
                .map_or_else(|| format!("<pc {pc} out of range>"), |i| format!("{pc:4}: {i}"))
        };
        let difference = match ci.outcome {
            InstanceOutcome::ReplayFailure(f) => format!("alternative replay failed: {f}"),
            InstanceOutcome::StateChange => match race.exposing_live_outs.as_deref() {
                Some([x, y]) => describe_difference(x, y),
                None => "live-outs differ".to_string(),
            },
            InstanceOutcome::NoStateChange => "no difference".to_string(),
        };
        ReplayScenario {
            instr_a: render(inst.a.pc),
            instr_b: render(inst.b.pc),
            mark_a: program.mark_at(inst.a.pc).map(str::to_owned),
            mark_b: program.mark_at(inst.b.pc).map(str::to_owned),
            thread_a: trace.thread_name(inst.a.tid()).to_string(),
            thread_b: trace.thread_name(inst.b.tid()).to_string(),
            addr: inst.addr(),
            outcome: ci.outcome,
            original_order: ci.original_order,
            difference,
            context_a: code_context(trace, &inst.a),
            context_b: code_context(trace, &inst.b),
        }
    });
    RaceReport {
        id: race.id,
        verdict: race.verdict,
        group: race.group,
        instances_detected: race.counts.detected,
        instances_analyzed: race.counts.analyzed,
        instances_exposing: race.counts.exposing(),
        scenario,
    }
}

/// Builds the static + dynamic context around one racing access: a few
/// disassembled instructions with the racing one marked, plus the recorded
/// register state just before it executed (via time travel).
fn code_context(trace: &ReplayTrace, site: &AccessSite) -> CodeContext {
    let program = trace.program();
    let lo = site.pc.saturating_sub(2);
    let hi = (site.pc + 3).min(program.len());
    let mut lines = Vec::new();
    for pc in lo..hi {
        if let Some(instr) = program.instr(pc) {
            let marker = if pc == site.pc { '>' } else { ' ' };
            lines.push(format!("{marker} {pc:4}: {instr}"));
        }
    }
    let mut registers = Vec::new();
    if let Some(snapshot) = trace.state_before(site.tid(), site.instr_index) {
        // Report the registers the racing instruction reads.
        if let Some(instr) = program.instr(site.pc) {
            for r in registers_read(instr) {
                registers.push(format!("{r}={}", snapshot.reg(r)));
            }
        }
    }
    CodeContext { lines, registers }
}

/// The registers an instruction reads (for the context display).
fn registers_read(instr: &tvm::Instr) -> Vec<tvm::Reg> {
    use tvm::Instr as I;
    let mut regs = match *instr {
        I::Mov { src, .. } => vec![src],
        I::Bin { lhs, rhs, .. } => vec![lhs, rhs],
        I::BinImm { lhs, .. } => vec![lhs],
        I::Load { base, .. } => vec![base],
        I::Store { src, base, .. } => vec![src, base],
        I::AtomicRmw { base, src, .. } => vec![base, src],
        I::AtomicCas { base, expected, new, .. } => vec![base, expected, new],
        I::Branch { lhs, rhs, .. } => vec![lhs, rhs],
        I::Syscall { .. } => vec![tvm::Reg::R0],
        _ => Vec::new(),
    };
    regs.dedup();
    regs
}

/// Renders how an instance's a-then-b (`x`) and b-then-a (`y`) live-outs
/// differ.
fn describe_difference(x: &PairLiveOut, y: &PairLiveOut) -> String {
    let mut parts = Vec::new();
    if x.a.fault != y.a.fault || x.b.fault != y.b.fault {
        parts.push(format!(
            "faults differ (a-then-b: {:?}/{:?}, b-then-a: {:?}/{:?})",
            x.a.fault, x.b.fault, y.a.fault, y.b.fault
        ));
    }
    if x.writes != y.writes {
        let diffs: Vec<String> = x
            .writes
            .iter()
            .filter(|(k, v)| y.writes.get(k) != Some(v))
            .chain(y.writes.iter().filter(|(k, _)| !x.writes.contains_key(*k)))
            .take(4)
            .map(|(k, v)| format!("[{k:#x}]={v}"))
            .collect();
        parts.push(format!("memory differs at {}", diffs.join(", ")));
    }
    if x.a.regs != y.a.regs || x.b.regs != y.b.regs {
        parts.push("register live-outs differ".to_string());
    }
    if x.a.outputs != y.a.outputs || x.b.outputs != y.b.outputs {
        parts.push("program output differs".to_string());
    }
    if parts.is_empty() {
        parts.push("live-outs differ".to_string());
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_races_with, ClassifierConfig};
    use crate::detect::{detect_races, DetectorConfig};
    use idna_replay::recorder::record;
    use idna_replay::replayer::replay;
    use std::sync::Arc;
    use tvm::isa::Reg;
    use tvm::scheduler::RunConfig;
    use tvm::{Program, ProgramBuilder};

    fn report_for(b: ProgramBuilder) -> Report {
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &RunConfig::round_robin(1));
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        let result = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
        Report::build(&trace, &result)
    }

    #[test]
    fn harmful_races_come_first_with_scenarios() {
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 7)
            .mark("benign_store_a")
            .store(Reg::R1, Reg::R15, 0x20)
            .movi(Reg::R2, 1)
            .mark("harmful_store_a")
            .store(Reg::R2, Reg::R15, 0x28)
            .halt();
        b.thread("b");
        b.movi(Reg::R1, 7)
            .mark("benign_store_b")
            .store(Reg::R1, Reg::R15, 0x20)
            .movi(Reg::R2, 2)
            .mark("harmful_store_b")
            .store(Reg::R2, Reg::R15, 0x28)
            .halt();
        let report = report_for(b);
        assert!(report.races.len() >= 2);
        assert_eq!(report.races[0].verdict, Verdict::PotentiallyHarmful);
        let scenario = report.races[0].scenario.as_ref().expect("harmful races carry a scenario");
        assert_eq!(scenario.addr, 0x28);
        assert!(scenario.difference.contains("memory differs"), "{}", scenario.difference);
        assert!(scenario.mark_a.as_deref().unwrap_or("").contains("harmful"));
    }

    #[test]
    fn text_and_json_render() {
        let mut b = ProgramBuilder::new();
        b.thread("w");
        b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x30).halt();
        b.thread("r");
        b.load(Reg::R2, Reg::R15, 0x30).halt();
        let report = report_for(b);
        let text = report.to_text();
        assert!(text.contains("POTENTIALLY HARMFUL"));
        assert!(text.contains("original order"));
        let json = report.to_json();
        assert!(json.contains("\"verdict\""));
        let parsed = Report::from_json(&json).unwrap();
        assert_eq!(parsed.races.len(), report.races.len());
    }

    #[test]
    fn benign_races_have_no_scenario() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 0x20).halt();
        }
        let report = report_for(b);
        assert_eq!(report.races[0].verdict, Verdict::PotentiallyBenign);
        assert!(report.races[0].scenario.is_none());
        assert_eq!(report.harmful().count(), 0);
    }
}
