//! Cross-crate end-to-end tests: record → replay → detect → classify →
//! report on real workloads, plus the permissive-replay ablation and the
//! time-travel facility over pipeline traces.

use std::collections::BTreeSet;
use std::sync::Arc;

use idna_replay::event::EndStatus;
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use idna_replay::verify::verify_fidelity;
use idna_replay::vproc::VprocConfig;
use replay_race::classify::{ClassifierConfig, OutcomeGroup, Verdict};
use replay_race::pipeline::{run_pipeline, PipelineConfig};
use tvm::isa::{Instr, Reg, SysCall};
use tvm::machine::{Fault, ThreadStatus};
use tvm::memory::HEAP_BASE;
use tvm::program::Program;
use tvm::scheduler::RunConfig;
use tvm::ProgramBuilder;
use workloads::browser::{browser_program, BrowserConfig};
use workloads::corpus::{corpus_executions, corpus_program};

#[test]
fn browser_pipeline_end_to_end() {
    let program = browser_program(&BrowserConfig::default());
    let result = run_pipeline(
        &program,
        &PipelineConfig::new(RunConfig::chunked(5, 1, 8).with_max_steps(10_000_000)),
    )
    .expect("pipeline");
    assert!(result.run_completed);
    // The browser has real races (racy stats, flag handoffs).
    assert!(result.detected.unique_races() >= 3, "{}", result.detected.unique_races());
    // The racy statistics counters must be flagged potentially harmful
    // (they change state) — the browser's developers would triage them.
    assert!(result.classification.with_verdict(Verdict::PotentiallyHarmful).count() >= 1);
    // Reports render for every race.
    let text = result.report.to_text();
    assert!(text.contains("data race report"));
    // Log sizes are sane.
    assert!(result.log_size.raw_bytes > 0);
    assert!(result.log_size.compressed_bytes <= result.log_size.raw_bytes);
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let program = browser_program(&BrowserConfig::default());
    let cfg = PipelineConfig::new(RunConfig::chunked(9, 1, 6).with_max_steps(10_000_000));
    let a = run_pipeline(&program, &cfg).expect("pipeline");
    let b = run_pipeline(&program, &cfg).expect("pipeline");
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.detected.instance_count(), b.detected.instance_count());
    assert_eq!(a.log_size.raw_bytes, b.log_size.raw_bytes);
    let groups_a: Vec<_> = a.classification.races.values().map(|r| (r.id, r.group)).collect();
    let groups_b: Vec<_> = b.classification.races.values().map(|r| (r.id, r.group)).collect();
    assert_eq!(groups_a, groups_b);
}

#[test]
fn permissive_control_flow_fixes_the_replayer_limitation_races() {
    // Paper §5.2.4: six really-benign races were classified potentially
    // harmful only because the alternative replay left recorded code. With
    // permissive control flow (the paper's proposed fix), those races
    // classify No-State-Change.
    let exec = corpus_executions()
        .into_iter()
        .find(|e| e.name == "e09_font_cache") // contains dc_c1, a limitation race
        .expect("known execution");
    let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
    let program = corpus_program(&enabled);

    let strict = run_pipeline(&program, &PipelineConfig::new(exec.schedule)).expect("pipeline");
    let mut cfg = PipelineConfig::new(exec.schedule);
    cfg.classifier = ClassifierConfig {
        vproc: VprocConfig { permissive_control_flow: true, ..VprocConfig::default() },
        ..ClassifierConfig::default()
    };
    let permissive = run_pipeline(&program, &cfg).expect("pipeline");

    let dc_cold_id = {
        let pc_a = program.mark("dc_c1.init_flag").unwrap();
        let pc_b = program.mark("dc_c1.outer_check").unwrap();
        replay_race::detect::StaticRaceId::new(pc_a, pc_b)
    };
    assert_eq!(strict.classification.races[&dc_cold_id].group, OutcomeGroup::ReplayFailure);
    assert_eq!(
        permissive.classification.races[&dc_cold_id].group,
        OutcomeGroup::NoStateChange,
        "the paper predicts the limitation races become no-state-change"
    );
}

#[test]
fn an_allocation_past_the_address_space_faults_records_replays_and_classifies() {
    // The allocating thread's block would pass u64::MAX, so its system call
    // faults; its store beforehand races with the reader's load.
    let mut b = ProgramBuilder::new();
    b.thread("greedy");
    b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 0x10);
    b.movi(Reg::R0, u64::MAX).syscall(SysCall::Alloc).halt();
    b.thread("reader");
    b.load(Reg::R2, Reg::R15, 0x10).print(Reg::R2).halt();
    let program: Arc<Program> = Arc::new(b.build());
    let schedule = RunConfig::round_robin(1);
    let fault = Fault::InvalidAccess { addr: HEAP_BASE };

    let recording = record(&program, &schedule);
    assert_eq!(recording.machine.thread(0).status(), ThreadStatus::Faulted(fault));
    assert_eq!(recording.log.threads[0].end_status, EndStatus::Faulted(fault));
    let trace = replay(&program, &recording.log).expect("replay");
    let fidelity = verify_fidelity(&program, &trace, &schedule);
    assert!(fidelity.is_faithful(), "{fidelity}");

    let result = run_pipeline(&program, &PipelineConfig::new(schedule)).expect("pipeline");
    assert!(result.run_completed);
    assert_eq!(result.detected.unique_races(), 1);
    assert_eq!(result.classification.races.len(), 1);
}

#[test]
fn time_travel_reconstructs_states_along_a_pipeline_trace() {
    // Every corpus execution on its own schedule, plus the paper-scale
    // browser: time travel to each recorded access must land on that
    // access's instruction, with registers that address it (and, for a
    // store, hold the value it wrote).
    let mut runs: Vec<(Arc<Program>, RunConfig)> = corpus_executions()
        .into_iter()
        .map(|e| (corpus_program(&e.enabled.iter().copied().collect()), e.schedule))
        .collect();
    runs.push((
        browser_program(&BrowserConfig::default()),
        RunConfig::chunked(5, 1, 8).with_max_steps(10_000_000),
    ));
    let mut checked = 0usize;
    for (program, schedule) in &runs {
        let trace = replay(program, &record(program, schedule).log).expect("replay");
        for region in trace.regions() {
            let tid = region.region.id.tid;
            for acc in &region.accesses {
                let at = format!("t{tid} instruction {}", acc.instr_index);
                let state = trace.state_before(tid, acc.instr_index).expect(&at);
                assert_eq!(state.pc, acc.pc, "{at}");
                let (base, offset, stored) = match *program.instr(acc.pc).expect(&at) {
                    Instr::Store { src, base, offset } => (base, offset, Some(src)),
                    Instr::Load { base, offset, .. }
                    | Instr::AtomicRmw { base, offset, .. }
                    | Instr::AtomicCas { base, offset, .. } => (base, offset, None),
                    other => panic!("{at}: {other} does not access memory"),
                };
                assert_eq!(state.reg(base).wrapping_add(offset as u64), acc.addr, "{at}");
                if let Some(src) = stored {
                    assert_eq!(state.reg(src), acc.value, "{at}");
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 1_000, "only {checked} accesses checked");
}

#[test]
fn report_json_round_trips_for_real_workloads() {
    let program = browser_program(&BrowserConfig::default());
    let result = run_pipeline(
        &program,
        &PipelineConfig::new(RunConfig::chunked(5, 1, 8).with_max_steps(10_000_000)),
    )
    .expect("pipeline");
    let json = result.report.to_json();
    let parsed = replay_race::report::Report::from_json(&json).expect("parse");
    assert_eq!(parsed.races.len(), result.report.races.len());
}
