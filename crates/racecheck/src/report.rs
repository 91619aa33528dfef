//! Rendering an [`Analysis`] for `racerep lint`: human-readable text and a
//! stable JSON document.

use minijson::Json;

use crate::analysis::{Analysis, Demotion, RaceWarning, ThreadSummary, WarningSide};
use crate::idioms::PredictedVerdict;

fn predicted_kind(p: PredictedVerdict) -> &'static str {
    if p.benign() {
        "benign"
    } else {
        "harmful"
    }
}

fn demotion_text(d: Demotion) -> String {
    match d {
        Demotion::RogueWrite { pc } => format!("demoted: non-idiom write at pc {pc}"),
        Demotion::ReleaseWithoutHold { pc } => {
            format!("demoted: release without hold at pc {pc}")
        }
        Demotion::NonzeroInit { value } => {
            format!("demoted: flag starts non-zero ({value})")
        }
        Demotion::ExitOnZero { pc } => format!("demoted: spin exits on zero at pc {pc}"),
        Demotion::RepeatableRelease { pc } => {
            format!("demoted: release may repeat at pc {pc}")
        }
    }
}

fn side_kind(s: &WarningSide) -> &'static str {
    match (s.writes, s.atomic) {
        (true, true) => "atomic write",
        (true, false) => "write",
        (false, true) => "atomic read",
        (false, false) => "read",
    }
}

/// A side's thread names and rendered locations, each sorted and deduped
/// as text.
fn side_text(s: &WarningSide, threads: &[ThreadSummary]) -> (Vec<String>, Vec<String>) {
    let sorted = |mut text: Vec<String>| {
        text.sort_unstable();
        text.dedup();
        text
    };
    (
        sorted(s.threads.iter().map(|&t| threads[t].name.clone()).collect()),
        sorted(s.locs.iter().map(ToString::to_string).collect()),
    )
}

fn fmt_side(s: &WarningSide, threads: &[ThreadSummary]) -> String {
    let (names, locs) = side_text(s, threads);
    format!("pc {} ({}) at {} by {}", s.pc, side_kind(s), locs.join(" | "), names.join(", "))
}

/// Renders the lint report as human-readable text.
#[must_use]
pub fn render_text(analysis: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let s = &analysis.stats;
    let _ = writeln!(
        out,
        "racecheck: {} threads, {} reachable pcs, {} touch memory",
        s.threads, s.reachable_pcs, s.memory_pcs
    );
    for t in &analysis.threads {
        let _ = writeln!(
            out,
            "  thread {:12} entry {:4}  {} reachable pcs, {} accesses",
            t.name,
            t.entry,
            t.reachable,
            t.accesses.len()
        );
    }
    if analysis.locks.is_empty() {
        let _ = writeln!(out, "locks: none recognized");
    } else {
        let _ = writeln!(out, "locks:");
        for l in &analysis.locks {
            let status = l.demoted.map_or_else(|| "valid".to_string(), demotion_text);
            let _ = writeln!(
                out,
                "  [{:#x}] acquire {:?} release {:?} -- {}",
                l.addr,
                l.acquire_sites.iter().collect::<Vec<_>>(),
                l.release_sites.iter().collect::<Vec<_>>(),
                status
            );
        }
    }
    if analysis.order.handoffs.is_empty() {
        let _ = writeln!(out, "handoffs: none recognized");
    } else {
        let _ = writeln!(out, "handoffs:");
        for h in &analysis.order.handoffs {
            let status = h.demoted.map_or_else(|| "valid".to_string(), demotion_text);
            let _ = writeln!(
                out,
                "  [{:#x}] release {:?} acquire {:?} -- {}",
                h.addr,
                h.release_site,
                h.acquire_sites.iter().collect::<Vec<_>>(),
                status
            );
        }
        for e in &analysis.order.edges {
            let _ = writeln!(
                out,
                "  order edge [{:#x}]: thread {} pc {} -> thread {} pc {}",
                e.addr, e.release_thread, e.release_pc, e.acquire_thread, e.acquire_pc
            );
        }
    }
    let _ = writeln!(
        out,
        "pruned access pairs: {} no-alias, {} read-read, {} atomic-atomic, {} common-lock, \
         {} statically-ordered",
        s.pruned_no_alias,
        s.pruned_read_read,
        s.pruned_atomic_atomic,
        s.pruned_common_lock,
        s.pruned_statically_ordered
    );
    if analysis.warnings.is_empty() {
        let _ = writeln!(out, "no may-race candidates: statically race-free");
    } else {
        let _ = writeln!(
            out,
            "{} may-race candidate pair(s) over {} monitored pc(s):",
            s.candidate_pairs, s.monitored_pcs
        );
        for w in &analysis.warnings {
            let tag = if w.unresolved { " [unresolved address]" } else { "" };
            let _ = writeln!(out, "  W {}..{}{}", w.lo.pc, w.hi.pc, tag);
            let _ = writeln!(out, "    {}", fmt_side(&w.lo, &analysis.threads));
            let _ = writeln!(out, "    {}", fmt_side(&w.hi, &analysis.threads));
            let _ = writeln!(
                out,
                "    predicted {} (idiom {}, {} confidence)",
                predicted_kind(w.predicted),
                w.predicted.idiom.label(),
                w.predicted.confidence.label()
            );
            let _ = writeln!(out, "    impact {}", impact_text(w));
        }
    }
    out
}

/// The one-line impact description: the reach tier plus the pc-chain
/// witness from the racy access to the deciding sink.
fn impact_text(w: &RaceWarning) -> String {
    if w.impact.sink_chain.is_empty() {
        format!("{} (no observable sink)", w.impact.reach)
    } else {
        let chain: Vec<String> = w.impact.sink_chain.iter().map(usize::to_string).collect();
        format!("{} (sink chain {})", w.impact.reach, chain.join(" -> "))
    }
}

/// The `(status, demoted_at)` JSON cell pair for a lock or handoff word.
/// `demoted_at` carries the pc evidence, or the initial value for
/// `nonzero_init`, or null.
fn demotion_json(d: Option<Demotion>) -> (&'static str, Json) {
    match d {
        None => ("valid", Json::Null),
        Some(Demotion::NonzeroInit { value }) => ("nonzero_init", Json::from(value)),
        Some(d) => (d.tag(), d.pc().map_or(Json::Null, Json::from)),
    }
}

fn side_json(s: &WarningSide, threads: &[ThreadSummary]) -> Json {
    let (names, locs) = side_text(s, threads);
    Json::obj(vec![
        ("pc", Json::from(s.pc)),
        ("kind", Json::str(side_kind(s))),
        ("threads", Json::Arr(names.into_iter().map(Json::Str).collect())),
        ("locations", Json::Arr(locs.into_iter().map(Json::Str).collect())),
    ])
}

fn warning_json(w: &RaceWarning, threads: &[ThreadSummary]) -> Json {
    Json::obj(vec![
        ("pc_lo", Json::from(w.lo.pc)),
        ("pc_hi", Json::from(w.hi.pc)),
        ("unresolved", Json::from(w.unresolved)),
        ("idiom", Json::str(w.predicted.idiom.label())),
        ("predicted", Json::str(predicted_kind(w.predicted))),
        ("confidence", Json::str(w.predicted.confidence.label())),
        ("impact", Json::str(w.impact.reach.tag())),
        ("sink_chain", Json::Arr(w.impact.sink_chain.iter().map(|&p| Json::from(p)).collect())),
        ("lo", side_json(&w.lo, threads)),
        ("hi", side_json(&w.hi, threads)),
    ])
}

/// Renders the lint report as a JSON document (see the README for the
/// schema). Keys are emitted in a stable order.
#[must_use]
pub fn render_json(analysis: &Analysis) -> Json {
    let s = &analysis.stats;
    let threads: Vec<Json> = analysis
        .threads
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::str(&t.name)),
                ("entry", Json::from(t.entry)),
                ("reachable_pcs", Json::from(t.reachable)),
                ("accesses", Json::from(t.accesses.len())),
            ])
        })
        .collect();
    let locks: Vec<Json> = analysis
        .locks
        .iter()
        .map(|l| {
            let (status, detail) = demotion_json(l.demoted);
            Json::obj(vec![
                ("addr", Json::from(l.addr)),
                (
                    "acquire_sites",
                    Json::Arr(l.acquire_sites.iter().map(|&p| Json::from(p)).collect()),
                ),
                (
                    "release_sites",
                    Json::Arr(l.release_sites.iter().map(|&p| Json::from(p)).collect()),
                ),
                ("status", Json::str(status)),
                ("demoted_at", detail),
            ])
        })
        .collect();
    let handoffs: Vec<Json> = analysis
        .order
        .handoffs
        .iter()
        .map(|h| {
            let (status, detail) = demotion_json(h.demoted);
            Json::obj(vec![
                ("addr", Json::from(h.addr)),
                ("release_site", h.release_site.map_or(Json::Null, Json::from)),
                (
                    "acquire_sites",
                    Json::Arr(h.acquire_sites.iter().map(|&p| Json::from(p)).collect()),
                ),
                ("status", Json::str(status)),
                ("demoted_at", detail),
            ])
        })
        .collect();
    let order_edges: Vec<Json> = analysis
        .order
        .edges
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("addr", Json::from(e.addr)),
                ("release_thread", Json::from(e.release_thread)),
                ("release_pc", Json::from(e.release_pc)),
                ("acquire_thread", Json::from(e.acquire_thread)),
                ("acquire_pc", Json::from(e.acquire_pc)),
            ])
        })
        .collect();
    let pruned_pairs: Vec<Json> = analysis
        .pruned()
        .iter()
        .map(|(&(lo, hi), reason)| {
            Json::obj(vec![
                ("pc_lo", Json::from(lo)),
                ("pc_hi", Json::from(hi)),
                ("reason", Json::str(reason.tag())),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "stats",
            Json::obj(vec![
                ("threads", Json::from(s.threads)),
                ("reachable_pcs", Json::from(s.reachable_pcs)),
                ("memory_pcs", Json::from(s.memory_pcs)),
                ("monitored_pcs", Json::from(s.monitored_pcs)),
                ("candidate_pairs", Json::from(s.candidate_pairs)),
                ("unknown_accesses", Json::from(s.unknown_accesses)),
                ("lock_candidates", Json::from(s.lock_candidates)),
                ("valid_locks", Json::from(s.valid_locks)),
                ("handoff_candidates", Json::from(s.handoff_candidates)),
                ("valid_handoffs", Json::from(s.valid_handoffs)),
                ("order_edges", Json::from(s.order_edges)),
                ("pruned_no_alias", Json::from(s.pruned_no_alias)),
                ("pruned_read_read", Json::from(s.pruned_read_read)),
                ("pruned_atomic_atomic", Json::from(s.pruned_atomic_atomic)),
                ("pruned_common_lock", Json::from(s.pruned_common_lock)),
                ("pruned_statically_ordered", Json::from(s.pruned_statically_ordered)),
                ("predicted_benign", Json::from(s.predicted_benign)),
                ("impact_unreachable", Json::from(s.impact_unreachable)),
                ("impact_possible", Json::from(s.impact_possible)),
                ("impact_proven", Json::from(s.impact_proven)),
            ]),
        ),
        ("threads", Json::Arr(threads)),
        ("locks", Json::Arr(locks)),
        ("handoffs", Json::Arr(handoffs)),
        ("order_edges", Json::Arr(order_edges)),
        ("pruned_pairs", Json::Arr(pruned_pairs)),
        (
            "warnings",
            Json::Arr(
                analysis.warnings.iter().map(|w| warning_json(w, &analysis.threads)).collect(),
            ),
        ),
    ])
}
