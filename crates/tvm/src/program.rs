//! Program container: instructions, entry points, marks, and global
//! variable layout.

use std::collections::HashMap;
use std::fmt;

use crate::isa::Instr;

/// Specification of one thread of a [`Program`]: where it starts executing
/// and the initial values of its first argument registers (`r0..`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadSpec {
    /// Human-readable thread name, used in reports.
    pub name: String,
    /// Absolute instruction index at which the thread starts.
    pub entry: usize,
    /// Values loaded into `r0`, `r1`, ... before the thread runs.
    pub args: Vec<u64>,
}

/// A complete multi-threaded program for the VM.
///
/// Programs are immutable once built. Use [`ProgramBuilder`] to construct one
/// in code, or [`asm::assemble`] to parse the text form.
///
/// [`ProgramBuilder`]: crate::builder::ProgramBuilder
/// [`asm::assemble`]: crate::asm::assemble
#[derive(Clone, Debug, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    threads: Vec<ThreadSpec>,
    /// Named instruction positions ("marks"), used by workloads to attach
    /// ground-truth labels to specific static instructions.
    marks: HashMap<String, usize>,
    /// Initial values of global memory words (address -> value).
    globals: HashMap<u64, u64>,
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// Prefer [`ProgramBuilder`] in application code; this constructor is for
    /// tooling (the assembler, generators in tests).
    ///
    /// # Panics
    ///
    /// Panics if any thread entry is out of range.
    ///
    /// [`ProgramBuilder`]: crate::builder::ProgramBuilder
    #[must_use]
    pub fn from_parts(
        instrs: Vec<Instr>,
        threads: Vec<ThreadSpec>,
        marks: HashMap<String, usize>,
        globals: HashMap<u64, u64>,
    ) -> Self {
        for t in &threads {
            assert!(t.entry < instrs.len() || instrs.is_empty(), "thread entry out of range");
        }
        Program { instrs, threads, marks, globals }
    }

    /// The instruction at index `pc`, or `None` past the end.
    #[must_use]
    pub fn instr(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// All instructions.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The thread specifications.
    #[must_use]
    pub fn threads(&self) -> &[ThreadSpec] {
        &self.threads
    }

    /// Resolves a mark name to its instruction index.
    #[must_use]
    pub fn mark(&self, name: &str) -> Option<usize> {
        self.marks.get(name).copied()
    }

    /// All marks as a map from name to instruction index.
    #[must_use]
    pub fn marks(&self) -> &HashMap<String, usize> {
        &self.marks
    }

    /// The name of the mark placed at instruction `pc`, if any; the
    /// smallest name when several marks share it, so the answer does not
    /// depend on hash-map order.
    #[must_use]
    pub fn mark_at(&self, pc: usize) -> Option<&str> {
        self.marks.iter().filter(|&(_, &p)| p == pc).map(|(name, _)| name.as_str()).min()
    }

    /// Initial global-memory image.
    #[must_use]
    pub fn globals(&self) -> &HashMap<u64, u64> {
        &self.globals
    }
}

impl fmt::Display for Program {
    /// Disassembles the whole program, one instruction per line, with marks
    /// shown as `name:` prefixes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut by_pc: HashMap<usize, Vec<&str>> = HashMap::new();
        for (name, &pc) in &self.marks {
            by_pc.entry(pc).or_default().push(name);
        }
        for (pc, instr) in self.instrs.iter().enumerate() {
            if let Some(names) = by_pc.get(&pc) {
                for name in names {
                    writeln!(f, "{name}:")?;
                }
            }
            writeln!(f, "  {pc:4}  {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Reg};

    fn tiny() -> Program {
        let instrs = vec![Instr::MovImm { dst: Reg::R0, imm: 1 }, Instr::Halt];
        let threads = vec![ThreadSpec { name: "main".into(), entry: 0, args: vec![] }];
        let mut marks = HashMap::new();
        marks.insert("start".to_string(), 0);
        Program::from_parts(instrs, threads, marks, HashMap::new())
    }

    #[test]
    fn lookup_and_marks() {
        let p = tiny();
        assert_eq!(p.len(), 2);
        assert_eq!(p.mark("start"), Some(0));
        assert_eq!(p.mark("missing"), None);
        assert_eq!(p.mark_at(0), Some("start"));
        assert_eq!(p.mark_at(1), None);
        assert!(matches!(p.instr(1), Some(Instr::Halt)));
        assert!(p.instr(2).is_none());
    }

    /// Hash maps iterate in a different order per instance, even within
    /// one process; several marks on one pc must still name it the same
    /// way every time.
    #[test]
    fn mark_at_picks_the_smallest_of_several_names() {
        for _ in 0..64 {
            let p = crate::asm::assemble(".thread t\n.mark zeta\n.mark alpha\n  halt\n").unwrap();
            assert_eq!(p.mark_at(0), Some("alpha"));
        }
    }

    #[test]
    #[should_panic(expected = "thread entry out of range")]
    fn bad_entry_panics() {
        let _ = Program::from_parts(
            vec![Instr::Halt],
            vec![ThreadSpec { name: "t".into(), entry: 5, args: vec![] }],
            HashMap::new(),
            HashMap::new(),
        );
    }

    #[test]
    fn display_includes_marks() {
        let p = tiny();
        let text = p.to_string();
        assert!(text.contains("start:"));
        assert!(text.contains("halt"));
    }
}
