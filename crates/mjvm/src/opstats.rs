//! Dynamic opcode and opcode-pair frequency profiling.
//!
//! `repro opstats <app>` runs an app with counting enabled and prints the
//! hot-pair table — the measurement that justifies which pairs
//! [`crate::pcode`] fuses into superinstructions. Counting is keyed by
//! [`crate::instr::Instr::mnemonic`], so operand values aggregate, and a
//! pair is two *consecutively retired* instructions within one quantum of
//! one thread (the chain resets at quantum boundaries, which keeps the
//! numbers deterministic under any scheduling).

use std::collections::HashMap;

/// Retired-instruction counters for one run (or one node of a run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Retirements per opcode.
    pub counts: HashMap<&'static str, u64>,
    /// Retirements per consecutive opcode pair.
    pub pairs: HashMap<(&'static str, &'static str), u64>,
    /// Previous retired opcode within the current chain, if unbroken.
    pub prev: Option<&'static str>,
}

impl OpStats {
    /// Record one retired instruction, extending the current pair chain.
    #[inline]
    pub fn retire(&mut self, m: &'static str) {
        *self.counts.entry(m).or_insert(0) += 1;
        if let Some(p) = self.prev {
            *self.pairs.entry((p, m)).or_insert(0) += 1;
        }
        self.prev = Some(m);
    }

    /// Break the pair chain (quantum boundary, frame switch, trap).
    #[inline]
    pub fn reset_chain(&mut self) {
        self.prev = None;
    }

    /// Fold another node's counters into this one.
    pub fn merge(&mut self, other: &OpStats) {
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.pairs {
            *self.pairs.entry(*k).or_insert(0) += v;
        }
    }

    /// Total retired instructions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The `n` most frequent opcodes, descending (ties broken by name so
    /// the table is stable).
    pub fn top_ops(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// The `n` most frequent consecutive pairs, descending.
    pub fn top_pairs(&self, n: usize) -> Vec<((&'static str, &'static str), u64)> {
        let mut v: Vec<_> = self.pairs.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Render the hot tables in the EXPERIMENTS.md markdown style.
    pub fn render(&self, n: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let total = self.total().max(1);
        let _ = writeln!(s, "| # | opcode | count | % |");
        let _ = writeln!(s, "|---|--------|-------|---|");
        for (i, (op, c)) in self.top_ops(n).into_iter().enumerate() {
            let _ =
                writeln!(s, "| {} | `{}` | {} | {:.1} |", i + 1, op, c, c as f64 * 100.0 / total as f64);
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "| # | pair | count | % |");
        let _ = writeln!(s, "|---|------|-------|---|");
        for (i, ((a, b), c)) in self.top_pairs(n).into_iter().enumerate() {
            let _ = writeln!(
                s,
                "| {} | `{}` → `{}` | {} | {:.1} |",
                i + 1,
                a,
                b,
                c,
                c as f64 * 100.0 / total as f64
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_follow_chains() {
        let mut s = OpStats::default();
        s.retire("load");
        s.retire("getfield_q");
        s.retire("load");
        s.reset_chain();
        s.retire("getfield_q");
        assert_eq!(s.counts["load"], 2);
        assert_eq!(s.counts["getfield_q"], 2);
        assert_eq!(s.pairs[&("load", "getfield_q")], 1);
        assert_eq!(s.pairs[&("getfield_q", "load")], 1);
        assert_eq!(s.total(), 4);
        // The reset means getfield_q after it pairs with nothing.
        assert_eq!(s.pairs.len(), 2);
    }

    #[test]
    fn merge_and_rank() {
        let mut a = OpStats::default();
        a.retire("iadd");
        a.retire("iadd");
        let mut b = OpStats::default();
        b.retire("iadd");
        b.retire("load");
        a.merge(&b);
        assert_eq!(a.counts["iadd"], 3);
        assert_eq!(a.top_ops(1), vec![("iadd", 3)]);
        assert_eq!(a.top_pairs(5).len(), 2);
    }
}
