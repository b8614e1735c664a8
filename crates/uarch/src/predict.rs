//! Branch prediction: a bimodal conditional predictor and a tagged BTB.
//!
//! The PACMAN attack trains both (paper §4.4): the conditional predictor
//! so the gadget's outer branch mis-speculates into the gadget body, and
//! the BTB so the inner indirect branch initially fetches a known target,
//! letting the eager squash expose the verified pointer (Figure 3(d)).

use std::collections::HashMap;

use crate::fasthash::FxBuild;

/// A 2-bit saturating counter.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
struct Counter2(u8);

impl Counter2 {
    const WEAKLY_NOT_TAKEN: Counter2 = Counter2(1);

    fn predict_taken(self) -> bool {
        self.0 >= 2
    }

    fn train(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Bimodal (per-PC 2-bit counter) conditional branch predictor.
#[derive(Clone, Debug, Default)]
pub struct Bimodal {
    table: HashMap<u64, Counter2, FxBuild>,
}

impl Bimodal {
    /// Creates an empty predictor (unknown branches predict not-taken).
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted direction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.table.get(&pc).copied().unwrap_or(Counter2::WEAKLY_NOT_TAKEN).predict_taken()
    }

    /// Trains the counter with the resolved direction and returns the
    /// direction [`Bimodal::predict`] gave before training — one table
    /// probe for the predict-then-train a resolving branch performs.
    pub fn train(&mut self, pc: u64, taken: bool) -> bool {
        let counter = self.table.entry(pc).or_insert(Counter2::WEAKLY_NOT_TAKEN);
        let predicted = counter.predict_taken();
        counter.train(taken);
        predicted
    }

    /// Forgets everything (used between independent experiments).
    pub fn reset(&mut self) {
        self.table.clear();
    }
}

/// Branch target buffer for indirect branches.
#[derive(Clone, Debug, Default)]
pub struct Btb {
    table: HashMap<u64, u64, FxBuild>,
}

impl Btb {
    /// Creates an empty BTB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted target of the indirect branch at `pc`, if any.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.table.get(&pc).copied()
    }

    /// Records the resolved target and returns the target
    /// [`Btb::predict`] gave before (one table probe).
    pub fn train(&mut self, pc: u64, target: u64) -> Option<u64> {
        self.table.insert(pc, target)
    }

    /// Forgets everything.
    pub fn reset(&mut self) {
        self.table.clear();
    }
}

/// A return stack buffer: call instructions push their return address,
/// `ret` pops the prediction. Bounded; overflow discards the oldest
/// entry, underflow predicts nothing (falling back to the BTB).
#[derive(Clone, Debug)]
pub struct Rsb {
    stack: Vec<u64>,
    capacity: usize,
}

impl Default for Rsb {
    fn default() -> Self {
        Self::new(16)
    }
}

impl Rsb {
    /// Creates an RSB with the given depth.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Records a call's return address.
    pub fn push(&mut self, return_address: u64) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(return_address);
    }

    /// Consumes and returns the prediction for the next `ret`.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Forgets everything.
    pub fn reset(&mut self) {
        self.stack.clear();
    }
}

/// Always-on prediction-outcome counters (plain `u64` adds in the
/// branch-resolution paths; exported into a telemetry registry at
/// snapshot time). The predictors themselves stay outcome-free — the
/// machine resolves branches, so the machine counts.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct PredictStats {
    /// Conditional branches the bimodal predictor called correctly.
    pub bimodal_correct: u64,
    /// Conditional branches it mispredicted (each opens a shadow).
    pub bimodal_mispredicts: u64,
    /// Indirect branches with a BTB-predicted target available.
    pub btb_hits: u64,
    /// Indirect branches with no BTB entry (no speculation possible).
    pub btb_misses: u64,
    /// BTB predictions that named the wrong target.
    pub btb_mispredicts: u64,
    /// Returns predicted from the RSB.
    pub rsb_hits: u64,
    /// Returns that underflowed the RSB and fell back to the BTB.
    pub rsb_underflows: u64,
    /// Returns whose predicted target (RSB or BTB) was wrong.
    pub ret_mispredicts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsb_is_a_bounded_lifo() {
        let mut r = Rsb::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // evicts 1
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None, "entry 1 was discarded on overflow");
    }

    #[test]
    fn rsb_reset_clears() {
        let mut r = Rsb::default();
        r.push(42);
        r.reset();
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn bimodal_defaults_not_taken() {
        let p = Bimodal::new();
        assert!(!p.predict(0x1000));
    }

    #[test]
    fn bimodal_learns_taken_from_weakly_not_taken() {
        // Counters initialise weakly not-taken (state 1), so a single
        // taken outcome flips the prediction.
        let mut p = Bimodal::new();
        p.train(0x1000, true);
        assert!(p.predict(0x1000));
        p.train(0x1000, false);
        assert!(!p.predict(0x1000), "weak-taken flips back after one not-taken");
    }

    #[test]
    fn bimodal_hysteresis_survives_one_opposite_outcome() {
        // This is exactly the attack's requirement: after 64 taken
        // trainings, a single not-taken execution still predicts taken —
        // i.e. the gadget body runs speculatively (paper §8.1 step 1/4).
        let mut p = Bimodal::new();
        for _ in 0..64 {
            p.train(0x40, true);
        }
        assert!(p.predict(0x40));
        p.train(0x40, false);
        assert!(p.predict(0x40), "saturated counter must survive one mispredict");
        p.train(0x40, false);
        p.train(0x40, false);
        assert!(!p.predict(0x40), "repeated not-taken retrains the counter");
    }

    #[test]
    fn training_returns_the_prediction_it_replaces() {
        let mut p = Bimodal::new();
        let mut shadow = Bimodal::new();
        for (i, taken) in
            [true, true, false, true, false, false, false, true].into_iter().enumerate()
        {
            let pc = 0x40 + 4 * (i as u64 % 2);
            let before = shadow.predict(pc);
            shadow.train(pc, taken);
            assert_eq!(p.train(pc, taken), before, "step {i}");
        }
        let mut b = Btb::new();
        assert_eq!(b.train(0x100, 0xAAAA), None);
        assert_eq!(b.train(0x100, 0xBBBB), Some(0xAAAA));
        assert_eq!(b.predict(0x100), Some(0xBBBB));
    }

    #[test]
    fn bimodal_is_per_pc() {
        let mut p = Bimodal::new();
        p.train(0x40, true);
        p.train(0x40, true);
        assert!(p.predict(0x40));
        assert!(!p.predict(0x44));
    }

    #[test]
    fn btb_remembers_last_target() {
        let mut b = Btb::new();
        assert_eq!(b.predict(0x100), None);
        b.train(0x100, 0xAAAA);
        assert_eq!(b.predict(0x100), Some(0xAAAA));
        b.train(0x100, 0xBBBB);
        assert_eq!(b.predict(0x100), Some(0xBBBB));
    }

    #[test]
    fn resets_clear_state() {
        let mut p = Bimodal::new();
        let mut b = Btb::new();
        p.train(1, true);
        p.train(1, true);
        b.train(1, 2);
        p.reset();
        b.reset();
        assert!(!p.predict(1));
        assert_eq!(b.predict(1), None);
    }
}
