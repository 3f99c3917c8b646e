//! Conditional-branch direction predictors.
//!
//! All predictors speak [`DirectionPredictor`]: the pipeline predicts at
//! fetch with `predict_ctx`, repairs histories when a branch resolves
//! mispredicted, and trains with `train_ctx` at retirement. Predictors
//! that keep global history support checkpointing via [`HistorySnapshot`]
//! so the pipeline can repair history after a squash
//! (speculative-history recovery). `update`, which the functional warmer
//! drives, runs that same sequence for one branch.

/// Which direction predictor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Static always-taken (useful as a worst-case ablation).
    Taken,
    /// Per-PC 2-bit saturating counters.
    Bimodal,
    /// Global history XOR PC indexing a 2-bit counter table.
    Gshare,
    /// Per-PC local history indexing a pattern table (21264 local side).
    Local,
    /// 21264-style tournament: local + global with a choice predictor.
    Tournament,
}

impl PredictorKind {
    /// All predictors, in the order the CLI lists them.
    pub fn all() -> [PredictorKind; 5] {
        [
            PredictorKind::Tournament,
            PredictorKind::Gshare,
            PredictorKind::Local,
            PredictorKind::Bimodal,
            PredictorKind::Taken,
        ]
    }

    /// Stable CLI/corpus name.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Tournament => "tournament",
            PredictorKind::Gshare => "gshare",
            PredictorKind::Local => "local",
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Taken => "taken",
        }
    }
}

/// Opaque saved global-history state (contents depend on the predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySnapshot(pub u64);

/// A conditional-branch direction predictor.
pub trait DirectionPredictor {
    /// Predict the direction of the branch at `pc`.
    fn predict(&self, pc: u64) -> bool;

    /// Train with the resolved direction and update every history, as the
    /// pipeline does for a branch with nothing else in flight: predict it
    /// at fetch, repair the histories if it resolves mispredicted, train at
    /// retirement.
    fn update(&mut self, pc: u64, taken: bool) {
        let history = self.snapshot_history();
        let (predicted, ctx) = self.predict_ctx(pc);
        if predicted != taken {
            self.restore_history(history);
            self.speculate_history(taken);
            self.repair(pc, ctx, taken);
        }
        self.train_ctx(pc, ctx, taken);
    }

    /// Capture global-history state (no-op snapshot for history-free
    /// predictors).
    fn snapshot_history(&self) -> HistorySnapshot {
        HistorySnapshot(0)
    }

    /// Restore global-history state captured by
    /// [`DirectionPredictor::snapshot_history`].
    fn restore_history(&mut self, _snap: HistorySnapshot) {}

    /// Speculatively shift `taken` into global history at prediction time
    /// (no-op for history-free predictors). The pipeline calls this at
    /// fetch and repairs with `restore_history` on a squash.
    fn speculate_history(&mut self, _taken: bool) {}

    /// Fetch-time prediction for deep pipelines: predict, *speculatively*
    /// shift the prediction into every internal history (global and
    /// per-branch local), and return an opaque context capturing the
    /// pre-prediction history state. The context is what
    /// [`DirectionPredictor::train_ctx`] and [`DirectionPredictor::repair`]
    /// need to train/repair against the state the prediction was actually
    /// made with — essential when several instances of the same branch are
    /// in flight.
    fn predict_ctx(&mut self, pc: u64) -> (bool, u64) {
        let t = self.predict(pc);
        self.speculate_history(t);
        (t, 0)
    }

    /// Train the tables for a resolved branch using the context returned
    /// by [`DirectionPredictor::predict_ctx`]. Histories are *not*
    /// shifted (they were shifted speculatively at fetch).
    fn train_ctx(&mut self, pc: u64, ctx: u64, taken: bool);

    /// Repair per-branch history after a misprediction of this branch:
    /// reset it to the pre-prediction context extended with the true
    /// outcome. (Global history repair is the pipeline's job via
    /// [`DirectionPredictor::restore_history`].)
    fn repair(&mut self, _pc: u64, _ctx: u64, _taken: bool) {}

    /// Snapshot the full predictor state (tables and histories) for a
    /// checkpoint; stateless predictors return the empty state.
    fn export_state(&self) -> PredictorWarmState {
        PredictorWarmState::default()
    }

    /// Restore state captured by [`DirectionPredictor::export_state`] from
    /// a predictor of the same kind and geometry. The default accepts only
    /// the empty (stateless) snapshot.
    fn import_state(&mut self, state: &PredictorWarmState) -> Result<(), String> {
        state.expect_shape(0, 0, 0, false)
    }
}

/// A direction predictor's state as a checkpoint holds it: one byte per
/// counter and two per local history. Each predictor fills the parts it
/// has and leaves the rest empty (or 0). Every counter is in its range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictorWarmState {
    history: u64,
    counters: Vec<u8>,
    local_histories: Vec<u16>,
    local_counters: Vec<u8>,
}

impl PredictorWarmState {
    /// A state from its parts: the global history, the 2-bit counters
    /// (the bimodal or gshare table, or the tournament's global table
    /// followed by its choice table), the per-branch local histories and
    /// the 3-bit local pattern counters.
    ///
    /// # Errors
    ///
    /// A message naming a 2-bit counter above 3 or a pattern counter
    /// above 7.
    pub fn new(
        history: u64,
        counters: Vec<u8>,
        local_histories: Vec<u16>,
        local_counters: Vec<u8>,
    ) -> Result<PredictorWarmState, String> {
        for (table, max, what) in [
            (&counters, 3, "counter"),
            (&local_counters, 7, "local pattern counter"),
        ] {
            if let Some(c) = table.iter().find(|&&c| c > max) {
                return Err(format!("{what} value {c} out of range 0..={max}"));
            }
        }
        Ok(PredictorWarmState {
            history,
            counters,
            local_histories,
            local_counters,
        })
    }

    /// Global branch history.
    pub fn history(&self) -> u64 {
        self.history
    }

    /// 2-bit counter values (0..=3).
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }

    /// Per-branch local histories.
    pub fn local_histories(&self) -> &[u16] {
        &self.local_histories
    }

    /// 3-bit local pattern counter values (0..=7).
    pub fn local_counters(&self) -> &[u8] {
        &self.local_counters
    }

    /// Check that the state has the table sizes of the predictor
    /// importing it, and no global history unless it keeps one.
    fn expect_shape(
        &self,
        counters: usize,
        local_histories: usize,
        local_counters: usize,
        history: bool,
    ) -> Result<(), String> {
        let got = [
            self.counters.len(),
            self.local_histories.len(),
            self.local_counters.len(),
        ];
        let want = [counters, local_histories, local_counters];
        if got != want {
            return Err(format!(
                "snapshot has {got:?} counters, local histories and pattern counters; the predictor keeps {want:?}"
            ));
        }
        if !history && self.history != 0 {
            return Err("snapshot has a global history the predictor does not keep".into());
        }
        Ok(())
    }
}

/// 2-bit saturating counter helper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter2(u8);

impl Counter2 {
    /// Weakly-not-taken initial state.
    pub fn new() -> Counter2 {
        Counter2(1)
    }

    /// Counter value 0–3.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Predicted direction (counter >= 2).
    pub fn taken(self) -> bool {
        self.0 >= 2
    }

    /// Saturating train toward `taken`.
    pub fn train(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Shared helper: restore a `Counter2` table from snapshot values, which
/// [`PredictorWarmState`] keeps in range.
fn import_counters(dst: &mut [Counter2], values: &[u8]) {
    for (d, &v) in dst.iter_mut().zip(values) {
        *d = Counter2(v);
    }
}

/// Static always-taken predictor.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysTaken;

impl DirectionPredictor for AlwaysTaken {
    fn predict(&self, _pc: u64) -> bool {
        true
    }
    fn train_ctx(&mut self, _pc: u64, _ctx: u64, _taken: bool) {}
}

/// Classic bimodal predictor: one 2-bit counter per PC hash.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: Vec<Counter2>,
}

impl BimodalPredictor {
    /// `entries` must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics otherwise.
    pub fn new(entries: usize) -> BimodalPredictor {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        BimodalPredictor {
            table: vec![Counter2::new(); entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.table.len() - 1)
    }
}

impl DirectionPredictor for BimodalPredictor {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }

    fn train_ctx(&mut self, pc: u64, _ctx: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].train(taken);
    }

    fn export_state(&self) -> PredictorWarmState {
        PredictorWarmState {
            counters: self.table.iter().map(|c| c.value()).collect(),
            ..PredictorWarmState::default()
        }
    }

    fn import_state(&mut self, state: &PredictorWarmState) -> Result<(), String> {
        state.expect_shape(self.table.len(), 0, 0, false)?;
        import_counters(&mut self.table, &state.counters);
        Ok(())
    }
}

/// Gshare: global branch history XORed with the PC indexes a counter table.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<Counter2>,
    history: u64,
    hist_bits: u32,
}

impl GsharePredictor {
    /// `entries` must be a power of two; `hist_bits` ≤ 32.
    ///
    /// # Panics
    ///
    /// Panics on invalid sizing.
    pub fn new(entries: usize, hist_bits: u32) -> GsharePredictor {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(hist_bits <= 32, "history too long");
        GsharePredictor {
            table: vec![Counter2::new(); entries],
            history: 0,
            hist_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.hist_bits) - 1;
        ((pc ^ (self.history & mask)) as usize) & (self.table.len() - 1)
    }
}

impl DirectionPredictor for GsharePredictor {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }

    fn snapshot_history(&self) -> HistorySnapshot {
        HistorySnapshot(self.history)
    }

    fn restore_history(&mut self, snap: HistorySnapshot) {
        self.history = snap.0;
    }

    fn speculate_history(&mut self, taken: bool) {
        self.history = (self.history << 1) | taken as u64;
    }

    fn predict_ctx(&mut self, pc: u64) -> (bool, u64) {
        let ctx = self.history;
        let t = self.predict(pc);
        self.speculate_history(t);
        (t, ctx)
    }

    fn train_ctx(&mut self, pc: u64, ctx: u64, taken: bool) {
        let mask = (1u64 << self.hist_bits) - 1;
        let i = ((pc ^ (ctx & mask)) as usize) & (self.table.len() - 1);
        self.table[i].train(taken);
    }

    fn export_state(&self) -> PredictorWarmState {
        PredictorWarmState {
            history: self.history,
            counters: self.table.iter().map(|c| c.value()).collect(),
            ..PredictorWarmState::default()
        }
    }

    fn import_state(&mut self, state: &PredictorWarmState) -> Result<(), String> {
        state.expect_shape(self.table.len(), 0, 0, true)?;
        import_counters(&mut self.table, &state.counters);
        self.history = state.history;
        Ok(())
    }
}

/// Local-history predictor: per-PC history registers index a shared pattern
/// table of 3-bit counters (the 21264's local side).
#[derive(Debug, Clone)]
pub struct LocalPredictor {
    histories: Vec<u16>,
    pattern: Vec<u8>, // 3-bit counters
    hist_bits: u32,
}

impl LocalPredictor {
    /// `entries` history registers of `hist_bits` bits each; the pattern
    /// table has `2^hist_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two `entries` or `hist_bits > 16`.
    pub fn new(entries: usize, hist_bits: u32) -> LocalPredictor {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(hist_bits <= 16, "local history too long");
        LocalPredictor {
            histories: vec![0; entries],
            pattern: vec![3; 1 << hist_bits], // weakly not-taken of 0..=7
            hist_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.histories.len() - 1)
    }

    fn pattern_index(&self, pc: u64) -> usize {
        let mask = (1u16 << self.hist_bits) - 1;
        (self.histories[self.index(pc)] & mask) as usize
    }

    /// Would history value `hist` predict taken? (Used by the tournament
    /// to reconstruct fetch-time component predictions at train time.)
    pub fn pattern_taken(&self, hist: u16) -> bool {
        let mask = (1u16 << self.hist_bits) - 1;
        self.pattern[(hist & mask) as usize] >= 4
    }
}

impl LocalPredictor {
    fn train_pattern(&mut self, hist: u16, taken: bool) {
        let mask = (1u16 << self.hist_bits) - 1;
        let c = &mut self.pattern[(hist & mask) as usize];
        if taken {
            *c = (*c + 1).min(7);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

impl DirectionPredictor for LocalPredictor {
    fn predict(&self, pc: u64) -> bool {
        self.pattern[self.pattern_index(pc)] >= 4
    }

    fn predict_ctx(&mut self, pc: u64) -> (bool, u64) {
        let hi = self.index(pc);
        let ctx = self.histories[hi];
        let t = self.predict(pc);
        // Speculatively extend this branch's history with the prediction so
        // in-flight instances of the same branch see each other.
        self.histories[hi] = (ctx << 1) | t as u16;
        (t, ctx as u64)
    }

    fn train_ctx(&mut self, _pc: u64, ctx: u64, taken: bool) {
        self.train_pattern(ctx as u16, taken);
    }

    fn repair(&mut self, pc: u64, ctx: u64, taken: bool) {
        // The speculative shifts past this branch were wrong-path: reset to
        // the pre-prediction state extended with the true outcome.
        let hi = self.index(pc);
        self.histories[hi] = ((ctx as u16) << 1) | taken as u16;
    }

    fn export_state(&self) -> PredictorWarmState {
        PredictorWarmState {
            local_histories: self.histories.clone(),
            local_counters: self.pattern.clone(),
            ..PredictorWarmState::default()
        }
    }

    fn import_state(&mut self, state: &PredictorWarmState) -> Result<(), String> {
        let (h, p) = (self.histories.len(), self.pattern.len());
        state.expect_shape(0, h, p, false)?;
        self.import_local(state);
        Ok(())
    }
}

impl LocalPredictor {
    /// Copy the histories and pattern counters of a `state` whose shape
    /// the caller checked: the part of a snapshot the tournament shares.
    fn import_local(&mut self, state: &PredictorWarmState) {
        self.histories.copy_from_slice(&state.local_histories);
        self.pattern.copy_from_slice(&state.local_counters);
    }
}

/// Alpha 21264-style tournament predictor: a local predictor and a global
/// (history-indexed) predictor arbitrated by a choice table indexed by
/// global history.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    local: LocalPredictor,
    global: Vec<Counter2>,
    choice: Vec<Counter2>,
    history: u64,
    hist_bits: u32,
}

impl TournamentPredictor {
    /// The 21264 sizing: 1024×10-bit local histories, 4096-entry global and
    /// choice tables over 12 bits of global history.
    pub fn new_21264_like() -> TournamentPredictor {
        TournamentPredictor::new(1024, 10, 4096, 12)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two table sizes.
    pub fn new(
        local_entries: usize,
        local_bits: u32,
        global_entries: usize,
        global_bits: u32,
    ) -> TournamentPredictor {
        assert!(
            global_entries.is_power_of_two(),
            "global table must be a power of two"
        );
        TournamentPredictor {
            local: LocalPredictor::new(local_entries, local_bits),
            global: vec![Counter2::new(); global_entries],
            choice: vec![Counter2::new(); global_entries],
            history: 0,
            hist_bits: global_bits,
        }
    }

    fn gindex(&self) -> usize {
        let mask = (1u64 << self.hist_bits) - 1;
        ((self.history & mask) as usize) & (self.global.len() - 1)
    }
}

impl DirectionPredictor for TournamentPredictor {
    fn predict(&self, pc: u64) -> bool {
        let use_global = self.choice[self.gindex()].taken();
        if use_global {
            self.global[self.gindex()].taken()
        } else {
            self.local.predict(pc)
        }
    }

    fn snapshot_history(&self) -> HistorySnapshot {
        HistorySnapshot(self.history)
    }

    fn restore_history(&mut self, snap: HistorySnapshot) {
        self.history = snap.0;
    }

    fn speculate_history(&mut self, taken: bool) {
        self.history = (self.history << 1) | taken as u64;
    }

    fn predict_ctx(&mut self, pc: u64) -> (bool, u64) {
        let gctx = self.history;
        let gi = self.gindex();
        let (lt, lctx) = self.local.predict_ctx(pc);
        let t = if self.choice[gi].taken() {
            self.global[gi].taken()
        } else {
            lt
        };
        // Keep the local speculative history consistent with the actual
        // prediction when the global side overrides it.
        if t != lt {
            self.local.repair(pc, lctx, t);
        }
        self.speculate_history(t);
        (t, (lctx & 0xffff) | (gctx << 16))
    }

    fn train_ctx(&mut self, pc: u64, ctx: u64, taken: bool) {
        let lctx = ctx & 0xffff;
        let gctx = ctx >> 16;
        let mask = (1u64 << self.hist_bits) - 1;
        let gi = ((gctx & mask) as usize) & (self.global.len() - 1);
        let global_pred = self.global[gi].taken();
        // Reconstruct the local prediction made at fetch.
        let local_pred = self.local.pattern_taken(lctx as u16);
        // Train the choice table toward whichever component was right
        // (only when they disagree).
        if global_pred != local_pred {
            self.choice[gi].train(global_pred == taken);
        }
        self.global[gi].train(taken);
        self.local.train_ctx(pc, lctx, taken);
    }

    fn repair(&mut self, pc: u64, ctx: u64, taken: bool) {
        self.local.repair(pc, ctx & 0xffff, taken);
    }

    fn export_state(&self) -> PredictorWarmState {
        let counters = self.global.iter().chain(&self.choice);
        PredictorWarmState {
            history: self.history,
            counters: counters.map(|c| c.value()).collect(),
            ..self.local.export_state()
        }
    }

    fn import_state(&mut self, state: &PredictorWarmState) -> Result<(), String> {
        let n = self.global.len();
        let (h, p) = (self.local.histories.len(), self.local.pattern.len());
        state.expect_shape(2 * n, h, p, true)?;
        let (global, choice) = state.counters.split_at(n);
        import_counters(&mut self.global, global);
        import_counters(&mut self.choice, choice);
        self.local.import_local(state);
        self.history = state.history;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter2_saturates() {
        let mut c = Counter2::new();
        assert_eq!(c.value(), 1);
        c.train(false);
        c.train(false);
        assert_eq!(c.value(), 0);
        for _ in 0..5 {
            c.train(true);
        }
        assert_eq!(c.value(), 3);
        assert!(c.taken());
    }

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = BimodalPredictor::new(16);
        for _ in 0..4 {
            p.update(0x40, true);
        }
        assert!(p.predict(0x40));
        for _ in 0..4 {
            p.update(0x80, false);
        }
        assert!(!p.predict(0x80));
    }

    #[test]
    fn bimodal_aliases_by_table_size() {
        let mut p = BimodalPredictor::new(16);
        for _ in 0..4 {
            p.update(0, true);
        }
        assert!(p.predict(16), "pc 16 aliases pc 0 in a 16-entry table");
    }

    #[test]
    fn gshare_learns_history_correlated_patterns() {
        // Branch taken iff the previous branch was not taken (alternating)
        // is unlearnable by bimodal but trivial for gshare.
        let mut p = GsharePredictor::new(256, 8);
        let pc = 0x1234;
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..200 {
            outcome = !outcome;
            if i >= 100 && p.predict(pc) == outcome {
                correct += 1;
            }
            p.update(pc, outcome);
        }
        assert!(
            correct >= 95,
            "gshare should nail an alternating pattern, got {correct}/100"
        );
    }

    #[test]
    fn local_learns_short_periodic_patterns() {
        // Period-3 pattern T T N per PC.
        let mut p = LocalPredictor::new(64, 10);
        let pat = [true, true, false];
        let pc = 0x88;
        let mut correct = 0;
        for i in 0..300 {
            let outcome = pat[i % 3];
            if i >= 150 && p.predict(pc) == outcome {
                correct += 1;
            }
            p.update(pc, outcome);
        }
        assert!(
            correct >= 140,
            "local should learn period-3, got {correct}/150"
        );
    }

    #[test]
    fn tournament_beats_both_components_on_mixed_workload() {
        let mut t = TournamentPredictor::new_21264_like();
        // PC A follows a local period-2 pattern; PC B follows global
        // correlation (equal to A's last outcome).
        let (a, b) = (0x100, 0x200);
        let mut a_out = false;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400 {
            a_out = !a_out;
            if i >= 200 {
                total += 2;
                if t.predict(a) == a_out {
                    correct += 1;
                }
            }
            t.update(a, a_out);
            let b_out = a_out;
            if i >= 200 && t.predict(b) == b_out {
                correct += 1;
            }
            t.update(b, b_out);
        }
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn history_snapshot_round_trips() {
        let mut p = GsharePredictor::new(64, 8);
        p.update(1, true);
        p.update(1, false);
        let snap = p.snapshot_history();
        p.speculate_history(true);
        p.speculate_history(true);
        assert_ne!(p.snapshot_history(), snap);
        p.restore_history(snap);
        assert_eq!(p.snapshot_history(), snap);
    }

    #[test]
    fn always_taken_is_constant() {
        let mut p = AlwaysTaken;
        assert!(p.predict(0));
        p.update(0, false);
        assert!(p.predict(0));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = BimodalPredictor::new(100);
    }

    /// A predictor warmed by one seeded stream, exported and imported into
    /// a fresh one, predicts a second stream exactly like the original —
    /// one branch at a time (`update`), and with the pipelined calls
    /// (`predict_ctx`/`train_ctx`/`repair`) made directly — and ends in the
    /// same state.
    #[test]
    fn predictor_state_round_trips_every_kind() {
        let mut rng = looseloops_rng::Rng::seed_from_u64(0xb7a1);
        for kind in PredictorKind::all() {
            let mut trained = crate::build_predictor(kind);
            for _ in 0..3000 {
                let pc = rng.gen_range(0u64..512) * 4;
                trained.update(pc, rng.gen_bool(0.6));
            }
            let state = trained.export_state();
            let mut fresh = crate::build_predictor(kind);
            fresh
                .import_state(&state)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(fresh.export_state(), state, "{kind:?}");
            for i in 0..3000 {
                let pc = rng.gen_range(0u64..512) * 4;
                let taken = rng.gen_bool(0.6);
                if i % 2 == 0 {
                    assert_eq!(trained.predict(pc), fresh.predict(pc), "{kind:?} {i}");
                    trained.update(pc, taken);
                    fresh.update(pc, taken);
                } else {
                    let (t, ctx) = trained.predict_ctx(pc);
                    assert_eq!(fresh.predict_ctx(pc), (t, ctx), "{kind:?} {i}");
                    for p in [&mut trained, &mut fresh] {
                        p.train_ctx(pc, ctx, taken);
                        if t != taken {
                            p.repair(pc, ctx, taken);
                        }
                    }
                }
            }
            assert_eq!(trained.export_state(), fresh.export_state(), "{kind:?}");
        }
    }

    #[test]
    fn corrupt_predictor_snapshots_are_rejected() {
        let counters = |counters| PredictorWarmState::new(0, counters, vec![], vec![]);
        assert!(counters(vec![4]).is_err(), "out-of-range counter");
        let local = |c| PredictorWarmState::new(0, vec![], vec![0xffff; 4], vec![c; 4]);
        assert!(local(8).is_err(), "out-of-range pattern counter");

        let mut p = BimodalPredictor::new(16);
        p.import_state(&counters(vec![3; 16]).unwrap())
            .expect("in range");
        assert!(
            p.import_state(&counters(vec![0; 15]).unwrap()).is_err(),
            "wrong length"
        );
        let history = PredictorWarmState::new(1, vec![0; 16], vec![], vec![]).unwrap();
        assert!(
            p.import_state(&history).is_err(),
            "bimodal keeps no history"
        );
        let mut l = LocalPredictor::new(4, 2);
        l.import_state(&local(7).unwrap()).expect("in range");
        assert!(BimodalPredictor::new(4)
            .import_state(&local(7).unwrap())
            .is_err());
        let mut t = TournamentPredictor::new(16, 4, 16, 4);
        assert!(t.import_state(&PredictorWarmState::default()).is_err());
        let mut a = AlwaysTaken;
        assert!(a.import_state(&PredictorWarmState::default()).is_ok());
        assert!(a.import_state(&counters(vec![1]).unwrap()).is_err());
    }
}
