//! Branch prediction structures for the *Loose Loops* reproduction.
//!
//! The paper's base machine speculates through the branch-resolution loop
//! with a hardware predictor; the machine it is modelled on (Alpha
//! 21264/21364) uses a tournament predictor plus a branch target buffer, a
//! return-address stack, and a next-line predictor (the tight loop of the
//! paper's Figure 2).
//!
//! Everything here is deterministic and checkpointable: global history can
//! be saved at prediction time and restored on a mis-speculation, exactly
//! like the hardware recovery the paper describes.
//!
//! - [`BimodalPredictor`], [`GsharePredictor`], [`LocalPredictor`],
//!   [`TournamentPredictor`] — direction predictors behind the
//!   [`DirectionPredictor`] trait, selected via [`PredictorKind`].
//! - [`Btb`] — branch target buffer.
//! - [`ReturnAddressStack`] — RAS with checkpoint/restore.
//! - [`LinePredictor`] — next-fetch-line predictor (tight loop; a wrong
//!   line prediction costs a single fetch bubble).

pub mod btb;
pub mod direction;
pub mod line;
pub mod ras;

pub use btb::{Btb, BtbWarmState};
pub use direction::{
    AlwaysTaken, BimodalPredictor, DirectionPredictor, GsharePredictor, HistorySnapshot,
    LocalPredictor, PredictorKind, PredictorWarmState, TournamentPredictor,
};
pub use line::LinePredictor;
pub use ras::{RasCheckpoint, ReturnAddressStack};

/// Build a boxed direction predictor of the given kind with default sizing.
pub fn build_predictor(kind: PredictorKind) -> Box<dyn DirectionPredictor> {
    match kind {
        PredictorKind::Taken => Box::new(AlwaysTaken),
        PredictorKind::Bimodal => Box::new(BimodalPredictor::new(4096)),
        PredictorKind::Gshare => Box::new(GsharePredictor::new(4096, 12)),
        PredictorKind::Local => Box::new(LocalPredictor::new(1024, 10)),
        PredictorKind::Tournament => Box::new(TournamentPredictor::new_21264_like()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_kinds() {
        for kind in [
            PredictorKind::Taken,
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::Local,
            PredictorKind::Tournament,
        ] {
            let mut p = build_predictor(kind);
            let _ = p.predict(0x100);
            p.update(0x100, true);
            let snap = p.snapshot_history();
            p.restore_history(snap);
        }
    }
}
