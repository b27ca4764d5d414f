//! Reader-to-reader interference.
//!
//! The paper's most striking negative result: adding a *second reader* to a
//! portal severely reduced reliability, because the readers jammed each
//! other — their Matrix AR400s predate the optional Gen-2 "dense-reader
//! mode". Two mechanisms are modeled:
//!
//! * **Reverse jamming** — an interfering reader's carrier lands in the
//!   victim reader's receive band and swamps the microwatt tag backscatter
//!   unless the backscatter exceeds it by a protection ratio. Dense-reader
//!   mode confines reader spectra to their own channels and pushes tag
//!   replies into guard bands, restoring tens of dB of isolation.
//! * **Forward jamming** — a tag's envelope detector sees the *sum* of all
//!   carriers; a comparable second carrier fills in the victim reader's
//!   ASK modulation dips, so commands fail unless the commanding carrier
//!   captures the detector. Dense-reader deployments additionally
//!   time-coordinate commands (LBT/synchronized sessions), which we model
//!   as coordinated == no overlapping commands.

use serde::{Deserialize, Serialize};

/// Per-reader RF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReaderRf {
    /// FCC channel index, 0-49 (902-928 MHz, 500 kHz spacing).
    pub channel: u8,
    /// Whether the reader implements dense-reader mode (optional in Gen-2;
    /// the paper's readers did not support it).
    pub dense_mode: bool,
}

impl ReaderRf {
    /// A pre-dense-mode reader like the paper's AR400, on channel 0.
    #[must_use]
    pub fn legacy() -> Self {
        Self {
            channel: 0,
            dense_mode: false,
        }
    }

    /// A dense-reader-mode reader on the given channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not a valid FCC channel index (0-49).
    #[must_use]
    pub fn dense(channel: u8) -> Self {
        assert!(channel < 50, "FCC UHF band has channels 0-49");
        Self {
            channel,
            dense_mode: true,
        }
    }

    /// Whether `self` and `other` are spectrally separated (both dense-mode
    /// *and* on different channels).
    #[must_use]
    pub fn spectrally_separated(&self, other: &ReaderRf) -> bool {
        self.dense_mode && other.dense_mode && self.channel != other.channel
    }
}

/// Outcome of an interference assessment for one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterferenceOutcome {
    /// The exchange proceeds normally.
    Clear,
    /// The tag cannot decode the reader command.
    ForwardJammed,
    /// The reader cannot decode the tag backscatter.
    ReverseJammed,
}

/// Thresholds of the interference model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// Required backscatter-to-interference ratio at the victim receiver
    /// for decode, in dB.
    pub protection_ratio_db: f64,
    /// Isolation gained when victim and interferer are spectrally
    /// separated (dense mode, different channels), in dB.
    pub dense_isolation_db: f64,
    /// Margin by which the commanding carrier must exceed an interfering
    /// carrier *at the tag* for the tag to capture the command, in dB.
    pub forward_capture_margin_db: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        Self {
            protection_ratio_db: 10.0,
            dense_isolation_db: 70.0,
            forward_capture_margin_db: 6.0,
        }
    }
}

impl InterferenceModel {
    /// Assesses one reader-tag exchange under one interfering reader.
    ///
    /// * `victim`/`interferer` — RF configs of the two readers.
    /// * `victim_at_tag_dbm` / `interferer_at_tag_dbm` — carrier powers at
    ///   the tag.
    /// * `backscatter_dbm` — tag reply power at the victim receiver.
    /// * `interferer_at_victim_dbm` — interferer carrier power leaking into
    ///   the victim receiver.
    /// * `interferer_transmitting` — whether the interferer is on the air
    ///   during this exchange (readers in continuous/buffered mode almost
    ///   always are).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn assess(
        &self,
        victim: &ReaderRf,
        interferer: &ReaderRf,
        victim_at_tag_dbm: f64,
        interferer_at_tag_dbm: f64,
        backscatter_dbm: f64,
        interferer_at_victim_dbm: f64,
        interferer_transmitting: bool,
    ) -> InterferenceOutcome {
        if !interferer_transmitting {
            return InterferenceOutcome::Clear;
        }
        let separated = victim.spectrally_separated(interferer);

        // Forward: tags are broadband, but separated (coordinated) readers
        // do not overlap commands in time.
        if !separated && victim_at_tag_dbm - interferer_at_tag_dbm < self.forward_capture_margin_db
        {
            return InterferenceOutcome::ForwardJammed;
        }

        // Reverse: carrier leakage into the victim's receive band.
        let isolation = if separated {
            self.dense_isolation_db
        } else {
            0.0
        };
        let effective_interference = interferer_at_victim_dbm - isolation;
        if backscatter_dbm - effective_interference < self.protection_ratio_db {
            return InterferenceOutcome::ReverseJammed;
        }
        InterferenceOutcome::Clear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A co-located portal: both carriers strong at the tag, interferer
    /// carrier strong at the victim receiver, backscatter weak.
    const VICTIM_AT_TAG: f64 = -5.0;
    const INTERFERER_AT_TAG: f64 = -8.0;
    const BACKSCATTER: f64 = -55.0;
    const INTERFERER_AT_VICTIM: f64 = -5.0;

    fn assess(victim: ReaderRf, interferer: ReaderRf, transmitting: bool) -> InterferenceOutcome {
        InterferenceModel::default().assess(
            &victim,
            &interferer,
            VICTIM_AT_TAG,
            INTERFERER_AT_TAG,
            BACKSCATTER,
            INTERFERER_AT_VICTIM,
            transmitting,
        )
    }

    #[test]
    fn legacy_readers_jam_each_other() {
        let outcome = assess(ReaderRf::legacy(), ReaderRf::legacy(), true);
        assert_ne!(outcome, InterferenceOutcome::Clear);
    }

    #[test]
    fn dense_mode_on_separate_channels_is_clear() {
        let outcome = assess(ReaderRf::dense(3), ReaderRf::dense(17), true);
        assert_eq!(outcome, InterferenceOutcome::Clear);
    }

    #[test]
    fn dense_mode_on_the_same_channel_still_jams() {
        let outcome = assess(ReaderRf::dense(3), ReaderRf::dense(3), true);
        assert_ne!(outcome, InterferenceOutcome::Clear);
    }

    #[test]
    fn idle_interferer_is_harmless() {
        let outcome = assess(ReaderRf::legacy(), ReaderRf::legacy(), false);
        assert_eq!(outcome, InterferenceOutcome::Clear);
    }

    #[test]
    fn forward_capture_with_strong_victim_carrier() {
        // Victim carrier 20 dB above the interferer at the tag: command
        // captures, but the reverse link is still jammed co-channel.
        let outcome = InterferenceModel::default().assess(
            &ReaderRf::legacy(),
            &ReaderRf::legacy(),
            0.0,
            -20.0,
            BACKSCATTER,
            INTERFERER_AT_VICTIM,
            true,
        );
        assert_eq!(outcome, InterferenceOutcome::ReverseJammed);
    }

    #[test]
    fn strong_backscatter_survives_weak_interference() {
        let outcome = InterferenceModel::default().assess(
            &ReaderRf::legacy(),
            &ReaderRf::legacy(),
            0.0,
            -20.0,
            -30.0,
            -60.0,
            true,
        );
        assert_eq!(outcome, InterferenceOutcome::Clear);
    }

    #[test]
    #[should_panic(expected = "channels 0-49")]
    fn channel_is_validated() {
        let _ = ReaderRf::dense(50);
    }
}
