//! Air-interface timing.
//!
//! Gen-2 timing is parameterized by Tari (the reader's data-0 symbol
//! length), the backscatter link frequency (BLF), and the Miller
//! subcarrier factor M. The derived slot durations determine how many
//! inventory rounds fit into the time a moving tag spends in the read zone
//! — the paper's "allowing adequate time for all tags to be read, which is
//! around .02 sec per tag".

use serde::{Deserialize, Serialize};

/// Link timing parameters and derived frame durations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkTiming {
    /// Reader data-0 symbol duration in seconds (6.25, 12.5, or 25 us).
    pub tari_s: f64,
    /// Backscatter link frequency in Hz (40-640 kHz).
    pub blf_hz: f64,
    /// Miller modulation factor (1 = FM0, or 2/4/8).
    pub miller_m: u8,
    /// Fixed per-command reader firmware/host overhead, in seconds.
    ///
    /// The paper measures ~20 ms per tag end to end through the AR400's
    /// HTTP interface; the air interface alone is single-digit
    /// milliseconds, the rest is reader/host processing. This knob
    /// captures that gap.
    pub reader_overhead_s: f64,
}

impl LinkTiming {
    /// Timing matching the paper's setup: 25 us Tari, 250 kHz BLF,
    /// Miller-4, and enough reader overhead that a full singulation costs
    /// about 20 ms end to end.
    #[must_use]
    pub fn ar400_default() -> Self {
        Self {
            tari_s: 25.0e-6,
            blf_hz: 250.0e3,
            miller_m: 4,
            reader_overhead_s: 15.0e-3,
        }
    }

    /// Fast dense-population timing (smallest Tari, FM0).
    #[must_use]
    pub fn fast() -> Self {
        Self {
            tari_s: 6.25e-6,
            blf_hz: 640.0e3,
            miller_m: 1,
            reader_overhead_s: 0.0,
        }
    }

    /// Average reader symbol duration: data-0 is one Tari, data-1 is
    /// 1.5-2 Tari; we use the midpoint for random payloads.
    #[must_use]
    pub fn reader_bit_s(&self) -> f64 {
        1.375 * self.tari_s
    }

    /// Duration of a tag symbol (one data bit after Miller coding).
    #[must_use]
    pub fn tag_bit_s(&self) -> f64 {
        f64::from(self.miller_m) / self.blf_hz
    }

    /// T1: reader-to-tag turnaround (max of RTcal-ish guard, ~10 tag bits).
    #[must_use]
    pub fn t1_s(&self) -> f64 {
        (10.0 / self.blf_hz).max(3.0 * self.tari_s)
    }

    /// T2: tag-to-reader turnaround.
    #[must_use]
    pub fn t2_s(&self) -> f64 {
        10.0 / self.blf_hz
    }

    /// Duration of a Query command (22 bits + preamble ~ 6 symbols).
    #[must_use]
    pub fn query_s(&self) -> f64 {
        28.0 * self.reader_bit_s()
    }

    /// Duration of a QueryRep command (4 bits + frame-sync ~ 3 symbols).
    #[must_use]
    pub fn query_rep_s(&self) -> f64 {
        7.0 * self.reader_bit_s()
    }

    /// Duration of an ACK command (18 bits + frame-sync).
    #[must_use]
    pub fn ack_s(&self) -> f64 {
        21.0 * self.reader_bit_s()
    }

    /// Duration of an RN16 backscatter reply (16 bits + 6-bit preamble).
    #[must_use]
    pub fn rn16_s(&self) -> f64 {
        22.0 * self.tag_bit_s()
    }

    /// Duration of the PC + EPC-96 + CRC-16 backscatter (128 bits +
    /// preamble).
    #[must_use]
    pub fn epc_reply_s(&self) -> f64 {
        134.0 * self.tag_bit_s()
    }

    /// Air time of an empty slot: QueryRep plus the no-reply timeout.
    #[must_use]
    pub fn empty_slot_s(&self) -> f64 {
        self.query_rep_s() + self.t1_s() + self.t2_s()
    }

    /// Air time of a collided slot: QueryRep, garbled RN16, give-up.
    #[must_use]
    pub fn collision_slot_s(&self) -> f64 {
        self.query_rep_s() + self.t1_s() + self.rn16_s() + self.t2_s()
    }

    /// Air time of a successful singulation:
    /// QueryRep + RN16 + ACK + EPC reply + turnarounds.
    #[must_use]
    pub fn success_slot_s(&self) -> f64 {
        self.query_rep_s()
            + self.t1_s()
            + self.rn16_s()
            + self.t2_s()
            + self.ack_s()
            + self.t1_s()
            + self.epc_reply_s()
            + self.t2_s()
    }
}

impl Default for LinkTiming {
    fn default() -> Self {
        Self::ar400_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_read_time_matches_the_paper() {
        // "around .02 sec per tag" — accept 15-30 ms.
        let timing = LinkTiming::ar400_default();
        let t = timing.success_slot_s() + timing.reader_overhead_s;
        assert!((0.015..=0.030).contains(&t), "per-tag read = {t} s");
    }

    #[test]
    fn air_interface_alone_is_milliseconds() {
        let t = LinkTiming::ar400_default().success_slot_s();
        assert!(t > 0.5e-3 && t < 10.0e-3, "air time = {t} s");
    }

    #[test]
    fn fast_profile_is_faster() {
        assert!(LinkTiming::fast().success_slot_s() < LinkTiming::ar400_default().success_slot_s());
    }

    #[test]
    fn slot_duration_ordering() {
        let t = LinkTiming::ar400_default();
        assert!(t.empty_slot_s() < t.collision_slot_s());
        assert!(t.collision_slot_s() < t.success_slot_s());
    }

    #[test]
    fn miller_coding_slows_tag_replies() {
        let mut fm0 = LinkTiming::ar400_default();
        fm0.miller_m = 1;
        let mut m8 = LinkTiming::ar400_default();
        m8.miller_m = 8;
        assert!(m8.epc_reply_s() > fm0.epc_reply_s());
        assert!((m8.tag_bit_s() / fm0.tag_bit_s() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn all_durations_are_positive() {
        for timing in [LinkTiming::ar400_default(), LinkTiming::fast()] {
            for d in [
                timing.reader_bit_s(),
                timing.tag_bit_s(),
                timing.t1_s(),
                timing.t2_s(),
                timing.query_s(),
                timing.query_rep_s(),
                timing.ack_s(),
                timing.rn16_s(),
                timing.epc_reply_s(),
                timing.empty_slot_s(),
                timing.collision_slot_s(),
                timing.success_slot_s(),
            ] {
                assert!(d > 0.0);
            }
        }
    }
}
