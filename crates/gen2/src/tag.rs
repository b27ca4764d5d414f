//! The Gen-2 tag state machine.

use crate::Epc96;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Gen-2 inventory session.
///
/// Each tag keeps one inventoried flag per session; sessions let multiple
/// readers inventory the same population independently. Flag persistence
/// when the tag loses power differs per session and is what lets a moving
/// tag "remember" it was already counted as it passes between antennas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Session {
    /// S0: flag persists only while the tag is energized.
    S0,
    /// S1: flag persists 0.5-5 s regardless of power (we use 2 s nominal).
    S1,
    /// S2: flag persists several seconds after power loss.
    S2,
    /// S3: like S2, independent flag.
    S3,
}

impl Session {
    /// Nominal unpowered flag persistence, in seconds.
    #[must_use]
    pub fn persistence_s(&self) -> f64 {
        match self {
            Session::S0 => 0.05,
            Session::S1 => 2.0,
            Session::S2 | Session::S3 => 20.0,
        }
    }

    fn index(self) -> usize {
        match self {
            Session::S0 => 0,
            Session::S1 => 1,
            Session::S2 => 2,
            Session::S3 => 3,
        }
    }
}

/// The two values of a session's inventoried flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum InventoriedFlag {
    /// The reset value; inventory rounds normally target A.
    #[default]
    A,
    /// Set when the tag has been counted this round.
    B,
}

impl InventoriedFlag {
    /// The other flag value.
    #[must_use]
    pub fn toggled(self) -> InventoriedFlag {
        match self {
            InventoriedFlag::A => InventoriedFlag::B,
            InventoriedFlag::B => InventoriedFlag::A,
        }
    }
}

/// Protocol state of a tag within an inventory round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TagState {
    /// Energized but not participating in the current round.
    #[default]
    Ready,
    /// Holding a slot counter, waiting its turn.
    Arbitrate,
    /// Slot counter hit zero; backscattering RN16.
    Reply,
    /// RN16 acknowledged; backscattered PC+EPC+CRC.
    Acknowledged,
}

/// Sentinel slot value for a tag that lost arbitration (collision or missed
/// ACK) and stays silent until the next Query/QueryAdjust redraw, matching
/// the spec's slot-counter wrap behavior.
const SLOT_SILENT: u32 = u32::MAX;

/// A simulated Gen-2 tag: identity plus protocol state.
///
/// The inventory engine drives the FSM; the methods mirror the spec's
/// command/response transitions.
///
/// # Examples
///
/// ```
/// use rfid_gen2::{Epc96, InventoriedFlag, Session, TagFsm, TagState};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let mut tag = TagFsm::new(Epc96::from_u128(1));
/// tag.begin_round(Session::S1, InventoriedFlag::A, 0, 0.0, &mut rng);
/// // With Q = 0 the only slot is 0, so the tag replies immediately.
/// assert_eq!(tag.state(), TagState::Reply);
/// let rn16 = tag.rn16();
/// tag.on_ack(rn16, 0.0);
/// assert_eq!(tag.state(), TagState::Acknowledged);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TagFsm {
    epc: Epc96,
    state: TagState,
    slot: u32,
    rn16: u16,
    flags: [InventoriedFlag; 4],
    flag_touched_at: [f64; 4],
    session: Session,
    reads: u64,
}

impl TagFsm {
    /// Creates a tag in the Ready state with all flags at A.
    #[must_use]
    pub fn new(epc: Epc96) -> Self {
        Self {
            epc,
            state: TagState::Ready,
            slot: SLOT_SILENT,
            rn16: 0,
            flags: [InventoriedFlag::A; 4],
            flag_touched_at: [f64::NEG_INFINITY; 4],
            session: Session::S1,
            reads: 0,
        }
    }

    /// The tag's EPC.
    #[must_use]
    pub fn epc(&self) -> Epc96 {
        self.epc
    }

    /// Current protocol state.
    #[must_use]
    pub fn state(&self) -> TagState {
        self.state
    }

    /// Current RN16 handle (valid while in Reply/Acknowledged).
    #[must_use]
    pub fn rn16(&self) -> u16 {
        self.rn16
    }

    /// Number of times this tag has been successfully singulated.
    #[must_use]
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// The inventoried flag for `session` as seen at time `now_s`,
    /// accounting for persistence decay back to A.
    #[must_use]
    pub fn flag(&self, session: Session, now_s: f64) -> InventoriedFlag {
        let i = session.index();
        if self.flags[i] == InventoriedFlag::B
            && now_s - self.flag_touched_at[i] > session.persistence_s()
        {
            InventoriedFlag::A
        } else {
            self.flags[i]
        }
    }

    /// Handles a Query: join the round if the session flag matches
    /// `target`, drawing a slot uniformly in `[0, 2^q)`.
    ///
    /// Returns `true` if the tag joined the round.
    pub fn begin_round<R: Rng + ?Sized>(
        &mut self,
        session: Session,
        target: InventoriedFlag,
        q: u8,
        now_s: f64,
        rng: &mut R,
    ) -> bool {
        self.session = session;
        if self.flag(session, now_s) != target {
            self.state = TagState::Ready;
            return false;
        }
        self.draw_slot(q, rng);
        true
    }

    /// Handles a QueryRep: decrement the slot counter; reply at zero.
    pub fn on_query_rep(&mut self) {
        match self.state {
            TagState::Arbitrate => {
                if self.slot == 0 || self.slot == SLOT_SILENT {
                    // Slot-counter wrap: stay silent for the round.
                    self.slot = SLOT_SILENT;
                } else {
                    self.slot -= 1;
                    if self.slot == 0 {
                        self.state = TagState::Reply;
                    }
                }
            }
            TagState::Reply | TagState::Acknowledged => {
                // No ACK arrived (or the reader moved on): drop back to
                // Arbitrate, silent until a redraw.
                self.state = TagState::Arbitrate;
                self.slot = SLOT_SILENT;
            }
            _ => {}
        }
    }

    /// Handles a QueryAdjust: every arbitrating tag redraws its slot.
    pub fn on_query_adjust<R: Rng + ?Sized>(&mut self, q: u8, rng: &mut R) {
        match self.state {
            TagState::Arbitrate | TagState::Reply => self.draw_slot(q, rng),
            _ => {}
        }
    }

    /// Handles an ACK carrying `rn16`. On a match the tag transitions to
    /// Acknowledged and (conceptually) backscatters its PC+EPC+CRC.
    ///
    /// Returns `true` if the ACK was accepted.
    pub fn on_ack(&mut self, rn16: u16, _now_s: f64) -> bool {
        if self.state == TagState::Reply && self.rn16 == rn16 {
            self.state = TagState::Acknowledged;
            true
        } else {
            false
        }
    }

    /// Called when the reader accepted the EPC (end of a successful
    /// singulation): the tag inverts its inventoried flag and leaves the
    /// round.
    pub fn on_singulated(&mut self, now_s: f64) {
        let i = self.session.index();
        self.flags[i] = self.flags[i].toggled();
        self.flag_touched_at[i] = now_s;
        self.reads += 1;
        self.state = TagState::Ready;
        self.slot = SLOT_SILENT;
    }

    /// Handles a NAK or a missed ACK while replying: back to Arbitrate,
    /// silent until the next redraw.
    pub fn on_nak(&mut self) {
        if matches!(self.state, TagState::Reply | TagState::Acknowledged) {
            self.state = TagState::Arbitrate;
            self.slot = SLOT_SILENT;
        }
    }

    /// Models loss of power: protocol state resets; S0 flags decay
    /// immediately, longer-persistence flags keep their timestamps (decay
    /// is evaluated lazily by [`TagFsm::flag`]).
    pub fn on_power_loss(&mut self, now_s: f64) {
        self.state = TagState::Ready;
        self.slot = SLOT_SILENT;
        // S0 decays with its (short) persistence from *now*.
        let i = Session::S0.index();
        if self.flags[i] == InventoriedFlag::B {
            self.flag_touched_at[i] =
                self.flag_touched_at[i].min(now_s - Session::S0.persistence_s());
        }
    }

    /// Whether the tag is still contending in the current round.
    #[must_use]
    pub fn is_contending(&self) -> bool {
        matches!(self.state, TagState::Reply)
            || (self.state == TagState::Arbitrate && self.slot != SLOT_SILENT)
    }

    /// Whether the tag is still *in* the round at all — contending, or
    /// silenced by a collision/missed ACK but recoverable by a QueryAdjust
    /// redraw.
    #[must_use]
    pub fn is_in_round(&self) -> bool {
        matches!(self.state, TagState::Reply | TagState::Arbitrate)
    }

    fn draw_slot<R: Rng + ?Sized>(&mut self, q: u8, rng: &mut R) {
        let slots = 1u32 << q.min(15);
        self.slot = rng.gen_range(0..slots);
        self.rn16 = rng.gen();
        self.state = if self.slot == 0 {
            TagState::Reply
        } else {
            TagState::Arbitrate
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn fresh() -> TagFsm {
        TagFsm::new(Epc96::from_u128(0xAA))
    }

    #[test]
    fn joins_round_only_when_flag_matches() {
        let mut tag = fresh();
        let mut r = rng();
        assert!(tag.begin_round(Session::S1, InventoriedFlag::A, 4, 0.0, &mut r));
        // Singulate it so the S1 flag flips to B.
        tag.state = TagState::Reply;
        tag.on_singulated(0.0);
        assert_eq!(tag.flag(Session::S1, 0.1), InventoriedFlag::B);
        assert!(!tag.begin_round(Session::S1, InventoriedFlag::A, 4, 0.1, &mut r));
        // Targeting B now matches.
        assert!(tag.begin_round(Session::S1, InventoriedFlag::B, 4, 0.1, &mut r));
    }

    #[test]
    fn flag_persistence_decays() {
        let mut tag = fresh();
        tag.state = TagState::Reply;
        tag.session = Session::S1;
        tag.on_singulated(10.0);
        assert_eq!(tag.flag(Session::S1, 11.0), InventoriedFlag::B);
        let expired = 10.0 + Session::S1.persistence_s() + 0.1;
        assert_eq!(tag.flag(Session::S1, expired), InventoriedFlag::A);
    }

    #[test]
    fn query_rep_counts_down_to_reply() {
        let mut tag = fresh();
        let mut r = rng();
        // Force a known slot by retrying until slot is 2.
        loop {
            tag.begin_round(Session::S1, InventoriedFlag::A, 3, 0.0, &mut r);
            if tag.slot == 2 {
                break;
            }
        }
        assert_eq!(tag.state(), TagState::Arbitrate);
        tag.on_query_rep();
        assert_eq!(tag.state(), TagState::Arbitrate);
        tag.on_query_rep();
        assert_eq!(tag.state(), TagState::Reply);
        assert!(tag.is_contending());
    }

    #[test]
    fn missed_ack_silences_for_the_round() {
        let mut tag = fresh();
        let mut r = rng();
        tag.begin_round(Session::S1, InventoriedFlag::A, 0, 0.0, &mut r);
        assert_eq!(tag.state(), TagState::Reply);
        // Reader moves on without ACKing.
        tag.on_query_rep();
        assert_eq!(tag.state(), TagState::Arbitrate);
        assert!(!tag.is_contending());
        // Many QueryReps later it is still silent.
        for _ in 0..100 {
            tag.on_query_rep();
        }
        assert!(!tag.is_contending());
        // A QueryAdjust redraw brings it back.
        tag.on_query_adjust(0, &mut r);
        assert_eq!(tag.state(), TagState::Reply);
    }

    #[test]
    fn ack_requires_matching_rn16() {
        let mut tag = fresh();
        let mut r = rng();
        tag.begin_round(Session::S1, InventoriedFlag::A, 0, 0.0, &mut r);
        let rn = tag.rn16();
        assert!(!tag.on_ack(rn.wrapping_add(1), 0.0));
        assert_eq!(tag.state(), TagState::Reply);
        assert!(tag.on_ack(rn, 0.0));
        assert_eq!(tag.state(), TagState::Acknowledged);
    }

    #[test]
    fn singulation_increments_reads_and_flips_flag() {
        let mut tag = fresh();
        let mut r = rng();
        tag.begin_round(Session::S2, InventoriedFlag::A, 0, 0.0, &mut r);
        let rn = tag.rn16();
        tag.on_ack(rn, 0.0);
        tag.on_singulated(0.0);
        assert_eq!(tag.read_count(), 1);
        assert_eq!(tag.flag(Session::S2, 0.1), InventoriedFlag::B);
        assert_eq!(
            tag.flag(Session::S1, 0.1),
            InventoriedFlag::A,
            "other sessions untouched"
        );
        assert_eq!(tag.state(), TagState::Ready);
    }

    #[test]
    fn power_loss_resets_protocol_state() {
        let mut tag = fresh();
        let mut r = rng();
        tag.begin_round(Session::S1, InventoriedFlag::A, 4, 0.0, &mut r);
        tag.on_power_loss(0.5);
        assert_eq!(tag.state(), TagState::Ready);
        assert!(!tag.is_contending());
    }

    #[test]
    fn s0_flag_decays_after_power_loss() {
        let mut tag = fresh();
        tag.state = TagState::Reply;
        tag.session = Session::S0;
        tag.on_singulated(1.0);
        assert_eq!(tag.flag(Session::S0, 1.01), InventoriedFlag::B);
        tag.on_power_loss(1.02);
        assert_eq!(tag.flag(Session::S0, 1.03), InventoriedFlag::A);
    }

    #[test]
    fn a_tag_is_a_flat_64_byte_value() {
        // Every trial builds one TagFsm per simulated tag: no heap
        // buffers, one cache line.
        assert_eq!(std::mem::size_of::<TagFsm>(), 64);
    }

    #[test]
    fn slot_draws_cover_the_range() {
        let mut tag = fresh();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            tag.begin_round(Session::S1, InventoriedFlag::A, 2, 0.0, &mut r);
            seen.insert(tag.slot);
        }
        assert_eq!(seen, (0..4).collect());
    }
}
