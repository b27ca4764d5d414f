//! An EPC Class-1 Generation-2 (ISO 18000-6C) air-protocol engine.
//!
//! The DSN 2007 paper reads passive Gen-2 tags with a Matrix AR400 reader;
//! this crate reproduces the protocol mechanics that shape its results:
//!
//! * slotted-ALOHA singulation with the **Q algorithm**
//!   ([`InventoryEngine`]) — collisions are why "only one tag can be read
//!   concurrently but multiple tags may respond in a given read slot",
//! * the **tag state machine** with sessions and inventoried flags
//!   ([`TagFsm`]) — why a read tag stays quiet for the rest of a round,
//! * **link timing** ([`LinkTiming`]) — why a tag read takes on the order
//!   of the paper's "around 0.02 sec per tag",
//! * **reader-to-reader interference** ([`InterferenceModel`]) — why two
//!   readers per portal *hurt* reliability when dense-reader mode is
//!   unavailable (the paper's Section 4 finding).
//!
//! RF truth is abstracted behind the [`AirChannel`] trait so the protocol
//! engine is reusable against any physical model; `rfid-sim` implements it
//! with the full `rfid-phys` link budget.
//!
//! # Examples
//!
//! Inventory a population of ten tags over a perfect channel:
//!
//! ```
//! use rfid_gen2::{Epc96, InventoryEngine, PerfectChannel, Session, TagFsm};
//!
//! let mut tags: Vec<TagFsm> = (0..10).map(|i| TagFsm::new(Epc96::from_u128(i))).collect();
//! let engine = InventoryEngine::default();
//! let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 0xFEED);
//! assert_eq!(log.reads.len(), 10, "a perfect channel reads every tag");
//! assert!(log.duration_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod epc;
mod interference;
mod inventory;
mod tag;
mod timing;

pub use channel::{AirChannel, ErasureChannel, PerfectChannel};
pub use epc::Epc96;
pub use interference::{InterferenceModel, InterferenceOutcome, ReaderRf};
pub use inventory::{InventoryEngine, QAlgorithm, RoundLog, SlotOutcome, TagRead};
pub use tag::{InventoriedFlag, Session, TagFsm, TagState};
pub use timing::LinkTiming;
