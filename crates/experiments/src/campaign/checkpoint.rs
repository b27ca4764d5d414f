//! Crash-safe campaign checkpointing.
//!
//! The checkpoint file is an append-only log of full
//! [`CampaignState`] snapshots, one CRC-framed
//! record per completed instance:
//!
//! ```text
//! [magic "RFCAMP01"] [len u32][crc32 u32][state bytes] ...
//! ```
//!
//! A campaign killed mid-write leaves at most one torn frame at the
//! tail; recovery walks the clean prefix, truncates the tear, and
//! resumes from the last intact snapshot. Because every accumulator
//! merge is exactly associative and every instance seed is derived from
//! identity rather than execution order, a resumed campaign finishes
//! with bit-for-bit the same [`CampaignState::digest`](super::CampaignState::digest)
//! as an uninterrupted run.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use rfid_sim::{CampaignSpec, ScenarioCompiler, TrialExecutor};
use rfid_track::store::codec::crc32;

use super::{run_instance, CampaignState};

/// File magic: "RFCAMP01".
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RFCAMP01";

/// Frame header bytes: length + CRC.
const FRAME_HEADER: usize = 8;

/// Largest frame recovery will accept; anything bigger is corruption.
const MAX_FRAME: u32 = 64 << 20;

/// Why a checkpointed campaign could not run.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a campaign checkpoint.
    NotACheckpoint,
    /// A clean frame decoded to a state for a different spec.
    SpecMismatch {
        /// Digest of the spec being run.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// A clean frame failed to decode.
    Corrupt {
        /// What recovery found.
        reason: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::NotACheckpoint => {
                write!(f, "file exists but has no campaign checkpoint magic")
            }
            CheckpointError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to spec {found:#018x}, not {expected:#018x}"
            ),
            CheckpointError::Corrupt { reason } => {
                write!(f, "checkpoint frame corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Knobs for one checkpointed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignRunConfig {
    /// Stop (cleanly, checkpoint written) after completing this many
    /// instances *in this run* — the kill-and-resume test hook. `None`
    /// runs to the end of the spec.
    pub halt_after: Option<u64>,
}

/// What a checkpointed run did.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRunReport {
    /// Final state (partial if halted).
    pub state: CampaignState,
    /// Instances already complete when the run started.
    pub resumed_from: u64,
    /// Torn bytes discarded from the checkpoint tail during recovery.
    pub truncated_bytes: u64,
    /// Whether the spec's full instance list is now complete.
    pub completed: bool,
}

/// Result of scanning an existing checkpoint file.
struct Recovered {
    state: Option<CampaignState>,
    /// Byte offset just past the last clean frame.
    clean_len: u64,
    truncated_bytes: u64,
}

fn scan(file: &mut File) -> Result<Recovered, CheckpointError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        return Ok(Recovered {
            state: None,
            clean_len: 0,
            truncated_bytes: 0,
        });
    }
    if bytes.len() < CHECKPOINT_MAGIC.len() || bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    let mut offset = CHECKPOINT_MAGIC.len();
    let mut state = None;
    let mut clean_len = offset as u64;
    while bytes.len() - offset >= FRAME_HEADER {
        let len = u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]);
        let crc = u32::from_le_bytes([
            bytes[offset + 4],
            bytes[offset + 5],
            bytes[offset + 6],
            bytes[offset + 7],
        ]);
        if len > MAX_FRAME {
            break; // treat as torn garbage
        }
        let start = offset + FRAME_HEADER;
        let end = match start.checked_add(len as usize) {
            Some(end) if end <= bytes.len() => end,
            _ => break, // torn tail: frame body incomplete
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // torn or bit-rotted tail frame
        }
        // A clean frame that fails to decode is real corruption, not a
        // torn tail — surface it rather than silently dropping history.
        let decoded = CampaignState::decode(payload).map_err(|e| CheckpointError::Corrupt {
            reason: e.to_string(),
        })?;
        state = Some(decoded);
        offset = end;
        clean_len = offset as u64;
    }
    let truncated_bytes = bytes.len() as u64 - clean_len;
    Ok(Recovered {
        state,
        clean_len,
        truncated_bytes,
    })
}

fn append_frame(file: &mut File, state: &CampaignState) -> Result<(), CheckpointError> {
    let payload = state.encode_vec();
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    file.write_all(&frame)?;
    file.sync_data()?;
    Ok(())
}

/// Runs `spec` with a durable checkpoint at `path`, resuming any prior
/// progress found there.
///
/// After every completed instance the full state is appended as a
/// CRC-framed snapshot and synced, so the most a crash can lose is the
/// instance in flight. Set [`CampaignRunConfig::halt_after`] to stop
/// early (simulating a kill at an instance boundary); rerunning with the
/// same arguments picks up where the checkpoint left off and produces a
/// final state bit-identical to an uninterrupted run.
///
/// # Errors
///
/// Returns [`CheckpointError`] if the file cannot be read or written, is
/// not a checkpoint, records a different spec, or holds a clean frame
/// that fails to decode.
pub fn run_campaign_checkpointed(
    executor: &TrialExecutor,
    spec: &CampaignSpec,
    path: &Path,
    config: CampaignRunConfig,
) -> Result<CampaignRunReport, CheckpointError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let recovered = scan(&mut file)?;
    if recovered.truncated_bytes > 0 || recovered.clean_len == 0 {
        // Drop the torn tail (or seed a fresh file with the magic) so
        // appends always extend a clean prefix.
        file.set_len(recovered.clean_len)?;
        file.seek(SeekFrom::End(0))?;
        if recovered.clean_len == 0 {
            file.write_all(&CHECKPOINT_MAGIC)?;
            file.sync_data()?;
        }
    } else {
        file.seek(SeekFrom::End(0))?;
    }

    let expected = spec.digest();
    let mut state = match recovered.state {
        Some(state) => {
            if state.spec_digest != expected {
                return Err(CheckpointError::SpecMismatch {
                    expected,
                    found: state.spec_digest,
                });
            }
            state
        }
        None => CampaignState::new(spec),
    };
    let resumed_from = state.instances_done;

    for (done_this_run, instance) in
        ScenarioCompiler::starting_at(spec, state.instances_done).enumerate()
    {
        if let Some(halt) = config.halt_after {
            if done_this_run as u64 >= halt {
                break;
            }
        }
        let acc = run_instance(executor, &instance);
        state.apply_instance(instance.deployment, &acc);
        append_frame(&mut file, &state)?;
    }

    let completed = state.instances_done == spec.total_instances();
    Ok(CampaignRunReport {
        state,
        resumed_from,
        truncated_bytes: recovered.truncated_bytes,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::super::run_campaign;
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rfid-campaign-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted() {
        let spec = CampaignSpec::smoke(31);
        let executor = TrialExecutor::with_threads(2);
        let path = temp_path("kill-resume");
        let _ = std::fs::remove_file(&path);

        let first = run_campaign_checkpointed(
            &executor,
            &spec,
            &path,
            CampaignRunConfig {
                halt_after: Some(2),
            },
        )
        .unwrap();
        assert!(!first.completed);
        assert_eq!(first.state.instances_done, 2);

        let second =
            run_campaign_checkpointed(&executor, &spec, &path, CampaignRunConfig::default())
                .unwrap();
        assert!(second.completed);
        assert_eq!(second.resumed_from, 2);

        let uninterrupted = run_campaign(&executor, &spec);
        assert_eq!(second.state, uninterrupted);
        assert_eq!(second.state.digest(), uninterrupted.digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_resumed() {
        let spec = CampaignSpec::smoke(32);
        let executor = TrialExecutor::serial();
        let path = temp_path("torn-tail");
        let _ = std::fs::remove_file(&path);

        run_campaign_checkpointed(
            &executor,
            &spec,
            &path,
            CampaignRunConfig {
                halt_after: Some(3),
            },
        )
        .unwrap();
        // Tear the last frame: chop some bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let resumed =
            run_campaign_checkpointed(&executor, &spec, &path, CampaignRunConfig::default())
                .unwrap();
        assert!(resumed.truncated_bytes > 0, "tear must be detected");
        assert_eq!(
            resumed.resumed_from, 2,
            "the torn third snapshot is discarded"
        );
        assert!(resumed.completed);
        assert_eq!(resumed.state, run_campaign(&executor, &spec));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_spec_is_refused() {
        let executor = TrialExecutor::serial();
        let path = temp_path("spec-mismatch");
        let _ = std::fs::remove_file(&path);
        run_campaign_checkpointed(
            &executor,
            &CampaignSpec::smoke(33),
            &path,
            CampaignRunConfig {
                halt_after: Some(1),
            },
        )
        .unwrap();
        let err = run_campaign_checkpointed(
            &executor,
            &CampaignSpec::smoke(34),
            &path,
            CampaignRunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::SpecMismatch { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_checkpoint_file_is_refused() {
        let path = temp_path("not-a-checkpoint");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let err = run_campaign_checkpointed(
            &TrialExecutor::serial(),
            &CampaignSpec::smoke(35),
            &path,
            CampaignRunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NotACheckpoint));
        std::fs::remove_file(&path).unwrap();
    }
}
