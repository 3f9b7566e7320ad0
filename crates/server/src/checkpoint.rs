//! Job checkpoint/resume: periodic snapshots, bit-identical continuation.
//!
//! A checkpoint is one encoded [`Frame::Checkpoint`] written to
//! `<dir>/job-<id>.ckpt` — the wire codec's length prefix, CRC-32 and
//! [`MAX_FRAME_BYTES`](krum_wire::MAX_FRAME_BYTES) cap guard the file
//! exactly like they guard a socket, so a torn or bit-flipped checkpoint is
//! rejected structurally instead of resuming onto garbage. The parameter
//! vector and the carry-over queue travel as raw `f64` bit patterns
//! (NaN/∞-safe); the spec and the recorded history ride in the frame's JSON
//! sidecar.
//!
//! What makes a resumed run *bit-identical* to an uninterrupted one is not
//! in this file: the snapshot stores the completed-round count, and
//! reconnecting workers rebuild their RNG streams from `(seed, slot)` and
//! fast-forward the exact number of consumed draws (see
//! [`crate::worker`]) — the checkpoint only has to restore the server-side
//! state: `x_t`, the straggler queue and the history.

use std::fs;
use std::path::{Path, PathBuf};

use krum_core::StatefulState;
use krum_metrics::TrainingHistory;
use krum_scenario::ScenarioSpec;
use krum_tensor::Vector;
use krum_wire::{read_frame, write_frame, CarryOver, Frame};
use serde::{Deserialize, Serialize};

use crate::error::ServerError;
use crate::job::staleness_policy;

/// Periodic checkpointing for a served job: where snapshots go and how
/// often they are taken.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory receiving one `job-<id>.ckpt` file per job.
    pub dir: PathBuf,
    /// Cadence: a snapshot is written after every `every`-th completed
    /// round (and always before a fault-plan halt).
    pub every: u64,
}

impl CheckpointConfig {
    /// The checkpoint file of job `id` under this config.
    pub fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id}.ckpt"))
    }
}

/// The JSON sidecar inside a [`Frame::Checkpoint`]: the plain-data half of
/// the snapshot (the binary half — params and carry-overs — rides the frame
/// body as raw bits).
#[derive(Serialize, Deserialize)]
struct CheckpointState {
    spec: ScenarioSpec,
    history: TrainingHistory,
    wall_nanos: u128,
    /// Cross-round memory of a stateful aggregation rule (reputation
    /// weights, clip momentum); `None` for stateless rules. Restoring it is
    /// what keeps a resumed reputation-weighted run bit-identical to an
    /// uninterrupted one.
    stateful_rule: Option<StatefulState>,
}

/// Everything a restarted server needs to continue a job where its
/// checkpoint left off.
#[derive(Debug)]
pub(crate) struct ResumeState {
    /// The job id the checkpoint belongs to.
    pub id: u64,
    /// First round the resumed job runs (== rounds completed).
    pub start_round: u64,
    /// Parameter vector at `start_round`.
    pub params: Vector,
    /// Carry-over queue of in-flight stale proposals.
    pub pending: Vec<CarryOver>,
    /// The spec the job was running (seed/name already job-adjusted).
    pub spec: ScenarioSpec,
    /// History of the completed rounds.
    pub history: TrainingHistory,
    /// Wall-clock nanoseconds already accumulated before the restart.
    pub wall_nanos: u128,
    /// Snapshotted cross-round memory of a stateful aggregation rule.
    pub stateful_rule: Option<StatefulState>,
}

/// Writes one job snapshot atomically (`.tmp` + rename) and returns the
/// bytes on disk.
///
/// # Errors
///
/// Returns [`ServerError::Wire`] when the snapshot exceeds the frame cap
/// (the same bound a socket would enforce) and [`ServerError::Io`] on
/// filesystem failures.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_checkpoint(
    config: &CheckpointConfig,
    id: u64,
    rounds_done: u64,
    params: &Vector,
    pending: &[CarryOver],
    spec: &ScenarioSpec,
    history: &TrainingHistory,
    wall_nanos: u128,
    stateful_rule: Option<StatefulState>,
) -> Result<u64, ServerError> {
    let state = CheckpointState {
        spec: spec.clone(),
        history: history.clone(),
        wall_nanos,
        stateful_rule,
    };
    let state_json = serde_json::to_string(&state)
        .map_err(|e| ServerError::Checkpoint(format!("state serialisation failed: {e}")))?;
    let frame = Frame::Checkpoint {
        job: id,
        round: rounds_done,
        params: params.as_slice().to_vec(),
        pending: pending.to_vec(),
        state_json,
    };
    let mut bytes = Vec::with_capacity(frame.encoded_len());
    write_frame(&mut bytes, &frame)?;
    fs::create_dir_all(&config.dir)?;
    let path = config.path(id);
    let tmp = path.with_extension("ckpt.tmp");
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, &path)?;
    Ok(bytes.len() as u64)
}

/// Reads one checkpoint file back into a [`ResumeState`].
///
/// # Errors
///
/// Returns [`ServerError::Io`] when the file is unreadable,
/// [`ServerError::Wire`] when the frame is torn/corrupt/oversized, and
/// [`ServerError::Checkpoint`] when the frame or its sidecar is not a
/// well-formed snapshot — including a carry-over entry the job could not
/// have carried into its resume round.
pub(crate) fn read_checkpoint(path: &Path) -> Result<ResumeState, ServerError> {
    let bytes = fs::read(path)?;
    let mut cursor = bytes.as_slice();
    let (frame, consumed) = read_frame(&mut cursor)?;
    if consumed != bytes.len() {
        return Err(ServerError::Checkpoint(format!(
            "{} has {} trailing bytes after the snapshot frame",
            path.display(),
            bytes.len() - consumed
        )));
    }
    let Frame::Checkpoint {
        job,
        round,
        params,
        pending,
        state_json,
    } = frame
    else {
        return Err(ServerError::Checkpoint(format!(
            "{} holds a non-checkpoint frame",
            path.display()
        )));
    };
    let mut state: CheckpointState = serde_json::from_str(&state_json)
        .map_err(|e| ServerError::Checkpoint(format!("bad state sidecar: {e}")))?;
    state
        .spec
        .validate()
        .map_err(|e| ServerError::Checkpoint(format!("snapshotted spec is invalid: {e}")))?;
    let dim = state
        .spec
        .dim()
        .map_err(|e| ServerError::Checkpoint(format!("snapshotted spec has no dimension: {e}")))?;
    if params.len() != dim {
        return Err(ServerError::Checkpoint(format!(
            "snapshot params have dimension {}, spec says {dim}",
            params.len()
        )));
    }
    if state.history.rounds.len() as u64 != round {
        return Err(ServerError::Checkpoint(format!(
            "snapshot says {round} rounds completed but records {}",
            state.history.rounds.len()
        )));
    }
    if round >= state.spec.rounds as u64 {
        return Err(ServerError::Checkpoint(format!(
            "snapshot already holds all {} rounds; nothing to resume",
            state.spec.rounds
        )));
    }
    // The carry-over queue re-enters the quorum on resume: every entry must
    // name a roster worker, match the model dimension, and be a proposal
    // the close of round `round − 1` could have carried — issued before
    // `round`, and no staler than the job's bound.
    let n = state.spec.cluster.workers();
    let (max_staleness, _) = staleness_policy(&state.spec.execution);
    for carried in &pending {
        let problem = if carried.worker as usize >= n {
            format!("is outside the {n}-worker roster")
        } else if carried.proposal.len() != dim {
            format!("has dimension {}, spec says {dim}", carried.proposal.len())
        } else if carried.issued_round >= round {
            format!(
                "was issued in round {}, not before the resume round {round}",
                carried.issued_round
            )
        } else if round - carried.issued_round > max_staleness as u64 {
            format!(
                "was issued in round {}, staler at round {round} than the \
                 bound of {max_staleness} rounds",
                carried.issued_round
            )
        } else {
            continue;
        };
        return Err(ServerError::Checkpoint(format!(
            "{}: a carried proposal of worker {} {problem}",
            path.display(),
            carried.worker
        )));
    }
    // A snapshot cannot hold its own size: the job records it on the last
    // round only after the history is serialised. The file's length is
    // that size, the value `write_checkpoint` returned.
    if let Some(last) = state.history.rounds.last_mut() {
        last.checkpoint_bytes = Some(bytes.len() as u64);
    }
    Ok(ResumeState {
        id: job,
        start_round: round,
        params: Vector::from(params),
        pending,
        spec: state.spec,
        history: state.history,
        wall_nanos: state.wall_nanos,
        stateful_rule: state.stateful_rule,
    })
}

/// All checkpoint files under `dir`, sorted by job id.
///
/// # Errors
///
/// Returns [`ServerError::Io`] when the directory is unreadable and
/// [`ServerError::Checkpoint`] when it holds no checkpoints.
pub(crate) fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServerError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(id) = name
            .strip_prefix("job-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|id| id.parse::<u64>().ok())
        {
            found.push((id, path));
        }
    }
    if found.is_empty() {
        return Err(ServerError::Checkpoint(format!(
            "no job-<id>.ckpt files under {}",
            dir.display()
        )));
    }
    found.sort_by_key(|(id, _)| *id);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use krum_dist::{LatencyModel, NetworkModel};
    use krum_scenario::ScenarioBuilder;

    /// An async-quorum job (quorum 7 of 9, staleness bound 2), so a
    /// snapshot can legitimately carry proposals.
    fn spec() -> ScenarioSpec {
        let network = NetworkModel {
            latency: LatencyModel::Constant { nanos: 0 },
            nanos_per_byte: 0.0,
        };
        ScenarioBuilder::new(9, 2)
            .name("ckpt-test")
            .rounds(6)
            .async_quorum(7, 2, network)
            .spec()
            .unwrap()
    }

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("krum-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn snapshot_round_trips_including_nonfinite_params() {
        let dir = dir("roundtrip");
        let config = CheckpointConfig {
            dir: dir.clone(),
            every: 2,
        };
        let spec = spec();
        let dim = spec.dim().unwrap();
        // NaN and ±∞ must survive: divergence is a legitimate outcome and
        // the snapshot rides the binary frame, not JSON.
        let mut values = vec![1.5; dim];
        values[0] = f64::NAN;
        values[1] = f64::INFINITY;
        let params = Vector::from(values);
        let pending = vec![CarryOver {
            worker: 3,
            issued_round: 1,
            proposal: vec![0.25; dim],
        }];
        let history = {
            let mut h = krum_metrics::TrainingHistory::new("t", "krum", "none", 9, 2);
            h.push(krum_metrics::RoundRecord::new(0, 1.0, 0.1));
            h.push(krum_metrics::RoundRecord::new(1, 0.5, 0.1));
            h
        };
        let stateful = StatefulState {
            reputation: vec![1.0, 0.25, f64::MIN_POSITIVE],
            clip_center: vec![0.5; dim],
        };
        let bytes = write_checkpoint(
            &config,
            0,
            2,
            &params,
            &pending,
            &spec,
            &history,
            42,
            Some(stateful.clone()),
        )
        .unwrap();
        assert_eq!(
            bytes,
            fs::metadata(config.path(0)).unwrap().len(),
            "reported bytes are the file size"
        );

        let resumed = read_checkpoint(&config.path(0)).unwrap();
        assert_eq!(resumed.id, 0);
        assert_eq!(resumed.start_round, 2);
        assert!(resumed.params.as_slice()[0].is_nan());
        assert_eq!(resumed.params.as_slice()[1], f64::INFINITY);
        assert_eq!(resumed.params.as_slice()[2], 1.5);
        assert_eq!(resumed.pending, pending);
        assert_eq!(resumed.spec, spec);
        assert_eq!(resumed.history.rounds.len(), 2);
        assert_eq!(resumed.wall_nanos, 42);
        assert_eq!(resumed.stateful_rule, Some(stateful));

        assert_eq!(list_checkpoints(&dir).unwrap(), vec![(0, config.path(0))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The snapshot cannot record its own size, so reading it back fills
    /// the last restored round's `checkpoint_bytes` with exactly the count
    /// `write_checkpoint` returned; earlier rounds keep what they recorded.
    #[test]
    fn resume_restores_the_size_of_the_snapshot_it_read() {
        let dir = dir("size");
        let config = CheckpointConfig {
            dir: dir.clone(),
            every: 1,
        };
        let spec = spec();
        let mut history = krum_metrics::TrainingHistory::new("t", "krum", "none", 9, 2);
        for r in 0..3 {
            history.push(krum_metrics::RoundRecord::new(r, 1.0, 0.1));
        }
        history.rounds[1].checkpoint_bytes = Some(1_234);
        let params = Vector::zeros(spec.dim().unwrap());
        let bytes =
            write_checkpoint(&config, 0, 3, &params, &[], &spec, &history, 0, None).unwrap();
        let checkpoint_bytes: Vec<Option<u64>> = read_checkpoint(&config.path(0))
            .unwrap()
            .history
            .rounds
            .iter()
            .map(|r| r.checkpoint_bytes)
            .collect();
        assert_eq!(checkpoint_bytes, [None, Some(1_234), Some(bytes)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a round-3 snapshot carrying `carried` and checks that both
    /// `read_checkpoint` and `Server::resume` refuse it structurally.
    fn assert_carry_refused(tag: &str, carried: CarryOver) {
        let dir = dir(tag);
        let config = CheckpointConfig {
            dir: dir.clone(),
            every: 1,
        };
        let spec = spec();
        let mut history = krum_metrics::TrainingHistory::new("t", "krum", "none", 9, 2);
        for r in 0..3 {
            history.push(krum_metrics::RoundRecord::new(r, 1.0, 0.1));
        }
        let params = Vector::zeros(spec.dim().unwrap());
        write_checkpoint(&config, 4, 3, &params, &[carried], &spec, &history, 0, None).unwrap();
        let err = read_checkpoint(&config.path(4)).unwrap_err();
        assert!(matches!(err, ServerError::Checkpoint(_)), "{tag}: {err}");
        assert!(matches!(
            Server::resume("127.0.0.1:0", &dir),
            Err(ServerError::Checkpoint(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_carried_worker_outside_the_roster_is_refused() {
        let dim = spec().dim().unwrap();
        assert_carry_refused(
            "carry-worker",
            CarryOver {
                worker: 99,
                issued_round: 2,
                proposal: vec![0.5; dim],
            },
        );
    }

    #[test]
    fn a_carried_proposal_issued_at_or_after_the_resume_round_is_refused() {
        let dim = spec().dim().unwrap();
        for issued_round in [3, 7] {
            assert_carry_refused(
                &format!("carry-future-{issued_round}"),
                CarryOver {
                    worker: 8,
                    issued_round,
                    proposal: vec![0.5; dim],
                },
            );
        }
    }

    #[test]
    fn a_carried_proposal_of_the_wrong_dimension_is_refused() {
        assert_carry_refused(
            "carry-dim",
            CarryOver {
                worker: 8,
                issued_round: 2,
                proposal: vec![0.5; 3],
            },
        );
    }

    #[test]
    fn a_carried_proposal_staler_than_the_bound_is_refused() {
        let dim = spec().dim().unwrap();
        // Resuming at round 3 under a bound of 2: round 1 is the oldest
        // issue a carried proposal can have.
        assert_carry_refused(
            "carry-stale",
            CarryOver {
                worker: 8,
                issued_round: 0,
                proposal: vec![0.5; dim],
            },
        );
    }

    #[test]
    fn corrupt_and_inconsistent_snapshots_are_rejected() {
        let dir = dir("corrupt");
        let config = CheckpointConfig {
            dir: dir.clone(),
            every: 1,
        };
        let spec = spec();
        let dim = spec.dim().unwrap();
        let params = Vector::zeros(dim);
        let mut history = krum_metrics::TrainingHistory::new("t", "krum", "none", 9, 2);
        history.push(krum_metrics::RoundRecord::new(0, 1.0, 0.1));
        write_checkpoint(&config, 1, 1, &params, &[], &spec, &history, 0, None).unwrap();
        let path = config.path(1);

        // Flip one byte: the CRC catches it, structurally.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path).unwrap_err(),
            ServerError::Wire(_)
        ));

        // Truncate it: torn writes do not resume.
        let good = {
            write_checkpoint(&config, 1, 1, &params, &[], &spec, &history, 0, None).unwrap();
            fs::read(&path).unwrap()
        };
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(
            read_checkpoint(&path).unwrap_err(),
            ServerError::Wire(_)
        ));

        // A snapshot whose round count disagrees with its history is
        // rejected before any job starts.
        let empty = krum_metrics::TrainingHistory::new("t", "krum", "none", 9, 2);
        write_checkpoint(&config, 1, 1, &params, &[], &spec, &empty, 0, None).unwrap();
        assert!(matches!(
            read_checkpoint(&path).unwrap_err(),
            ServerError::Checkpoint(_)
        ));

        // A finished job has nothing to resume.
        let mut full = krum_metrics::TrainingHistory::new("t", "krum", "none", 9, 2);
        for r in 0..spec.rounds {
            full.push(krum_metrics::RoundRecord::new(r, 1.0, 0.1));
        }
        write_checkpoint(
            &config,
            1,
            spec.rounds as u64,
            &params,
            &[],
            &spec,
            &full,
            0,
            None,
        )
        .unwrap();
        assert!(matches!(
            read_checkpoint(&path).unwrap_err(),
            ServerError::Checkpoint(_)
        ));

        assert!(list_checkpoints(&std::env::temp_dir().join("definitely-missing-krum")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
