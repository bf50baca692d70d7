//! Data directories for durable workloads: preparation (a snapshot plus
//! a fixed-length WAL tail, written before any timer starts) and the
//! in-process recovery that mirrors what `hos-serve --data-dir` does.

use crate::workload::{Data, Workload};
use hos_core::{HosMiner, HosMinerConfig, ModelFile};
use hos_storage::store::SnapshotState;
use hos_storage::{Op, Recovery, Store, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

fn store_config(config: &HosMinerConfig, sync_every: usize) -> StoreConfig {
    StoreConfig {
        sync_every,
        meta: hos_storage::config_fingerprint(config, None),
    }
}

/// Writes a snapshot of the fitted miner into `store`.
pub fn snapshot(store: &mut Store, miner: &HosMiner) -> Result<std::path::PathBuf, String> {
    let model = ModelFile::from_miner(miner).to_text();
    store
        .snapshot(&SnapshotState {
            dataset: miner.engine().dataset(),
            model: Some(&model),
            base: 0,
            oldest: 0,
            rows_consumed: miner.engine().dataset().len() as u64,
            search_width: hos_storage::snapshot_search_width(miner),
        })
        .map_err(|e| format!("snapshot: {e}"))
}

/// Fits the workload's miner, snapshots it into `dir`, then appends
/// `tail` WAL records alternating an insert with the retire of that
/// insert, so replay leaves the live count where it started.
pub fn prepare(
    dir: &Path,
    w: &Workload,
    data: &Data,
    tail: usize,
    seed: u64,
) -> Result<(), String> {
    let config = w.config();
    let mut miner = HosMiner::fit(data.dataset.clone(), config).map_err(|e| e.to_string())?;
    let (mut store, _) = open(dir, &config, 0)?;
    snapshot(&mut store, &miner)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut own = None;
    for _ in 0..tail {
        let op = match own.take() {
            None => {
                let row = data.insert_row(&mut rng);
                own = Some(miner.insert_point(&row).map_err(|e| e.to_string())?);
                Op::Insert(row)
            }
            Some(id) => {
                miner.retire_point(id).map_err(|e| e.to_string())?;
                Op::Retire(id as u64)
            }
        };
        store.append(&op).map_err(|e| e.to_string())?;
    }
    store.sync().map_err(|e| e.to_string())
}

/// Opens the store in `dir` (fsync every `sync_every` appends; 0 means
/// only on explicit sync) and reads what recovery must replay.
pub fn open(
    dir: &Path,
    config: &HosMinerConfig,
    sync_every: usize,
) -> Result<(Store, Recovery), String> {
    Store::open(dir, store_config(config, sync_every))
        .map_err(|e| format!("opening {}: {e}", dir.display()))
}

/// Rebuilds the miner the way `hos-serve --data-dir` does: newest
/// snapshot, then the WAL tail through the live write path.
pub fn rebuild(recovery: &Recovery, config: &HosMinerConfig) -> Result<HosMiner, String> {
    let snap = recovery
        .snapshot
        .as_ref()
        .ok_or("data dir holds no snapshot")?;
    let mut miner = hos_storage::miner_from_snapshot(snap, config).map_err(|e| e.to_string())?;
    for (_, op) in &recovery.ops {
        match op {
            Op::Insert(row) => {
                miner.insert_point(row).map_err(|e| e.to_string())?;
            }
            Op::Retire(id) => miner
                .retire_point(*id as usize)
                .map_err(|e| e.to_string())?,
            other => return Err(format!("unexpected `{}` op in the WAL tail", other.name())),
        }
    }
    Ok(miner)
}
