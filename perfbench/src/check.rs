//! The answer check: served replies against an in-process twin.
//!
//! Successful writes must carry versions 1..N with no gap or repeat.
//! The twin replays them in version order; every kept query reply must
//! match the twin's `query_each` at the reply's version bit for bit
//! (ODs by `to_bits`), every planted query must report its target
//! subspace or a subset of it, and the kept scan must match the twin's
//! `scan_outliers`.

use crate::loadgen::Sample;
use crate::workload::{Item, Kind, Req, SCAN_TOP};
use hos_core::{HosMiner, QueryOutcome, QuerySpec};
use hos_data::Subspace;
use hos_serve::Json;

pub struct Checked {
    pub queries: usize,
    pub writes: usize,
    pub scans: usize,
}

fn version(s: &Sample) -> Result<u64, String> {
    s.reply
        .as_ref()
        .and_then(|r| r.get("version")?.as_usize())
        .map(|v| v as u64)
        .ok_or_else(|| "reply without a version".to_string())
}

fn dims(v: &Json) -> Option<Vec<usize>> {
    v.as_array()?.iter().map(Json::as_usize).collect()
}

fn same_subspace(v: &Json, s: Subspace) -> bool {
    dims(v).is_some_and(|d| d == s.dims().collect::<Vec<_>>())
}

fn same_bits(v: &Json, x: f64) -> bool {
    v.as_f64().is_some_and(|y| y.to_bits() == x.to_bits())
}

fn compare_outcome(got: &Json, want: &QueryOutcome) -> Result<(), String> {
    let outlying = got
        .get("outlying")
        .and_then(Json::as_array)
        .ok_or("no outlying")?;
    if outlying.len() != want.outlying.len() {
        return Err(format!(
            "{} outlying subspaces served, twin found {}",
            outlying.len(),
            want.outlying.len()
        ));
    }
    for (g, w) in outlying.iter().zip(&want.outlying) {
        let od_ok = match (g.get("od"), w.od) {
            (Some(Json::Null), None) => true,
            (Some(v), Some(x)) => same_bits(v, x),
            _ => false,
        };
        if !od_ok
            || !g
                .get("subspace")
                .is_some_and(|v| same_subspace(v, w.subspace))
        {
            return Err(format!(
                "outlying entry {} differs from twin {:?}",
                g.render(),
                w
            ));
        }
    }
    let minimal = got
        .get("minimal")
        .and_then(Json::as_array)
        .ok_or("no minimal")?;
    if minimal.len() != want.minimal.len()
        || !minimal
            .iter()
            .zip(&want.minimal)
            .all(|(g, w)| same_subspace(g, *w))
    {
        return Err(format!(
            "minimal subspaces differ from twin {:?}",
            want.minimal
        ));
    }
    Ok(())
}

fn check_query(twin: &HosMiner, item: &Item, s: &Sample) -> Result<(), String> {
    let spec = match &item.req {
        Req::Member(id) => QuerySpec::Member(*id),
        Req::Point { row, .. } => QuerySpec::Point(row.clone()),
        _ => unreachable!("queries only"),
    };
    let got = s
        .reply
        .as_ref()
        .and_then(|r| r.get("results")?.as_array()?.first())
        .ok_or("query reply without a result")?;
    let want = twin
        .query_each(std::slice::from_ref(&spec))
        .pop()
        .expect("one result per spec")
        .map_err(|e| format!("twin failed: {e}"))?;
    compare_outcome(got, &want)?;
    if let Req::Point { target, .. } = &item.req {
        if !want.minimal.iter().any(|m| m.is_subset_of(*target)) {
            return Err(format!(
                "planted query reported {:?}, none within its target {target}",
                want.minimal
            ));
        }
    }
    Ok(())
}

fn check_scan(twin: &HosMiner, s: &Sample) -> Result<(), String> {
    let got = s.reply.as_ref().ok_or("scan reply missing")?;
    let want = hos_core::scan_outliers(twin, SCAN_TOP).map_err(|e| format!("twin scan: {e}"))?;
    let hits = got
        .get("hits")
        .and_then(Json::as_array)
        .ok_or("scan without hits")?;
    let same = got
        .get("threshold")
        .is_some_and(|v| same_bits(v, want.threshold))
        && hits.len() == want.hits.len()
        && hits.iter().zip(&want.hits).all(|(g, w)| {
            g.get("id").and_then(Json::as_usize) == Some(w.id)
                && g.get("full_od").is_some_and(|v| same_bits(v, w.full_od))
                && g.get("minimal").and_then(Json::as_array).is_some_and(|m| {
                    m.len() == w.outcome.minimal.len()
                        && m.iter()
                            .zip(&w.outcome.minimal)
                            .all(|(a, b)| same_subspace(a, *b))
                })
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "scan differs from twin (hits {:?})",
            want.hit_ids()
        ))
    }
}

/// Checks every `(item, sample)` the served run produced against
/// `twin`, which must start in the server's initial state.
pub fn verify(twin: &mut HosMiner, sent: &[(&Item, &Sample)]) -> Result<Checked, String> {
    let mut writes = Vec::new();
    let mut checks = Vec::new();
    for &(item, s) in sent {
        if !s.ok() {
            continue;
        }
        match s.kind {
            Kind::Write => writes.push((version(s)?, item, s)),
            _ if item.check => checks.push((version(s)?, item, s)),
            _ => {}
        }
    }
    writes.sort_by_key(|w| w.0);
    for (i, w) in writes.iter().enumerate() {
        if w.0 != i as u64 + 1 {
            return Err(format!(
                "write versions are not 1..{}: position {} holds version {}",
                writes.len(),
                i + 1,
                w.0
            ));
        }
    }
    checks.sort_by_key(|c| c.0);
    let mut applied = 0usize;
    let mut apply_to = |twin: &mut HosMiner, version: u64| -> Result<(), String> {
        while (applied as u64) < version {
            let (_, item, s) = writes[applied];
            match &item.req {
                Req::Insert(row) => {
                    let id = twin
                        .insert_point(row)
                        .map_err(|e| format!("twin insert: {e}"))?;
                    let served = s.reply.as_ref().and_then(|r| r.get("id")?.as_usize());
                    if served != Some(id) {
                        return Err(format!("insert served id {served:?}, twin assigned {id}"));
                    }
                }
                Req::RetireOwn => {
                    let id = s.retired.ok_or("retire without an id")?;
                    twin.retire_point(id)
                        .map_err(|e| format!("twin retire {id}: {e}"))?;
                }
                _ => unreachable!("writes only"),
            }
            applied += 1;
        }
        Ok(())
    };
    let (mut queries, mut scans) = (0, 0);
    for (v, item, s) in &checks {
        apply_to(twin, *v)?;
        if s.kind == Kind::Scan {
            check_scan(twin, s)?;
            scans += 1;
        } else {
            check_query(twin, item, s).map_err(|e| format!("query at version {v}: {e}"))?;
            queries += 1;
        }
    }
    apply_to(twin, writes.len() as u64)?;
    Ok(Checked {
        queries,
        writes: writes.len(),
        scans,
    })
}
