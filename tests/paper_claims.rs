//! Tests pinned to specific claims and worked examples in the paper
//! text, so a reader can trace each assertion back to a sentence.

use hos_miner::core::priors::Priors;
use hos_miner::core::search::dynamic_search;
use hos_miner::core::{learn, minimal_subspaces, FractionMode};
use hos_miner::data::{Dataset, Metric};
use hos_miner::index::{KnnEngine, LinearScan};
use hos_miner::lattice::{binomial, dsf, usf, Lattice, TsfComputer};
use hos_miner::Subspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// §2: "OD is defined as the sum of the distances between a point and
/// its k nearest neighbors."
#[test]
fn od_definition() {
    let ds = Dataset::from_rows(&[
        vec![0.0, 0.0],
        vec![1.0, 0.0],
        vec![0.0, 2.0],
        vec![4.0, 4.0],
    ])
    .unwrap();
    let e = LinearScan::new(ds, Metric::L2);
    let od = e.od(&[0.0, 0.0], 2, Subspace::full(2), Some(0));
    assert!((od - (1.0 + 2.0)).abs() < 1e-12);
}

/// §2 Property 1 & 2 and the inequality they rest on:
/// "ODs1(p) >= ODs2(p) if s1 ⊇ s2".
#[test]
fn od_monotonicity_claim() {
    let mut rng = StdRng::seed_from_u64(77);
    let d = 6;
    let flat: Vec<f64> = (0..200 * d).map(|_| rng.gen_range(0.0..5.0)).collect();
    let ds = Dataset::from_flat(flat, d).unwrap();
    let e = LinearScan::new(ds, Metric::L2);
    let q: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..5.0)).collect();
    for _ in 0..200 {
        let m1: u64 = rng.gen_range(1..(1 << d));
        let m2: u64 = rng.gen_range(1..(1 << d));
        let s2 = Subspace::from_mask(m1 & m2);
        if s2.is_empty() {
            continue;
        }
        let s1 = Subspace::from_mask(m1);
        let od1 = e.od(&q, 5, s1, None);
        let od2 = e.od(&q, 5, s2, None);
        assert!(od2 <= od1 + 1e-9, "OD({s2})={od2} > OD({s1})={od1}");
    }
}

/// §3.1 worked example: "Refer to a 4-dimensional space,
/// DSF([1,2,3]) = C(3,1)*1 + C(3,2)*2 = 9 and
/// USF([1,4]) = C(2,1)*(2+1) + C(2,2)*(2+2) = 10."
#[test]
fn dsf_usf_worked_example() {
    assert_eq!(dsf(3), 9.0);
    assert_eq!(usf(2, 4), 10.0);
}

/// §3.4 worked example: outlying subspaces [1,3], [2,4], [1,2,3],
/// [1,2,4], [1,3,4], [2,3,4], [1,2,3,4] filter down to [1,3], [2,4].
#[test]
fn filter_worked_example() {
    let parse = |s: &str| -> Subspace { s.parse().unwrap() };
    let input: Vec<Subspace> = [
        "[1,3]",
        "[2,4]",
        "[1,2,3]",
        "[1,2,4]",
        "[1,3,4]",
        "[2,3,4]",
        "[1,2,3,4]",
    ]
    .iter()
    .map(|s| parse(s))
    .collect();
    let minimal = minimal_subspaces(&input);
    assert_eq!(minimal, vec![parse("[1,3]"), parse("[2,4]")]);
}

/// §3.2: the fixed priors of the learning phase.
#[test]
fn learning_phase_fixed_priors() {
    let d = 7;
    let p = Priors::uniform(d);
    assert_eq!((p.up(1), p.down(1)), (1.0, 0.0));
    assert_eq!((p.up(d), p.down(d)), (0.0, 1.0));
    for m in 2..d {
        assert_eq!((p.up(m), p.down(m)), (0.5, 0.5));
    }
}

/// §3.2: "pdown(1) = pup(d) = 0" after averaging the learned values.
#[test]
fn learned_priors_boundary_convention() {
    let mut rng = StdRng::seed_from_u64(15);
    let d = 5;
    let flat: Vec<f64> = (0..300 * d).map(|_| rng.gen_range(0.0..1.0)).collect();
    let ds = Dataset::from_flat(flat, d).unwrap();
    let e = LinearScan::new(ds, Metric::L2);
    let model = learn(&e, 4, 0.8, 10, 3, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
    assert_eq!(model.priors.down(1), 0.0);
    assert_eq!(model.priors.up(d), 0.0);
}

/// §1 problem statement: "If the answer set is empty for p, we say
/// that p is not an outlier in any subspaces." — and by monotonicity
/// this is decidable from the full space alone.
#[test]
fn empty_answer_iff_full_space_below_threshold() {
    let mut rng = StdRng::seed_from_u64(31);
    let d = 5;
    let flat: Vec<f64> = (0..300 * d).map(|_| rng.gen_range(0.0..1.0)).collect();
    let ds = Dataset::from_flat(flat, d).unwrap();
    let e = LinearScan::new(ds, Metric::L2);
    let t = 1.0;
    let priors = Priors::uniform(d);
    for id in 0..30 {
        let row: Vec<f64> = e.dataset().row(id).to_vec();
        let full_od = e.od(&row, 4, Subspace::full(d), Some(id));
        let out = dynamic_search(&e, &row, Some(id), 4, t, &priors, 1);
        assert_eq!(
            out.outlying.is_empty(),
            full_od < t,
            "point {id}: full OD {full_od}, answer {:?}",
            out.outlying.len()
        );
    }
}

/// §3.1 downward pruning: "if ODs1(p) < T, then ODs2(p) < T, where
/// s1 ⊇ s2" — verified through the lattice closure.
#[test]
fn downward_pruning_soundness() {
    let mut rng = StdRng::seed_from_u64(41);
    let d = 5;
    let flat: Vec<f64> = (0..200 * d).map(|_| rng.gen_range(0.0..1.0)).collect();
    let ds = Dataset::from_flat(flat, d).unwrap();
    let e = LinearScan::new(ds, Metric::L2);
    let q: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
    let t = 0.9;
    // Find a subspace below threshold and check all its subsets are too.
    for mask in 1u64..(1 << d) {
        let s1 = Subspace::from_mask(mask);
        if e.od(&q, 4, s1, None) < t {
            for s2 in s1.strict_subsets() {
                assert!(
                    e.od(&q, 4, s2, None) < t,
                    "{s2} violates Property 1 under {s1}"
                );
            }
            break;
        }
    }
}

/// §3.1 upward pruning: "if ODs2(p) >= T, then ODs1(p) >= T".
#[test]
fn upward_pruning_soundness() {
    let mut rng = StdRng::seed_from_u64(43);
    let d = 5;
    let mut rows: Vec<Vec<f64>> = (0..150)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    rows.push(vec![9.0, 0.5, 0.5, 0.5, 0.5]);
    let ds = Dataset::from_rows(&rows).unwrap();
    let e = LinearScan::new(ds, Metric::L2);
    let q: Vec<f64> = e.dataset().row(150).to_vec();
    let t = 5.0;
    let s2 = Subspace::from_dims(&[0]);
    assert!(e.od(&q, 4, s2, Some(150)) >= t);
    for s1 in s2.supersets(d) {
        assert!(e.od(&q, 4, s1, Some(150)) >= t, "{s1} violates Property 2");
    }
}

/// The TSF level-ordering machinery exists and distinguishes levels:
/// on a fresh lattice middle levels of a reasonably-sized space have
/// strictly positive TSF, and the denominators match Definition 3.
#[test]
fn tsf_definition_sanity() {
    let d = 8;
    let t = TsfComputer::new(d);
    let l = Lattice::new(d);
    let p = Priors::uniform(d);
    for m in 1..=d {
        let v = t.tsf(m, p.up(m), p.down(m), &l);
        assert!(v >= 0.0);
        if m > 1 && m < d {
            assert!(v > 0.0, "TSF({m}) should be positive on a fresh lattice");
        }
    }
    // Lattice totals are binomials.
    for m in 1..=d {
        assert_eq!(l.remaining_at(m) as f64, binomial(d, m));
    }
}
