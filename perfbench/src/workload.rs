//! The workloads: data, request mixes and seeded open-loop schedules.
//!
//! Everything here is a pure function of the seed. The server sees only
//! what this module writes: the CSV and the requests on the wire.

use hos_core::{HosMinerConfig, QuerySpec, ThresholdPolicy};
use hos_data::synth::normal;
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::{Dataset, Subspace};
use hos_index::Engine;
use hos_serve::json::fmt_f64_roundtrip;
use hos_serve::ApiRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Wire format a workload speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// JSON over HTTP/1.1 keep-alive, one request in flight per
    /// connection.
    Json,
    /// hosbin length-prefixed frames, pipelined.
    Bin,
}

/// Durable-store settings of a workload served with `--data-dir`.
#[derive(Clone, Copy, Debug)]
pub struct Durable {
    pub sync_every: usize,
    pub snapshot_every: u64,
    /// WAL records written after the prepared snapshot, replayed by
    /// every set-up.
    pub wal_tail: usize,
}

/// One workload. Rates and limits are the values BENCHMARK.json
/// documents.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub d: usize,
    pub engine: &'static str,
    pub wire: Wire,
    /// Requests in flight per connection.
    pub pipeline: usize,
    /// Fixed offered rate, requests per second.
    pub rate: f64,
    /// Latency limit on the tail, milliseconds.
    pub limit_ms: f64,
    /// Share of mix requests that are writes.
    pub write_frac: f64,
    /// Share of queries that are displaced points rather than ids.
    pub point_frac: f64,
    /// Seconds between scans in the mix (`None`: no scans in the mix).
    pub scan_every_s: Option<f64>,
    /// Scans in the closed-loop scan probe, for mixes without scans.
    pub scan_probe: Option<usize>,
    pub durable: Option<Durable>,
    /// Mix requests the traced run replays.
    pub trace_requests: usize,
    /// One query in this many is kept for the answer check.
    pub check_every: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point-lookup",
        n: 2000,
        d: 6,
        engine: "linear",
        wire: Wire::Json,
        pipeline: 1,
        rate: 1000.0,
        limit_ms: 50.0,
        write_frac: 0.10,
        point_frac: 0.0,
        scan_every_s: None,
        scan_probe: Some(30),
        durable: None,
        trace_requests: 4000,
        check_every: 16,
    },
    Workload {
        name: "deep-search",
        n: 20000,
        d: 12,
        engine: "linear",
        wire: Wire::Bin,
        pipeline: 4,
        rate: 20.0,
        limit_ms: 100.0,
        write_frac: 0.0,
        point_frac: 0.7,
        scan_every_s: None,
        scan_probe: Some(3),
        durable: None,
        trace_requests: 300,
        check_every: 64,
    },
    Workload {
        name: "durable-churn",
        n: 5000,
        d: 8,
        engine: "xtree",
        wire: Wire::Json,
        pipeline: 1,
        rate: 200.0,
        limit_ms: 200.0,
        write_frac: 0.5,
        point_frac: 0.3,
        scan_every_s: Some(2.0),
        scan_probe: None,
        durable: Some(Durable {
            sync_every: 1,
            snapshot_every: 1000,
            wal_tail: 2000,
        }),
        trace_requests: 1500,
        check_every: 16,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Cluster sigma of the planted data; displacements are in its units.
const SIGMA: f64 = 1.0;
/// Minimum displacement of a planted query, in sigmas beyond the
/// column's range.
const DISPLACE_SIGMAS: f64 = 12.0;
/// `top` of every scan.
pub const SCAN_TOP: usize = 10;

/// One request of a schedule.
#[derive(Clone, Debug)]
pub enum Req {
    /// `/query {"id"}`.
    Member(usize),
    /// `/query {"point"}`: a member row displaced in `target`'s dims.
    Point { row: Vec<f64>, target: Subspace },
    /// `/insert {"row"}`.
    Insert(Vec<f64>),
    /// `/retire` of the row this connection inserted last.
    RetireOwn,
    /// `/scan {"top"}`.
    Scan,
}

impl Req {
    pub fn kind(&self) -> Kind {
        match self {
            Req::Member(_) | Req::Point { .. } => Kind::Query,
            Req::Insert(_) | Req::RetireOwn => Kind::Write,
            Req::Scan => Kind::Scan,
        }
    }

    /// The API request; `own` resolves [`Req::RetireOwn`] (`None` when
    /// this connection holds no inserted row).
    pub fn api(&self, own: Option<usize>) -> Option<ApiRequest> {
        Some(match self {
            Req::Member(id) => ApiRequest::Query(vec![QuerySpec::Member(*id)]),
            Req::Point { row, .. } => ApiRequest::Query(vec![QuerySpec::Point(row.clone())]),
            Req::Insert(row) => ApiRequest::Insert(row.clone()),
            Req::RetireOwn => ApiRequest::Retire(own?),
            Req::Scan => ApiRequest::Scan { top: SCAN_TOP },
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Query,
    Write,
    Scan,
}

/// A scheduled request: due `at` seconds after its phase starts.
#[derive(Clone, Debug)]
pub struct Item {
    pub at: f64,
    pub req: Req,
    /// Keep the reply for the answer check.
    pub check: bool,
}

/// What a phase sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// The workload's own mix.
    Main,
    /// Writes only (insert / retire-own-insert).
    Writes,
}

/// The generated dataset plus what queries and inserts draw from.
pub struct Data {
    pub dataset: Dataset,
    col_min: Vec<f64>,
    col_max: Vec<f64>,
}

impl Workload {
    /// The miner configuration `hos-serve` builds from the flags
    /// [`Workload::serve_args`] passes.
    pub fn config(&self) -> HosMinerConfig {
        HosMinerConfig {
            k: 5,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 200,
            },
            engine: self.engine.parse::<Engine>().expect("known engine"),
            sample_size: 20,
            threads: 2,
            shards: 1,
            seed: 0,
            ..HosMinerConfig::default()
        }
    }

    /// `hos-serve` flags, minus `--data-dir`.
    pub fn serve_args(&self, csv: &str) -> Vec<String> {
        let mut args: Vec<String> = [
            "--data",
            csv,
            "--engine",
            self.engine,
            "--workers",
            "2",
            "--threads",
            "2",
            "--addr",
            "127.0.0.1:0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(dur) = self.durable {
            args.extend([
                "--sync-every".to_string(),
                dur.sync_every.to_string(),
                "--snapshot-every".to_string(),
                dur.snapshot_every.to_string(),
            ]);
        }
        args
    }

    /// Planted data: `n` background rows in three clusters plus two
    /// planted outliers.
    pub fn data(&self, seed: u64) -> Data {
        let spec = PlantedSpec {
            n_background: self.n,
            d: self.d,
            n_clusters: 3,
            cluster_sigma: SIGMA,
            extent: 60.0,
            targets: vec![Subspace::from_dims(&[0, 1]), Subspace::from_dims(&[2])],
            shift_sigmas: DISPLACE_SIGMAS,
            seed,
        };
        let dataset = generate(&spec).expect("valid planted spec").dataset;
        let fold = |j: usize, f: fn(f64, f64) -> f64, init: f64| dataset.column(j).fold(init, f);
        let col_min = (0..self.d)
            .map(|j| fold(j, f64::min, f64::INFINITY))
            .collect();
        let col_max = (0..self.d)
            .map(|j| fold(j, f64::max, f64::NEG_INFINITY))
            .collect();
        Data {
            dataset,
            col_min,
            col_max,
        }
    }

    /// The two connections' schedules for one phase of the mix:
    /// independent Poisson streams at `rate / 2` each (so their union is
    /// Poisson at `rate`), with the mix's scans evenly spaced on
    /// connection 1.
    pub fn schedule(&self, data: &Data, rate: f64, seconds: f64, seed: u64) -> [Vec<Item>; 2] {
        self.stream(data, Mix::Main, rate, seconds, seed)
    }

    /// The write probe of a mix without writes: open-loop inserts and
    /// retires at `rate` for `seconds`, split over both connections.
    pub fn write_probe(&self, data: &Data, rate: f64, seconds: f64, seed: u64) -> [Vec<Item>; 2] {
        self.stream(data, Mix::Writes, rate, seconds, seed)
    }

    /// The scan probe of a mix without scans: `count` scans on
    /// connection 0, all due at once, so each goes out as soon as the
    /// last reply is in.
    pub fn scan_probe(&self, count: usize) -> [Vec<Item>; 2] {
        let scans = (0..count)
            .map(|i| Item {
                at: 0.0,
                req: Req::Scan,
                check: i == 0,
            })
            .collect();
        [scans, Vec::new()]
    }

    fn stream(&self, data: &Data, mix: Mix, rate: f64, seconds: f64, seed: u64) -> [Vec<Item>; 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan: [Vec<Item>; 2] = [Vec::new(), Vec::new()];
        for conn in plan.iter_mut() {
            let mut at = 0.0;
            let mut insert_next = true;
            let mut queries = 0usize;
            loop {
                at += -(1.0 - rng.gen::<f64>()).ln() / (0.5 * rate);
                if at >= seconds {
                    break;
                }
                let write = mix == Mix::Writes || rng.gen::<f64>() < self.write_frac;
                let (req, check) = if write {
                    let req = if insert_next {
                        Req::Insert(data.insert_row(&mut rng))
                    } else {
                        Req::RetireOwn
                    };
                    insert_next = !insert_next;
                    (req, true)
                } else {
                    queries += 1;
                    let req = if rng.gen::<f64>() < self.point_frac {
                        data.displaced(&mut rng)
                    } else {
                        Req::Member(rng.gen_range(0..data.dataset.len()))
                    };
                    (req, queries % self.check_every == 1)
                };
                conn.push(Item { at, req, check });
            }
        }
        if let (Mix::Main, Some(every)) = (mix, self.scan_every_s) {
            let scans = (0..)
                .map(|i| (i as f64 + 0.5) * every)
                .take_while(|&at| at < seconds);
            for (i, at) in scans.enumerate() {
                plan[1].push(Item {
                    at,
                    req: Req::Scan,
                    check: i == 0,
                });
            }
            plan[1].sort_by(|a, b| a.at.total_cmp(&b.at));
        }
        plan
    }
}

impl Data {
    fn member<'a>(&'a self, rng: &mut StdRng) -> &'a [f64] {
        self.dataset.row(rng.gen_range(0..self.dataset.len()))
    }

    /// A member row with small noise: an inlier, like the data.
    pub fn insert_row(&self, rng: &mut StdRng) -> Vec<f64> {
        let base = self.member(rng).to_vec();
        base.iter().map(|&x| normal(rng, x, 0.25 * SIGMA)).collect()
    }

    /// A member row pushed beyond its column's range by at least
    /// [`DISPLACE_SIGMAS`] in 1–3 dims: every displaced dim alone is an
    /// outlying subspace, so the answer must hold one of them.
    pub fn displaced(&self, rng: &mut StdRng) -> Req {
        let mut row = self.member(rng).to_vec();
        let d = row.len();
        let mut dims: Vec<usize> = Vec::new();
        let want = rng.gen_range(1..=3usize.min(d));
        while dims.len() < want {
            let j = rng.gen_range(0..d);
            if !dims.contains(&j) {
                dims.push(j);
            }
        }
        for &j in &dims {
            let shift = DISPLACE_SIGMAS * SIGMA * (1.0 + 0.5 * rng.gen::<f64>());
            row[j] = if rng.gen_bool(0.5) {
                self.col_max[j] + shift
            } else {
                self.col_min[j] - shift
            };
        }
        Req::Point {
            row,
            target: Subspace::from_dims(&dims),
        }
    }

    /// The dataset as CSV text that parses back to the same bits.
    pub fn csv(&self) -> String {
        let mut out = String::with_capacity(self.dataset.len() * self.dataset.dim() * 20);
        for i in 0..self.dataset.len() {
            for (j, v) in self.dataset.row(i).iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&fmt_f64_roundtrip(*v));
            }
            out.push('\n');
        }
        out
    }
}

/// Appends `api` to `out` in `wire` format, ready to send.
pub fn encode(wire: Wire, api: &ApiRequest, out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
    match wire {
        Wire::Json => {
            let (path, body) = json_body(api);
            let _ = write!(
                ByteWriter(out),
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            out.extend_from_slice(body.as_bytes());
        }
        Wire::Bin => {
            let opcode = hos_serve::codec::encode_bin_request(api, scratch);
            tinyhttp::bin::write_frame(out, &mut Vec::new(), opcode, scratch)
                .expect("writing to a Vec cannot fail");
        }
    }
}

struct ByteWriter<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for ByteWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

fn push_point(out: &mut String, p: &[f64]) {
    out.push('[');
    for (i, v) in p.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64_roundtrip(*v));
    }
    out.push(']');
}

/// Route and JSON body of a request.
pub fn json_body(api: &ApiRequest) -> (&'static str, String) {
    let mut body = String::new();
    let path = match api {
        ApiRequest::Query(specs) => {
            match specs.as_slice() {
                [QuerySpec::Member(id)] => {
                    let _ = write!(body, "{{\"id\":{id}}}");
                }
                [QuerySpec::Point(p)] => {
                    body.push_str("{\"point\":");
                    push_point(&mut body, p);
                    body.push('}');
                }
                _ => unreachable!("the benchmark sends one spec per query"),
            }
            "/query"
        }
        ApiRequest::Insert(row) => {
            body.push_str("{\"row\":");
            push_point(&mut body, row);
            body.push('}');
            "/insert"
        }
        ApiRequest::Retire(id) => {
            let _ = write!(body, "{{\"id\":{id}}}");
            "/retire"
        }
        ApiRequest::Scan { top } => {
            let _ = write!(body, "{{\"top\":{top}}}");
            "/scan"
        }
        _ => unreachable!("the benchmark sends queries, writes and scans only"),
    };
    (path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let w = by_name("durable-churn").unwrap();
        let data = w.data(3);
        let a = w.schedule(&data, 200.0, 5.0, 9);
        let b = w.schedule(&data, 200.0, 5.0, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            assert!(x.iter().zip(y).all(|(p, q)| p.at == q.at));
        }
        let total = a[0].len() + a[1].len();
        // Poisson at 200/s over 5 s, plus two scans.
        assert!((850..1150).contains(&total), "{total}");
        assert!(a.iter().all(|c| c.windows(2).all(|p| p[0].at <= p[1].at)));
        assert_eq!(
            a[1].iter().filter(|i| matches!(i.req, Req::Scan)).count(),
            2
        );
    }

    #[test]
    fn displaced_points_leave_every_column_range_in_their_target() {
        let w = by_name("deep-search").unwrap();
        let data = w.data(1);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let Req::Point { row, target } = data.displaced(&mut rng) else {
                unreachable!()
            };
            assert!((1..=3).contains(&target.dim()));
            for j in target.dims() {
                assert!(row[j] > data.col_max[j] + 11.9 || row[j] < data.col_min[j] - 11.9);
            }
        }
    }

    #[test]
    fn csv_round_trips_bits() {
        let w = by_name("point-lookup").unwrap();
        let data = w.data(2);
        let back = hos_data::csv::read_csv(data.csv().as_bytes(), &Default::default()).unwrap();
        assert_eq!(back.len(), data.dataset.len());
        for i in 0..back.len() {
            let (a, b) = (back.row(i), data.dataset.row(i));
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
