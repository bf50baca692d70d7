//! hos-perfbench: the served benchmark for `hos-serve`.
//!
//! One pass of one workload:
//!
//! 1. generate the workload's data and request schedules from `--seed`;
//! 2. start `hos-serve` on them (several times, to time set-up);
//! 3. drive it open-loop from two connections: a warm-up, a phase at the
//!    workload's fixed offered rate, then (untraced passes) a ladder of
//!    rates searched for the highest one that meets the latency limit,
//!    and probe phases for request kinds the workload's mix lacks;
//! 4. check the answers against an in-process twin;
//! 5. with `--trace 1`, replay the request stream in-process with spans
//!    around each layer's public calls.
//!
//! The last line of standard output is the JSON result. Usage:
//!
//! ```text
//! hos-perfbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod check;
mod durable;
mod loadgen;
mod serve_proc;
mod stats;
mod trace;
mod traced;
mod workload;

use loadgen::{Conn, Sample};
use serve_proc::ServeProc;
use stats::{median, robust_tail, sorted, Verdict};
use std::path::{Path, PathBuf};
use workload::{Data, Item, Kind, Workload};

/// Set-ups timed per untraced pass, in three windows; `setup_s` is
/// their interquartile mean.
const SETUP_TRIALS: usize = 15;
/// A pass whose generator sent later than this share of the workload's
/// latency limit (p99 of its own delay, in the fixed-rate phase) is
/// invalid rather than slow. Latency runs from the scheduled send, so
/// smaller delays are already charged to the requests they hold up;
/// the bound only catches a generator that no longer follows its
/// schedule. On a two-vCPU host that other tenants load, scheduler
/// delays alone reach 12 ms at p99.
const LATE_BOUND: f64 = 0.5;
/// Offered rate of the write probe, writes per second.
const WRITE_PROBE_RATE: f64 = 400.0;
/// Probe-phase requests the traced run replays, per probe.
const TRACE_PROBE_WRITES: usize = 200;
const TRACE_PROBE_SCANS: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
        serve_bin: PathBuf::from(get("--serve-bin")?),
    })
}

/// One phase of the served run.
struct Phase {
    label: String,
    plan: [Vec<Item>; 2],
    samples: [Vec<Sample>; 2],
    /// A closed-loop probe: latency runs from the actual send.
    closed: bool,
}

impl Phase {
    fn pairs(&self) -> impl Iterator<Item = (&Item, &Sample)> {
        self.plan
            .iter()
            .flatten()
            .zip(self.samples.iter().flatten())
    }

    /// This phase followed by `later`, which started `offset` seconds
    /// after it, as one phase.
    fn join(mut self, later: Phase, offset: f64) -> Phase {
        for (c, (plan, samples)) in later.plan.into_iter().zip(later.samples).enumerate() {
            self.plan[c].extend(plan.into_iter().map(|mut it| {
                it.at += offset;
                it
            }));
            self.samples[c].extend(samples.into_iter().map(|mut s| {
                s.sched += offset;
                s.sent += offset;
                s.done += offset;
                s
            }));
        }
        self
    }

    fn failed(&self) -> usize {
        self.samples.iter().flatten().filter(|s| !s.ok()).count()
    }

    fn attempted(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Latencies in ms of one kind, in scheduled order; a failed
    /// request never meets a limit, so it counts as infinitely late.
    fn by_time_ms(&self, kind: Kind) -> Vec<f64> {
        let mut v: Vec<(f64, f64)> = self
            .samples
            .iter()
            .flatten()
            .filter(|s| s.kind == kind)
            .map(|s| {
                let lat = if self.closed {
                    s.service()
                } else {
                    s.latency()
                };
                (s.sched, if s.ok() { lat * 1e3 } else { f64::INFINITY })
            })
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.into_iter().map(|p| p.1).collect()
    }

    /// The same latencies, ascending.
    fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        sorted(self.by_time_ms(kind))
    }

    /// Whether the phase met `limit_ms`, and its throughput over
    /// `seconds`.
    fn judge(&self, limit_ms: f64, seconds: f64) -> (bool, f64) {
        (
            self.verdict(limit_ms).pass(limit_ms / 1e3),
            self.throughput(seconds),
        )
    }

    fn verdict(&self, limit_ms: f64) -> Verdict {
        let by_time: Vec<f64> = self
            .by_time_ms(Kind::Query)
            .iter()
            .map(|ms| ms / 1e3)
            .collect();
        Verdict::judge(&by_time, self.failed(), limit_ms / 1e3)
    }

    /// Completed requests per second of the phase's wall time.
    fn throughput(&self, seconds: f64) -> f64 {
        let ok = self.samples.iter().flatten().filter(|s| s.ok());
        let end = ok.clone().map(|s| s.done).fold(seconds, f64::max);
        ok.count() as f64 / end
    }
}

/// A per-pass seed for each phase's schedule.
fn phase_seed(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03)
}

/// Splits each connection's schedule at `at` seconds; the second part's
/// times restart from 0.
fn split_plan(plan: [Vec<Item>; 2], at: f64) -> ([Vec<Item>; 2], [Vec<Item>; 2]) {
    let (mut before, mut after) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    for (c, items) in plan.into_iter().enumerate() {
        for mut it in items {
            if it.at < at {
                before[c].push(it);
            } else {
                it.at -= at;
                after[c].push(it);
            }
        }
    }
    (before, after)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything one pass measures before the traced replay.
struct Served {
    setup_s: Vec<f64>,
    phases: Vec<Phase>,
    rungs: Vec<(i32, bool, f64)>,
    stats: hos_serve::Json,
    rss_mb: f64,
}

struct Env<'a> {
    args: &'a Args,
    w: &'static Workload,
    data: &'a Data,
    run_dir: &'a Path,
    csv: String,
    prepared: Option<PathBuf>,
}

impl Env<'_> {
    /// Starts one server; a durable workload's gets a fresh copy of the
    /// prepared data dir, so every set-up recovers the same state.
    fn start(&self, trial: usize) -> Result<(ServeProc, f64), String> {
        let mut args = self.w.serve_args(&self.csv);
        if let Some(prep) = &self.prepared {
            let dir = self.run_dir.join(format!("data-{trial}"));
            serve_proc::copy_dir(prep, &dir)?;
            args.extend(["--data-dir".to_string(), dir.display().to_string()]);
        }
        let log = self.run_dir.join(format!("serve-{trial}.log"));
        ServeProc::start(&self.args.serve_bin, &args, &log)
    }

    /// The write probe of a mix without writes: open-loop writes at
    /// [`WRITE_PROBE_RATE`] for a fifth of the pass.
    fn write_probe(&self) -> Option<[Vec<Item>; 2]> {
        let seconds = 0.2 * self.args.seconds;
        let seed = phase_seed(self.args.seed, 200);
        (self.w.write_frac == 0.0).then(|| {
            self.w
                .write_probe(self.data, WRITE_PROBE_RATE, seconds, seed)
        })
    }

    /// The closed-loop scan probe of a mix without scans.
    fn scan_probe(&self) -> Option<[Vec<Item>; 2]> {
        let count = self
            .w
            .scan_probe
            .filter(|_| self.w.scan_every_s.is_none())?;
        Some(self.w.scan_probe(count))
    }

    /// Times `count` set-ups from trial `first` on, each server shut
    /// down again.
    fn time_setups(&self, first: usize, count: usize, out: &mut Vec<f64>) -> Result<(), String> {
        for t in first..first + count {
            let (proc, s) = self.start(t)?;
            out.push(s);
            proc.shutdown()?;
        }
        Ok(())
    }

    fn served(&self) -> Result<Served, String> {
        let (w, secs, seed) = (self.w, self.args.seconds, self.args.seed);
        let timed = !self.args.trace;
        let per_window = SETUP_TRIALS / 3;
        let mut setup_s = Vec::new();
        // Untraced passes first start one untimed server, so the page
        // cache and the CPUs are warm for the timed set-ups. The timed
        // ones come in three windows spread over the pass, because the
        // host's speed changes from one window of seconds to the next.
        if timed {
            self.start(0)?.0.shutdown()?;
            self.time_setups(1, per_window - 1, &mut setup_s)?;
        }
        let (proc, s) = self.start(per_window)?;
        setup_s.push(s);
        let open = || Conn::open(proc.addr, w.wire).map_err(|e| format!("connecting: {e}"));
        let mut conns = [open()?, open()?];
        let mut phases: Vec<Phase> = Vec::new();
        // Drives one phase.
        let mut drive = |label: String, plan: [Vec<Item>; 2]| -> Result<Phase, String> {
            // Probes send one request at a time (a retire needs its
            // insert's id); the scan probe is a closed loop.
            let depth = if label.starts_with("probe") {
                1
            } else {
                w.pipeline
            };
            let samples = loadgen::run_phase(&mut conns, &plan, depth);
            if conns.iter().any(Conn::dead) {
                return Err(format!("a load connection died during {label}"));
            }
            Ok(Phase {
                closed: label == "probe-scans",
                label,
                plan,
                samples,
            })
        };
        // Untraced passes spend their time at the fixed rate; traced
        // passes share it with the capacity ladder and the scan probe.
        let warm = (0.1 * secs).min(3.0);
        let fixed_s = if self.args.trace {
            0.6 * secs
        } else {
            0.75 * secs
        };
        phases.push(drive(
            "warmup".into(),
            w.schedule(self.data, w.rate, warm, phase_seed(seed, 1)),
        )?);
        // The fixed phase runs in two halves, the second set-up window
        // between them, and is judged as one.
        let half = 0.5 * fixed_s;
        let (first, second) = split_plan(
            w.schedule(self.data, w.rate, fixed_s, phase_seed(seed, 2)),
            half,
        );
        let first = drive("fixed".into(), first)?;
        if timed {
            self.time_setups(per_window + 1, per_window, &mut setup_s)?;
        }
        let fixed = first.join(drive("fixed".into(), second)?, half);
        let (pass, tput) = fixed.judge(w.limit_ms, fixed_s);
        phases.push(fixed);
        let mut rungs = vec![(0, pass, tput)];
        if let Some(plan) = self.write_probe() {
            phases.push(drive("probe-writes".into(), plan)?);
        }
        if self.args.trace {
            let rung_s = 0.05 * secs;
            let mut budget = 0.3 * secs;
            let history = |r: &[(i32, bool, f64)]| r.iter().map(|x| (x.0, x.1)).collect::<Vec<_>>();
            let mut next = Some(stats::LADDER_FROM);
            while let Some(g) = next.filter(|_| budget >= rung_s) {
                budget -= rung_s;
                let rate = stats::rung_rate(w.rate, g);
                let plan = w.schedule(self.data, rate, rung_s, phase_seed(seed, 100 + g as u64));
                let p = drive(format!("rung {g} ({rate:.0}/s)"), plan)?;
                let (pass, tput) = p.judge(w.limit_ms, rung_s);
                rungs.push((g, pass, tput));
                phases.push(p);
                next = stats::next_rung(&history(&rungs));
            }
            if let Some(plan) = self.scan_probe() {
                phases.push(drive("probe-scans".into(), plan)?);
            }
        }
        drop(conns);
        if timed {
            self.time_setups(2 * per_window + 1, per_window, &mut setup_s)?;
        }
        let stats = proc.call("GET", "/stats")?;
        let rss_mb = proc.peak_rss_mb()?;
        proc.shutdown()?;
        Ok(Served {
            setup_s,
            phases,
            rungs,
            stats,
            rss_mb,
        })
    }
}

fn phase<'a>(served: &'a Served, label: &str) -> Option<&'a Phase> {
    served.phases.iter().find(|p| p.label == label)
}

fn write_phase<'a>(w: &Workload, served: &'a Served) -> &'a Phase {
    let label = if w.write_frac > 0.0 {
        "fixed"
    } else {
        "probe-writes"
    };
    phase(served, label).expect("a phase with writes")
}

/// p99 per [`robust_tail`]: the highest percentile with ten samples
/// beyond it when a phase is too short for p99 itself.
fn p99(p: &Phase, kind: Kind) -> Result<f64, String> {
    robust_tail(&p.by_time_ms(kind)).ok_or(format!("too few {kind:?} samples for a tail"))
}

/// The gated metrics of an untraced pass.
fn end_to_end(w: &Workload, served: &Served, m: &mut Metrics) {
    let fixed = phase(served, "fixed").expect("fixed phase");
    m.put(
        "setup_s",
        stats::interquartile_mean(&sorted(served.setup_s.iter().copied())),
        "s",
    );
    m.put(
        "query_p50_ms",
        median(&fixed.latencies_ms(Kind::Query)),
        "ms",
    );
    m.put(
        "write_p50_ms",
        median(&write_phase(w, served).latencies_ms(Kind::Write)),
        "ms",
    );
}

/// The served numbers a traced pass reports beside its layers: tails,
/// capacity, scan latency and peak memory, whose spread between passes
/// on a two-vCPU host is too wide to gate (see perfbench/README.md).
fn served_diagnostics(w: &Workload, served: &Served, m: &mut Metrics) -> Result<(), String> {
    let fixed = phase(served, "fixed").expect("fixed phase");
    m.put("server_rss_mb", served.rss_mb, "MB");
    m.put("query_p99_ms", p99(fixed, Kind::Query)?, "ms");
    m.put(
        "write_p99_ms",
        p99(write_phase(w, served), Kind::Write)?,
        "ms",
    );
    let best = stats::best_rung(&served.rungs.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>());
    let max_rate = match best {
        Some(g) => served.rungs.iter().find(|r| r.0 == g).expect("rung").2,
        // Nothing met the limit: report the lowest rung's throughput.
        None => served.rungs.iter().min_by_key(|r| r.0).expect("rung").2,
    };
    m.put("max_rate_rps", max_rate, "req/s");
    let scans = phase(
        served,
        if w.scan_every_s.is_some() {
            "fixed"
        } else {
            "probe-scans"
        },
    );
    m.put(
        "scan_p50_ms",
        median(&scans.expect("a phase with scans").latencies_ms(Kind::Scan)),
        "ms",
    );
    Ok(())
}

fn late_p99_ms(served: &Served) -> f64 {
    let fixed = phase(served, "fixed").expect("fixed phase");
    stats::percentile(
        &sorted(fixed.samples.iter().flatten().map(|s| s.late * 1e3)),
        990,
    )
}

fn run(args: &Args, run_dir: &Path) -> Result<(usize, usize, Metrics), String> {
    let w = args.workload;
    let data = w.data(args.seed);
    let csv_path = run_dir.join("data.csv");
    std::fs::write(&csv_path, data.csv()).map_err(|e| format!("writing csv: {e}"))?;
    let prepared = match w.durable {
        Some(dur) => {
            let dir = run_dir.join("prepared");
            durable::prepare(&dir, w, &data, dur.wal_tail, phase_seed(args.seed, 3))?;
            Some(dir)
        }
        None => None,
    };
    let env = Env {
        args,
        w,
        data: &data,
        run_dir,
        csv: csv_path.display().to_string(),
        prepared,
    };
    let served = env.served()?;
    let attempted: usize = served.phases.iter().map(Phase::attempted).sum();
    let failed: usize = served.phases.iter().map(Phase::failed).sum();

    // The run record.
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" commit={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
    );
    println!(
        "params: n={} d={} engine={} wire={:?} pipeline={} rate={}/s limit={}ms write_frac={} point_frac={} scan_every_s={:?} durable={:?}",
        w.n, w.d, w.engine, w.wire, w.pipeline, w.rate, w.limit_ms, w.write_frac, w.point_frac, w.scan_every_s, w.durable
    );
    for p in &served.phases {
        let v = p.verdict(w.limit_ms);
        println!(
            "phase {:<18} sent={:<6} ok={:<6} failed={:<3} tail={:.3}ms growing={}",
            p.label,
            p.attempted(),
            p.attempted() - p.failed(),
            p.failed(),
            v.tail_s * 1e3,
            v.growing
        );
    }
    let trials: Vec<String> = served.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup_s trials, in order: {}", trials.join(" "));
    let late = late_p99_ms(&served);
    let bound = LATE_BOUND * w.limit_ms;
    println!("loadgen.late_p99_ms={late:.4} (bound {bound})");
    if late > bound {
        return Err(format!(
            "invalid run: the generator sent {late:.3} ms late at p99 (bound {bound} ms)"
        ));
    }

    // The answer check.
    let mut twin = match &env.prepared {
        Some(prep) => {
            let copy = run_dir.join("twin");
            serve_proc::copy_dir(prep, &copy)?;
            let (_, recovery) = durable::open(&copy, &w.config(), 0)?;
            durable::rebuild(&recovery, &w.config())?
        }
        None => {
            hos_core::HosMiner::fit(data.dataset.clone(), w.config()).map_err(|e| e.to_string())?
        }
    };
    let sent: Vec<(&Item, &Sample)> = served.phases.iter().flat_map(Phase::pairs).collect();
    let checked =
        check::verify(&mut twin, &sent).map_err(|e| format!("answer check failed: {e}"))?;
    println!(
        "check: ok ({} queries, {} writes, {} scans matched the twin)",
        checked.queries, checked.writes, checked.scans
    );

    let mut m = Metrics(Vec::new());
    if !args.trace {
        end_to_end(w, &served, &mut m);
    } else {
        let fixed = phase(&served, "fixed").expect("fixed phase");
        let num = |k: &str| {
            served
                .stats
                .get(k)
                .and_then(hos_serve::Json::as_f64)
                .unwrap_or(0.0)
        };
        served_diagnostics(w, &served, &mut m)?;
        m.put(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        m.put("loadgen.late_p99_ms", late, "ms");
        let served_layer = traced::Served {
            query_p50_us: median(&fixed.latencies_ms(Kind::Query)) * 1e3,
            specs_per_batch: num("specs") / num("batches").max(1.0),
            rejected: num("rejected"),
        };
        let mut stream: Vec<(usize, Item)> = Vec::new();
        let mut take = |plan: &[Vec<Item>; 2], limit: usize| {
            let mut merged: Vec<(usize, Item)> = plan
                .iter()
                .enumerate()
                .flat_map(|(c, items)| items.iter().map(move |it| (c, it.clone())))
                .collect();
            merged.sort_by(|a, b| a.1.at.total_cmp(&b.1.at));
            stream.extend(merged.into_iter().take(limit));
        };
        take(&fixed.plan, w.trace_requests);
        if let Some(plan) = env.write_probe() {
            take(&plan, TRACE_PROBE_WRITES);
        }
        if let Some(plan) = env.scan_probe() {
            take(&plan, TRACE_PROBE_SCANS);
        }
        let spans = run_dir
            .parent()
            .expect("run dir parent")
            .join(format!("spans-{}-{}.tsv", w.name, args.seed));
        traced::run(
            &traced::Input {
                w,
                data: &data,
                stream: &stream,
                served: &served_layer,
                prepared: env.prepared.as_deref(),
                work_dir: run_dir,
                spans_out: &spans,
            },
            &mut m,
        )?;
    }
    Ok((attempted, failed, m))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hos-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))
        .and_then(|_| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    // A failed answer check ends the pass with an error, so a pass
    // that prints a result was correct.
    match outcome.and_then(|(attempted, failed, m)| Ok((attempted, failed, m.json()?))) {
        Ok((attempted, failed, metrics)) => println!(
            "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
        ),
        Err(e) => {
            eprintln!("hos-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_split_phase_joins_back_into_the_whole_schedule() {
        let w = workload::by_name("durable-churn").unwrap();
        let data = w.data(5);
        let plan = w.schedule(&data, 200.0, 4.0, 7);
        let (first, second) = split_plan(plan.clone(), 2.0);
        assert!(first.iter().flatten().all(|it| it.at < 2.0));
        assert!(second
            .iter()
            .flatten()
            .all(|it| (0.0..2.0).contains(&it.at)));
        // Each request answered 1 ms after its due time.
        let run = |plan: [Vec<Item>; 2]| Phase {
            label: "fixed".into(),
            samples: plan.clone().map(|items| {
                items
                    .iter()
                    .map(|it| Sample {
                        kind: it.req.kind(),
                        sched: it.at,
                        sent: it.at,
                        done: it.at + 0.001,
                        late: 0.0,
                        status: 200,
                        reply: None,
                        retired: None,
                    })
                    .collect()
            }),
            plan,
            closed: false,
        };
        let joined = run(first).join(run(second), 2.0);
        for (whole, back) in plan.iter().zip(&joined.plan) {
            let at = |v: &Vec<Item>| v.iter().map(|it| it.at).collect::<Vec<_>>();
            assert_eq!(at(whole), at(back));
        }
        for ((it, s), want) in joined.pairs().zip(plan.iter().flatten()) {
            assert_eq!(it.at, want.at);
            assert!((s.sched - want.at).abs() < 1e-12 && (s.latency() - 0.001).abs() < 1e-9);
        }
    }
}
