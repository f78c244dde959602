//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! gabm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets up `SETUP_REPS` times, then runs whole passes over the
//! seeded input list until `--seconds` have passed, checks every output,
//! and prints as its last line one JSON object. With `--trace 0` it holds
//! the end-to-end metrics; with `--trace 1` untraced and traced passes
//! alternate and it holds the per-layer metrics. README.md describes both.

use gabm_par::ThreadPool;
use gabm_perfbench::probe::{set_fas_timing, Probes};
use gabm_perfbench::split::{counter, gauge, split, Split};
use gabm_perfbench::{Bench, Counts, Workload, LIST_LEN};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Shared inputs of the informational Table-1 ratio.
const TABLE1_OPS: usize = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: gabm-perfbench --workload <tran-behavioural|tran-cmos|tran-ladder512|charac> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What an operation produced: `None` if it errored, else its counts and
/// result signature. Every pass must repeat the first pass's exactly.
type OpResult = Option<(Counts, Vec<u64>)>;

/// Everything one pass over the input list produced.
#[derive(Default)]
struct Pass {
    traced: bool,
    /// Timed-call seconds of every operation; NaN where it errored.
    op_s: Vec<f64>,
    /// Per operation, kept for the first pass only (the reference).
    results: Vec<OpResult>,
    /// Per operation: simulator counts from trace counters (traced only).
    trace_counts: Vec<Counts>,
    attempted: usize,
    /// Operations that errored, failed their output check or did not
    /// repeat the reference.
    failed: usize,
    first_error: Option<String>,
    phase_s: [f64; 3],
    probes: Probes,
    split: Split,
    steals: u64,
    queue_depth_max: u64,
    chrome: Option<String>,
}

/// Simulator counts of one traced operation, from the program's own
/// counters. There is no device-sweep counter; the engine makes one sweep
/// per Newton iteration that reaches the solve, so iterations stand in.
fn trace_counts(t: &gabm_trace::Trace) -> Counts {
    let newton = counter(t, "sim.newton.iterations");
    Counts {
        newton_iters: newton,
        device_evals: newton,
        lu_full: counter(t, "sim.lu.full"),
        lu_refactor: counter(t, "sim.lu.refactor"),
        steps_accepted: counter(t, "sim.tran.accepted"),
        steps_rejected: counter(t, "sim.tran.rejected"),
        ..Counts::default()
    }
}

/// Runs every operation once. Without a `reference` the pass keeps its
/// results as the reference; with one, it compares against it.
fn run_pass(
    bench: &Bench,
    traced: bool,
    want_chrome: bool,
    reference: Option<&[OpResult]>,
) -> Pass {
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    set_fas_timing(traced);
    let before = Probes::now();
    for k in 0..bench.inputs.len() {
        if traced {
            gabm_trace::enable();
        }
        let outcome = bench.run_op(k);
        if traced {
            let t = gabm_trace::finish();
            pass.split.add(&split(&t));
            pass.trace_counts.push(trace_counts(&t));
            pass.steals += counter(&t, "par.steals");
            pass.queue_depth_max = pass.queue_depth_max.max(gauge(&t, "par.queue_depth"));
            if want_chrome && k == 0 {
                pass.chrome = Some(t.to_chrome_json(false));
            }
        }
        let (result, mut error) = match outcome {
            Ok(o) => {
                pass.op_s.push(o.op_s);
                for (sum, x) in pass.phase_s.iter_mut().zip(o.phase_s) {
                    *sum += x;
                }
                (Some((o.counts, o.signature)), o.check.err())
            }
            Err(e) => {
                pass.op_s.push(f64::NAN);
                (None, Some(e))
            }
        };
        match reference {
            Some(r) if error.is_none() && r[k] != result => {
                error = Some("counts or results differ from the first pass".into());
            }
            Some(_) => {}
            None => pass.results.push(result),
        }
        pass.attempted += 1;
        if let Some(e) = error {
            pass.failed += 1;
            pass.first_error
                .get_or_insert_with(|| format!("op {k}: {e}"));
        }
    }
    set_fas_timing(false);
    pass.probes = Probes::now().since(before);
    pass
}

/// Nearest-rank percentile `q` of `values` (sorted in place).
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The benchmark's directory (inside the checkout being measured).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Table-1 ratio, for information only: the transistor comparator's
/// median transient time over the behavioural one's, on the first
/// [`TABLE1_OPS`] shared inputs, run alternately.
fn table1_ratio(seed: u64) -> Result<f64, String> {
    let beh = Bench::setup(Workload::TranBehavioural, seed, LIST_LEN, 1)?;
    let cmos = Bench::setup(Workload::TranCmos, seed, LIST_LEN, 1)?;
    let (mut t_beh, mut t_cmos) = (Vec::new(), Vec::new());
    for k in 0..TABLE1_OPS {
        t_beh.push(beh.run_op(k)?.op_s);
        t_cmos.push(cmos.run_op(k)?.op_s);
    }
    Ok(percentile(&mut t_cmos, 0.5) / percentile(&mut t_beh, 0.5))
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            body.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let len = LIST_LEN;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::setup(workload, args.seed, len, workers)?;
        // Warm-up: fills caches and finishes lazy set-up; not measured.
        let _ = b.run_op(0);
        setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let want_chrome = traced && passes.iter().all(|p| p.chrome.is_none());
        let reference = passes.first().map(|p| p.results.as_slice());
        let pass = run_pass(&bench, traced, want_chrome, reference);
        let mut sorted: Vec<f64> = pass
            .op_s
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        eprintln!(
            "pass {}: traced={traced} ops={} min/p10/p50/p90 = {:.4}/{:.4}/{:.4}/{:.4} ms",
            passes.len(),
            sorted.len(),
            percentile(&mut sorted, 0.0) * 1e3,
            percentile(&mut sorted, 0.1) * 1e3,
            percentile(&mut sorted, 0.5) * 1e3,
            percentile(&mut sorted, 0.9) * 1e3
        );
        passes.push(pass);
        let enough = !args.trace || passes.len() >= 2;
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb()?;
    // Model builds of set-up and the timed passes, before the checks below
    // build more.
    let builds = Probes::now();

    let reference = &passes[0].results;
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let mut failed: usize = passes.iter().map(|p| p.failed).sum();
    let mut first_error = passes.iter().find_map(|p| p.first_error.clone());

    // The characterization jobs again on one worker, traced for the
    // simulator counters: results must be bitwise equal to the pooled runs,
    // and so must every traced pass's counters.
    let mut sim_counts = Vec::new();
    if workload == Workload::Charac {
        let serial = ThreadPool::new(1);
        for (k, reference) in reference.iter().enumerate() {
            gabm_trace::enable();
            let outcome = bench.run_charac_on(k, &serial);
            sim_counts.push(trace_counts(&gabm_trace::finish()));
            let same = match (&outcome, reference) {
                (Ok(o), Some((_, signature))) => o.signature == *signature,
                _ => false,
            };
            if !same {
                failed += 1;
                first_error.get_or_insert_with(|| format!("op {k}: results differ at 1 worker"));
            }
        }
        for pass in passes.iter().filter(|p| p.traced) {
            if pass.trace_counts != sim_counts {
                failed += pass.attempted;
                first_error
                    .get_or_insert_with(|| "traced simulator counts differ from 1 worker".into());
            }
        }
    }
    let failed = failed.min(attempted);

    // Per-pass counts: simulator counts from `SimStats` on the transient
    // workloads, from the 1-worker trace counters on `charac`.
    let mut counts = Counts::default();
    for c in reference
        .iter()
        .flatten()
        .map(|(c, _)| c)
        .chain(&sim_counts)
    {
        counts.add(c);
    }

    // An operation's time is the median of its timed calls over the passes
    // (untraced or traced); the percentiles are taken over the list.
    let op_times = |traced: bool| -> (Vec<f64>, Vec<f64>) {
        let chosen: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
        let calls: Vec<f64> = chosen
            .iter()
            .flat_map(|p| p.op_s.iter().copied())
            .filter(|x| x.is_finite())
            .collect();
        let per_op = (0..len)
            .filter_map(|k| {
                let mut v: Vec<f64> = chosen
                    .iter()
                    .map(|p| p.op_s[k])
                    .filter(|x| x.is_finite())
                    .collect();
                (!v.is_empty()).then(|| percentile(&mut v, 0.5))
            })
            .collect();
        (calls, per_op)
    };
    let (untraced_calls, mut untraced) = op_times(false);
    let ops_done = untraced_calls.len();

    println!(
        "gabm-perfbench workload={} seed={} seconds={} trace={} host_threads={workers} \
         pool_workers={} git_rev={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench.workers(),
        git_revision()
    );
    println!(
        "list_len={len} passes={} timed_calls={ops_done} wall_s={wall_s:.3} failed={failed}/{attempted}",
        passes.len()
    );
    println!(
        "fingerprint={} newton_iters={} steps_accepted={} steps_rejected={} lu_full={} \
         lu_refactor={} device_evals={} fas_eval_calls={} fas_jac_calls={} (per pass)",
        counts.fingerprint(),
        counts.newton_iters,
        counts.steps_accepted,
        counts.steps_rejected,
        counts.lu_full,
        counts.lu_refactor,
        counts.device_evals,
        counts.fas_eval_calls,
        counts.fas_jac_calls
    );
    if let Some(e) = &first_error {
        println!("first failure: {e}");
    }
    if matches!(workload, Workload::TranBehavioural | Workload::TranCmos) {
        match table1_ratio(args.seed) {
            Ok(r) => println!(
                "table1_ratio={r:.3} (tran-cmos over tran-behavioural median transient, \
                 {TABLE1_OPS} shared inputs; information only, not a metric)"
            ),
            Err(e) => println!("table1_ratio unavailable: {e}"),
        }
    }

    let mut m = Metrics(Vec::new());
    if !args.trace {
        let p50 = percentile(&mut untraced, 0.5);
        let p90 = percentile(&mut untraced, 0.9);
        m.push("op_p50_ms", p50 * 1e3, "ms");
        m.push("op_p90_ms", p90 * 1e3, "ms");
        m.push("ops_per_s", attempted as f64 / wall_s, "1/s");
        m.push("setup_s", percentile(&mut setup_s, 0.5), "s");
        m.push("peak_rss_mb", rss_mb, "MiB");
        return Ok(m.json(attempted, failed));
    }

    let untraced_passes: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced_passes: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let (traced_calls, mut traced) = op_times(true);
    let traced_ops = traced_calls.len() as f64;
    let untraced_sum: f64 = untraced_calls.iter().sum();
    let traced_sum: f64 = traced_calls.iter().sum();
    let mut split_total = Split::default();
    let mut fas_ns = 0u64;
    let mut traced_busy_ns = 0u64;
    let mut steals = 0u64;
    let mut depth = 0u64;
    for p in &traced_passes {
        split_total.add(&p.split);
        fas_ns += p.probes.fas_eval_ns;
        traced_busy_ns += p.probes.busy_ns;
        steals += p.steals;
        depth = depth.max(p.queue_depth_max);
    }
    let mut phase = [0.0; 3];
    let mut busy_ns = 0u64;
    for p in &untraced_passes {
        for (sum, x) in phase.iter_mut().zip(p.phase_s) {
            *sum += x;
        }
        busy_ns += p.probes.busy_ns;
    }
    let per_traced_op_ms = |ns: u64| ratio(ns as f64 / 1e6, traced_ops);
    let per_untraced_op_ms = |s: f64| ratio(s * 1e3, ops_done as f64);
    let newton_per_pass = counts.newton_iters as f64;
    let is_charac = workload == Workload::Charac;

    if let Some(chrome) = traced_passes.iter().find_map(|p| p.chrome.as_ref()) {
        let dir = bench_dir().join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, chrome))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "chrome trace of the first traced operation: {}",
            path.display()
        );
    }

    m.push("sim.newton_iters", newton_per_pass, "count");
    m.push("sim.device_evals", counts.device_evals as f64, "count");
    m.push("sim.lu_full", counts.lu_full as f64, "count");
    m.push("sim.lu_refactor", counts.lu_refactor as f64, "count");
    m.push(
        "sim.lu_reuse_ratio",
        ratio(
            counts.lu_refactor as f64,
            (counts.lu_full + counts.lu_refactor) as f64,
        ),
        "ratio",
    );
    m.push("sim.steps_accepted", counts.steps_accepted as f64, "count");
    m.push("sim.steps_rejected", counts.steps_rejected as f64, "count");
    m.push(
        "sim.step_accept_ratio",
        ratio(
            counts.steps_accepted as f64,
            (counts.steps_accepted + counts.steps_rejected) as f64,
        ),
        "ratio",
    );
    m.push(
        "sim.host_us_per_newton",
        ratio(
            untraced_sum * 1e6,
            newton_per_pass * untraced_passes.len() as f64,
        ),
        "us",
    );
    m.push(
        "sim.tran.self_ms",
        per_traced_op_ms(split_total.tran_self_ns()),
        "ms",
    );
    m.push(
        "sim.step.self_ms",
        per_traced_op_ms(split_total.step_self_ns()),
        "ms",
    );
    m.push(
        "sim.newton.self_ms",
        per_traced_op_ms(if is_charac {
            split_total.newton_in_tran_ns
        } else {
            split_total.newton_self_ns(fas_ns)
        }),
        "ms",
    );
    m.push("fas.eval_calls", counts.fas_eval_calls as f64, "count");
    m.push("fas.jac_calls", counts.fas_jac_calls as f64, "count");
    m.push("fas.eval_ms", per_traced_op_ms(fas_ns), "ms");
    m.push(
        "fas.eval_share",
        if is_charac {
            ratio(fas_ns as f64, traced_busy_ns as f64)
        } else {
            ratio(fas_ns as f64 / 1e9, traced_sum)
        },
        "ratio",
    );
    m.push(
        "build.model_ms",
        ratio(builds.build_ns as f64 / 1e6, builds.build_calls as f64),
        "ms",
    );
    m.push("charac.mc_ms", per_untraced_op_ms(phase[0]), "ms");
    m.push("charac.validity_ms", per_untraced_op_ms(phase[1]), "ms");
    m.push("charac.modelcheck_ms", per_untraced_op_ms(phase[2]), "ms");
    m.push("charac.evals", counts.charac_evals as f64, "count");
    m.push(
        "par.busy_frac",
        if is_charac {
            ratio(busy_ns as f64 / 1e9, untraced_sum * bench.workers() as f64)
        } else {
            0.0
        },
        "ratio",
    );
    m.push("par.steals", ratio(steals as f64, traced_ops), "count");
    m.push("par.queue_depth_max", depth as f64, "count");
    m.push(
        "trace.overhead_pct",
        (ratio(percentile(&mut traced, 0.5), percentile(&mut untraced, 0.5)) - 1.0) * 100.0,
        "%",
    );
    m.push(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m.push("count.fingerprint", counts.fingerprint() as f64, "count");
    Ok(m.json(attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gabm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gabm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
