//! rtkbench: end-to-end and per-layer benchmark of the rtk toolkit.
//!
//! ```text
//! rtkbench --workload <tcl_script|build_ui|interact|send_rpc> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of rounds until `--seconds` have passed. Each round
//! sets the program up afresh, warms it, then times a fixed number of ops
//! one at a time in a closed loop on this thread, checking every op. The
//! last line of standard output is the result as one JSON object. See
//! README.md beside this file for the workloads and metrics.

mod procfs;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Recorder;
use workloads::{build_ui::BuildUi, interact::Interact, send_rpc::SendRpc, tcl_script::TclScript};
use workloads::{Probe, Rng, Workload};

const USAGE: &str =
    "usage: rtkbench --workload <tcl_script|build_ui|interact|send_rpc> --seed <n> --seconds <s> --trace <0|1>";

/// Rounds every run makes at least, whatever `--seconds` says; a traced
/// run alternates traced and untraced rounds and makes at least four.
const MIN_ROUNDS: usize = 3;
/// Ops between two counter and procfs samples.
const BATCH: usize = 50;
/// Times a round runs the host reference kernel (between batches).
const REF_SAMPLES: usize = 8;
/// The name the kernel shows for the wire dispatcher thread
/// (`xsim-wire-server`, cut to 15 bytes).
const SERVER_THREAD: &str = "xsim-wire-serve";
/// Bench spans of the last traced round are written here, under the
/// cargo target directory.
const TRACE_DIR: &str = "rtkbench-traces";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// CPU of this process's threads between two samples.
#[derive(Debug, Default, Clone, Copy)]
struct Cpu {
    all_ns: u64,
    client_ns: u64,
    server_ns: u64,
    wait_ns: u64,
    /// Voluntary context switches of the client (this) thread.
    handoffs: u64,
}

impl Cpu {
    fn between(before: &[procfs::TaskSample], after: &[procfs::TaskSample]) -> Cpu {
        let main_tid = std::process::id();
        let mut c = Cpu::default();
        for a in after {
            let b = before.iter().find(|b| b.tid == a.tid);
            let run = a.run_ns.saturating_sub(b.map_or(0, |b| b.run_ns));
            c.all_ns += run;
            c.wait_ns += a.wait_ns.saturating_sub(b.map_or(0, |b| b.wait_ns));
            if a.tid == main_tid {
                c.client_ns += run;
                c.handoffs += a
                    .voluntary_switches
                    .saturating_sub(b.map_or(0, |b| b.voluntary_switches));
            } else if a.comm == SERVER_THREAD {
                c.server_ns += run;
            }
        }
        c
    }

    fn add(&mut self, d: &Cpu) {
        self.all_ns += d.all_ns;
        self.client_ns += d.client_ns;
        self.server_ns += d.server_ns;
        self.wait_ns += d.wait_ns;
        self.handoffs += d.handoffs;
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    /// Does the program run the wire transport (`None`: no display)?
    wire: Option<bool>,
    setup_s: f64,
    /// Latency of each timed op, in op order.
    latencies_us: Vec<f64>,
    /// Sum of op latencies, in seconds.
    busy_s: f64,
    cpu: Cpu,
    /// Whole-window CPU, for the cross-check against `/proc/self/stat`:
    /// (sum of thread schedstat ns, process ticks).
    window: (u64, u64),
    probe: Probe,
    self_ns: BTreeMap<String, u64>,
    stage_ns: BTreeMap<String, u64>,
    /// Median time of the host reference kernel during the round.
    ref_us: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<trace::Span>,
}

impl Round {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn ops(&self) -> f64 {
        self.latencies_us.len() as f64
    }
}

/// A fixed allocation-plus-hash kernel: its time tracks how fast the host
/// runs at the moment, independent of the program.
fn ref_kernel() -> f64 {
    use std::hash::{Hash, Hasher};
    let t = Instant::now();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut v: Vec<String> = Vec::with_capacity(4096);
    for i in 0..4096u32 {
        let s = format!("ref-{i}-{}", i.wrapping_mul(2_654_435_761));
        s.hash(&mut h);
        v.push(s);
    }
    std::hint::black_box((h.finish(), v));
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs and checks one op. A timed op's latency, pushed onto `lat`, covers
/// the run and not the check.
fn run_op<W: Workload>(
    w: &mut W,
    op: &W::Op,
    rec: &mut Recorder,
    r: &mut Round,
    lat: Option<&mut Vec<f64>>,
) {
    r.attempted += 1;
    let t = Instant::now();
    let res = w.run(op, rec);
    if let Some(lat) = lat {
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    match res {
        Ok(out) => {
            if let Err(e) = w.check(op, &out) {
                r.fail(e);
            }
        }
        Err(e) => r.fail(e),
    }
}

fn round<W: Workload>(seed: u64, traced: bool) -> Round {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let ops = W::generate(seed, W::OPS);
    let warm = W::warmup(seed);
    let mut rec = Recorder::new(traced);
    let t0 = Instant::now();
    let mut w = match W::setup(&rec) {
        Ok(w) => {
            r.wire = w.wire();
            w
        }
        Err(e) => {
            r.attempted = (warm.len() + ops.len()) as u64;
            r.failed = r.attempted;
            r.errors.push(format!("setup: {e}"));
            return r;
        }
    };
    let mut quiet = Recorder::new(false);
    for op in &warm {
        run_op(&mut w, op, &mut quiet, &mut r, None);
    }
    r.setup_s = t0.elapsed().as_secs_f64();

    let mut lat = Vec::with_capacity(ops.len());
    let mut refs = Vec::new();
    let ref_every = (ops.len() / BATCH / REF_SAMPLES).max(1);
    let win0 = (procfs::tasks(), procfs::process_cpu_ticks());
    for (b, batch) in ops.chunks(BATCH).enumerate() {
        if traced {
            w.take_program_spans();
        }
        let probe0 = traced.then(|| w.probe());
        let tasks0 = procfs::tasks();
        for (i, op) in batch.iter().enumerate() {
            rec.begin_op((b * BATCH + i) as u64);
            run_op(&mut w, op, &mut rec, &mut r, Some(&mut lat));
            rec.end_op();
        }
        let tasks1 = procfs::tasks();
        r.cpu.add(&Cpu::between(&tasks0, &tasks1));
        if let Some(p0) = probe0 {
            r.probe.add(&w.probe().since(&p0));
            let program = w.take_program_spans();
            let bench = rec.take();
            for (k, ns) in trace::self_times(&bench, &program) {
                *r.self_ns.entry(k).or_insert(0) += ns;
            }
            let records: Vec<_> = program.into_iter().map(|(s, _)| s).collect();
            for (kind, _n, ns, _vms) in rtk_obs::span::stage_totals(&records) {
                *r.stage_ns.entry(kind).or_insert(0) += ns;
            }
            let base = r.spans.len();
            r.spans.extend(bench.into_iter().map(|mut s| {
                if s.parent > 0 {
                    s.parent += base;
                }
                s
            }));
        }
        if b % ref_every == 0 {
            refs.push(ref_kernel());
        }
    }
    let win1 = (procfs::tasks(), procfs::process_cpu_ticks());
    r.ref_us = stats::median(&refs);
    r.busy_s = lat.iter().sum::<f64>() / 1e6;
    r.latencies_us = lat;
    r.window = (Cpu::between(&win0.0, &win1.0).all_ns, win1.1 - win0.1);
    if let Err(e) = w.finish() {
        r.fail(format!("end of round: {e}"));
    }
    // The env (and its dispatcher thread) goes only after every sample.
    drop(w);
    r
}

/// The seed of round `i` of a run seeded `seed`.
fn round_seed(seed: u64, i: usize) -> u64 {
    let mut r = Rng::new(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    r.next_u64()
}

struct Run {
    rounds: Vec<Round>,
    /// High-water RSS after the first round. Every round does the same
    /// fixed work on fresh program state, so one round's peak is the
    /// program's; later rounds would add only allocator reuse effects and
    /// the benchmark's own growing sample store.
    peak_rss_kib: u64,
    wire: Option<bool>,
    steal_ms: f64,
}

fn run<W: Workload>(args: &Args) -> Run {
    let start = Instant::now();
    let steal0 = procfs::steal_ticks();
    let min_rounds = if args.trace {
        MIN_ROUNDS + 1
    } else {
        MIN_ROUNDS
    };
    let mut rounds = Vec::new();
    let mut peak_rss_kib = 0;
    while rounds.len() < min_rounds || start.elapsed() < Duration::from_secs(args.seconds) {
        let traced = args.trace && rounds.len() % 2 == 0;
        let r = round::<W>(round_seed(args.seed, rounds.len()), traced);
        eprintln!(
            "round {:3} traced={} setup_s {:.4} ops_s {:.1} p50_us {:.2} cpu_us {:.2} ref_us {:.1}",
            rounds.len(),
            r.traced,
            r.setup_s,
            per_op(r.ops(), r.busy_s),
            stats::median(&r.latencies_us),
            per_op(r.cpu.all_ns as f64 / 1e3, r.ops()),
            r.ref_us
        );
        rounds.push(r);
        if rounds.len() == 1 {
            peak_rss_kib = procfs::peak_rss_kib();
        }
    }
    let steal_ms =
        procfs::steal_ticks().saturating_sub(steal0) as f64 * 1000.0 / procfs::TICKS_PER_SEC as f64;
    Run {
        wire: rounds[0].wire,
        rounds,
        peak_rss_kib,
        steal_ms,
    }
}

/// The revision of the checkout when it is a git work tree (the run
/// starts at its root), else `unknown`. Only `.git` under the working
/// directory is read.
fn git_rev() -> String {
    let git = std::path::Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn per_op(total: f64, ops: f64) -> f64 {
    if ops > 0.0 {
        total / ops
    } else {
        0.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b > 0 {
        a as f64 / b as f64
    } else {
        0.0
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut o = String::from("{");
        for (i, (name, v, unit)) in self.0.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                o,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        o.push('}');
        o
    }
}

/// Set-up, throughput and CPU are medians over the run's rounds. p50 is
/// taken over every timed op of the run; p99 is the median over blocks of
/// [`stats::P99_BLOCK`] consecutive ops, so one disturbed round moves it
/// by at most a block or two.
fn end_to_end(rounds: &[&Round], run: &Run) -> (Metrics, usize) {
    let mut m = Metrics(Vec::new());
    let med =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let mut sorted = lat.clone();
    sorted.sort_by(f64::total_cmp);
    m.put("setup_s", med(&|r| r.setup_s), "s");
    m.put(
        "throughput_ops_s",
        med(&|r| per_op(r.ops(), r.busy_s)),
        "ops/s",
    );
    m.put(
        "latency_p50_us",
        stats::percentile(&sorted, 50.0).unwrap_or(0.0),
        "us",
    );
    m.put("latency_p99_us", stats::blocked_p99(&lat), "us");
    m.put(
        "cpu_us_per_op",
        med(&|r| per_op(r.cpu.all_ns as f64 / 1e3, r.ops())),
        "us",
    );
    m.put("peak_rss_mib", run.peak_rss_kib as f64 / 1024.0, "MiB");
    (m, lat.len())
}

fn per_layer(traced: &[&Round], untraced: &[&Round], run: &Run) -> Metrics {
    let mut m = Metrics(Vec::new());
    let ops: f64 = traced.iter().map(|r| r.ops()).sum();
    let mut p = Probe::default();
    let mut cpu = Cpu::default();
    let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut stage_ns: BTreeMap<String, u64> = BTreeMap::new();
    for r in traced {
        p.add(&r.probe);
        cpu.add(&r.cpu);
        for (k, v) in &r.self_ns {
            *self_ns.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &r.stage_ns {
            *stage_ns.entry(k.clone()).or_insert(0) += v;
        }
    }
    let us = |keys: &[&str], map: &BTreeMap<String, u64>| {
        per_op(
            keys.iter().filter_map(|k| map.get(*k)).sum::<u64>() as f64 / 1e3,
            ops,
        )
    };
    let count = |n: u64| per_op(n as f64, ops);
    m.put(
        "tcl.eval_self_us_per_op",
        us(&["tcl.eval", "prog.eval", "prog.send.eval"], &self_ns),
        "us",
    );
    m.put(
        "tcl.cache_hit_ratio",
        ratio(p.compile_hits, p.compile_hits + p.compile_misses),
        "ratio",
    );
    m.put("tcl.parses_per_op", count(p.parses), "count");
    m.put("tk.eval_self_us_per_op", us(&["tk.eval"], &self_ns), "us");
    m.put(
        "tk.update_self_us_per_op",
        us(&["tk.update", "prog.update"], &self_ns),
        "us",
    );
    m.put(
        "tk.dispatch_self_us_per_op",
        us(&["tk.dispatch", "prog.dispatch", "prog.bind"], &self_ns),
        "us",
    );
    m.put("tk.send_self_us_per_op", us(&["prog.send"], &self_ns), "us");
    m.put(
        "tk.cache_hit_ratio",
        ratio(p.cache_hits, p.cache_hits + p.cache_misses),
        "ratio",
    );
    m.put(
        "xsim.input_self_us_per_op",
        us(&["xsim.input"], &self_ns),
        "us",
    );
    m.put("xsim.requests_per_op", count(p.requests), "count");
    m.put(
        "xsim.requests_per_flush",
        ratio(p.requests, p.flushes),
        "count",
    );
    m.put("xsim.round_trips_per_op", count(p.round_trips), "count");
    m.put("xsim.events_per_op", count(p.events), "count");
    m.put("wire.frames_per_op", count(p.frames), "count");
    m.put("wire.bytes_per_op", count(p.bytes), "bytes");
    m.put(
        "wire.requests_per_frame",
        ratio(p.requests, p.frames),
        "ratio",
    );
    m.put("wire.handoffs_per_op", count(cpu.handoffs), "count");
    m.put("wire.checksum_errors", p.checksum_errors as f64, "count");
    m.put("wire.watchdog_fires", p.watchdog_fires as f64, "count");
    m.put(
        "client.cpu_us_per_op",
        per_op(cpu.client_ns as f64 / 1e3, ops),
        "us",
    );
    m.put(
        "server.cpu_us_per_op",
        per_op(cpu.server_ns as f64 / 1e3, ops),
        "us",
    );
    m.put("render.pixels_drawn_per_op", count(p.pixels), "count");
    m.put("stage.redraw_us_per_op", us(&["redraw"], &stage_ns), "us");
    m.put("stage.flush_us_per_op", us(&["flush"], &stage_ns), "us");
    m.put(
        "stage.rasterize_us_per_op",
        us(&["rasterize"], &stage_ns),
        "us",
    );
    m.put("obs.spans_per_op", count(p.spans), "count");
    let tput = |rs: &[&Round]| {
        stats::median(
            &rs.iter()
                .map(|r| per_op(r.ops(), r.busy_s))
                .collect::<Vec<_>>(),
        )
    };
    let (t_on, t_off) = (tput(traced), tput(untraced));
    m.put(
        "obs.tracing_overhead_pct",
        100.0 * (t_off - t_on) / t_off,
        "%",
    );
    m.put(
        "sched.runq_wait_us_per_op",
        per_op(cpu.wait_ns as f64 / 1e3, ops),
        "us",
    );
    let refs: Vec<f64> = traced.iter().chain(untraced).map(|r| r.ref_us).collect();
    m.put("host.ref_alloc_us", stats::median(&refs), "us");
    m.put("host.steal_ms", run.steal_ms, "ms");
    m
}

/// Cross-checks of the CPU readings; an empty list means they agree.
fn cpu_checks(rounds: &[Round]) -> Vec<String> {
    let mut out = Vec::new();
    let (mut sched, mut ticks, mut all, mut split) = (0u64, 0u64, 0u64, 0u64);
    for r in rounds {
        sched += r.window.0;
        ticks += r.window.1;
        all += r.cpu.all_ns;
        split += r.cpu.client_ns + r.cpu.server_ns;
    }
    let tick_ns = 1_000_000_000 / procfs::TICKS_PER_SEC;
    let ticks_ns = ticks * tick_ns;
    let slack = sched / 10 + 3 * tick_ns * rounds.len() as u64;
    if sched.abs_diff(ticks_ns) > slack {
        out.push(format!(
            "thread CPU {sched} ns vs process CPU {ticks_ns} ns"
        ));
    }
    if all.abs_diff(split) > all / 50 + 1_000_000 {
        out.push(format!(
            "all-thread CPU {all} ns vs client+server {split} ns"
        ));
    }
    out
}

fn report<W: Workload>(args: &Args) -> (String, String) {
    let run = run::<W>(args);
    let attempted: u64 = run.rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = run.rounds.iter().map(|r| r.failed).sum();
    let mut errors: Vec<String> = run
        .rounds
        .iter()
        .flat_map(|r| r.errors.iter().cloned())
        .take(5)
        .collect();
    errors.extend(cpu_checks(&run.rounds));
    let traced: Vec<&Round> = run.rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = run.rounds.iter().filter(|r| !r.traced).collect();
    let (e2e, samples) = end_to_end(&untraced, &run);
    let metrics = if args.trace {
        per_layer(&traced, &untraced, &run)
    } else {
        e2e
    };
    if let Some(last) = traced.last() {
        write_trace(args, &last.spans);
    }
    // Wire checksum errors and watchdog fires fail their round's audit.
    let correct = failed == 0 && errors.is_empty();
    let refs: Vec<f64> = run.rounds.iter().map(|r| r.ref_us).collect();
    let sum = |f: &dyn Fn(&Cpu) -> u64| run.rounds.iter().map(|r| f(&r.cpu)).sum::<u64>() as f64;
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"wire\": {}, \"nproc\": {}, \"git_rev\": \"{}\", \
         \"rounds\": {}, \"ops_per_round\": {}, \"latency_samples\": {}, \"p99_blocks\": {}, \"p99_samples_beyond_per_block\": {}, \
         \"client_cpu_share\": {:.4}, \"server_cpu_share\": {:.4}, \
         \"host.ref_alloc_us\": {:.3}, \"host.steal_ms\": {}, \"errors\": [{}]}}",
        args.workload,
        args.seed,
        args.trace,
        run.wire.map_or("null".into(), |w| w.to_string()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev(),
        run.rounds.len(),
        W::OPS,
        samples,
        samples / stats::P99_BLOCK,
        stats::samples_beyond(stats::P99_BLOCK, 99.0),
        sum(&|c| c.client_ns) / sum(&|c| c.all_ns).max(1.0),
        sum(&|c| c.server_ns) / sum(&|c| c.all_ns).max(1.0),
        stats::median(&refs),
        run.steal_ms,
        errors.iter().map(|e| format!("{:?}", e)).collect::<Vec<_>>().join(", ")
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    (context, result)
}

fn write_trace(args: &Args, spans: &[trace::Span]) {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&base).join(TRACE_DIR);
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, trace::to_json(spans)));
    match written {
        Ok(()) => eprintln!("bench spans of the last traced round: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RTK_"))
        .collect();
    if !set.is_empty() {
        set.sort();
        eprintln!(
            "refusing to run with {} set: each RTK_ variable selects an oracle path or a tuning value, \
             so the run would measure a different program",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let (context, result) = match args.workload.as_str() {
        "tcl_script" => report::<TclScript>(&args),
        "build_ui" => report::<BuildUi>(&args),
        "interact" => report::<Interact>(&args),
        "send_rpc" => report::<SendRpc>(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{context}");
    println!("{result}");
    ExitCode::SUCCESS
}
