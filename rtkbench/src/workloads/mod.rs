//! The four workloads. Each generates its inputs from a seed alone, sets
//! up the program, runs one op at a time, and checks every op's outcome.

use rtk_obs::SpanRecord;
use tk::TkApp;

use crate::trace::Recorder;

pub mod build_ui;
pub mod interact;
pub mod send_rpc;
pub mod tcl_script;

/// splitmix64: the benchmark's own input generator, so that inputs stay
/// the same when the program's PRNG changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, v: &'a [T]) -> &'a T {
        &v[self.next_u64() as usize % v.len()]
    }

    /// A lowercase word of `lo..=hi` letters.
    pub fn word(&mut self, lo: u64, hi: u64) -> String {
        let n = self.range(lo, hi);
        (0..n)
            .map(|_| (b'a' + self.range(0, 25) as u8) as char)
            .collect()
    }
}

/// Cumulative counters read from the program's public statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    pub requests: u64,
    pub round_trips: u64,
    pub events: u64,
    pub flushes: u64,
    pub pixels: u64,
    pub frames: u64,
    pub bytes: u64,
    pub checksum_errors: u64,
    pub watchdog_fires: u64,
    pub compile_hits: u64,
    pub compile_misses: u64,
    pub parses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub spans: u64,
}

impl Probe {
    /// Field-wise `self - before`.
    pub fn since(&self, before: &Probe) -> Probe {
        Probe {
            requests: self.requests - before.requests,
            round_trips: self.round_trips - before.round_trips,
            events: self.events - before.events,
            flushes: self.flushes - before.flushes,
            pixels: self.pixels - before.pixels,
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
            checksum_errors: self.checksum_errors - before.checksum_errors,
            watchdog_fires: self.watchdog_fires - before.watchdog_fires,
            compile_hits: self.compile_hits - before.compile_hits,
            compile_misses: self.compile_misses - before.compile_misses,
            parses: self.parses - before.parses,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            spans: self.spans.saturating_sub(before.spans),
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, d: &Probe) {
        self.requests += d.requests;
        self.round_trips += d.round_trips;
        self.events += d.events;
        self.flushes += d.flushes;
        self.pixels += d.pixels;
        self.frames += d.frames;
        self.bytes += d.bytes;
        self.checksum_errors += d.checksum_errors;
        self.watchdog_fires += d.watchdog_fires;
        self.compile_hits += d.compile_hits;
        self.compile_misses += d.compile_misses;
        self.parses += d.parses;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.spans += d.spans;
    }

    /// Adds the compile-pipeline counters of `interp`.
    pub fn add_compile(&mut self, interp: &tcl::Interp) {
        for (name, v) in interp.compile_counters() {
            match name {
                "tcl.compile_cache_hits" => self.compile_hits += v,
                "tcl.compile_cache_misses" => self.compile_misses += v,
                "tcl.parses" => self.parses += v,
                _ => {}
            }
        }
    }

    /// Sums the protocol, wire, compile, resource-cache and span counters
    /// of every app.
    pub fn of_apps(apps: &[&TkApp]) -> Probe {
        let mut p = Probe::default();
        for app in apps {
            let conn = app.conn();
            let s = conn.stats();
            let w = conn.wire_stats();
            p.requests += s.requests;
            p.round_trips += s.round_trips;
            p.events += s.events;
            p.flushes += s.flushes;
            p.pixels += s.pixels_drawn;
            p.frames += w.frames_encoded;
            p.bytes += w.bytes_encoded;
            p.checksum_errors += w.checksum_errors;
            p.watchdog_fires += w.watchdog_fires;
            p.add_compile(app.interp());
            p.cache_hits += app.cache().hits();
            p.cache_misses += app.cache().misses();
            p.spans += app.tracer().len() as u64 + app.tracer().dropped();
        }
        p
    }
}

/// Mixed into a round's seed to draw its warm-up ops.
pub const WARM_SALT: u64 = 0x5EED_5A17_0F0F_0F0F;

/// What a round needs from a workload.
pub trait Workload: Sized {
    type Op;
    /// Timed ops per round. Fixed, so memory and cache state at the end
    /// of a round do not depend on how fast the host ran.
    const OPS: usize;
    /// Untimed-per-op warm-up ops, run inside `setup_s`.
    const WARMUP: usize;

    /// The op list for `seed`: the same seed gives the same list.
    fn generate(seed: u64, n: usize) -> Vec<Self::Op>;
    /// The warm-up ops for a round whose timed ops come from `seed`.
    fn warmup(seed: u64) -> Vec<Self::Op> {
        Self::generate(seed ^ WARM_SALT, Self::WARMUP)
    }
    /// Creates the program state. `rec` supplies the clock that program
    /// span times are mapped onto.
    fn setup(rec: &Recorder) -> Result<Self, String>;
    /// Runs one op through the program's public calls.
    fn run(&mut self, op: &Self::Op, rec: &mut Recorder) -> Result<String, String>;
    /// Checks one op's outcome (outside op timing).
    fn check(&mut self, op: &Self::Op, out: &str) -> Result<(), String>;
    fn probe(&self) -> Probe;
    /// The program's spans since the last call, each with the offset onto
    /// the recorder's clock; starts a new span epoch.
    fn take_program_spans(&self) -> Vec<(SpanRecord, i64)>;
    /// End-of-round checks, made before the program state is dropped.
    fn finish(&mut self) -> Result<(), String>;
    /// Does the program run the wire transport (false for no display)?
    fn wire(&self) -> Option<bool>;
}

/// Spans of every app's tracer with a fixed clock offset, then a new epoch.
pub fn take_app_spans(apps: &[&TkApp], offset: i64) -> Vec<(SpanRecord, i64)> {
    let mut out = Vec::new();
    for app in apps {
        out.extend(app.tracer().snapshot().into_iter().map(|s| (s, offset)));
        app.tracer().reset_epoch();
    }
    out
}

/// Makes a `TkEnv` on a fresh default display and returns the offset that
/// maps its span clock onto `rec`'s: the env takes its clock origin while
/// it is built, between the two readings.
pub fn env_with_offset(rec: &Recorder) -> (tk::TkEnv, i64) {
    let display = xsim::Display::new();
    let before = rec.now_ns();
    let env = tk::TkEnv::with_display(display);
    let after = rec.now_ns();
    (env, ((before + after) / 2) as i64)
}

/// Post-round checks every display workload shares: the server's
/// resource audit is clean and the wire saw no corruption or stall.
pub fn audit_apps(apps: &[&TkApp]) -> Result<(), String> {
    for app in apps {
        let audit = app.conn().audit();
        if !audit.is_empty() {
            return Err(format!("audit of {}: {}", app.name(), audit.join("; ")));
        }
        let w = app.conn().wire_stats();
        if w.checksum_errors != 0 || w.watchdog_fires != 0 {
            return Err(format!(
                "{}: {} checksum errors, {} watchdog fires",
                app.name(),
                w.checksum_errors,
                w.watchdog_fires
            ));
        }
    }
    Ok(())
}

/// Runs `script` in `app`, mapping a Tcl error to its message.
pub fn eval(app: &TkApp, script: &str) -> Result<String, String> {
    app.eval(script).map_err(|e| e.msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deterministic<W: Workload>()
    where
        W::Op: PartialEq + std::fmt::Debug,
    {
        assert_eq!(W::generate(42, 300), W::generate(42, 300));
        assert_ne!(W::generate(42, 300), W::generate(43, 300));
        assert_eq!(W::warmup(42), W::warmup(42));
        assert_ne!(W::warmup(42), W::generate(42, W::WARMUP));
    }

    #[test]
    fn generators_are_seed_deterministic() {
        deterministic::<tcl_script::TclScript>();
        deterministic::<build_ui::BuildUi>();
        deterministic::<interact::Interact>();
        deterministic::<send_rpc::SendRpc>();
    }

    #[test]
    fn rng_is_fixed_splitmix64() {
        // Reference values of splitmix64 seeded with 0.
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut r = Rng::new(9);
        assert!((0..1000)
            .map(|_| r.range(3, 5))
            .all(|v| (3..=5).contains(&v)));
    }

    #[test]
    fn interact_input_keeps_entry_text_bounded() {
        let ops = interact::Interact::generate(5, 5000);
        let mut len = 0i64;
        let mut on = None;
        for op in &ops {
            match op {
                interact::Op::Key(_) => len += 1,
                interact::Op::BackSpace => {
                    assert!(len > 0, "backspace on an empty entry");
                    len -= 1;
                }
                interact::Op::Move { target, .. } => on = Some(*target),
                interact::Op::Click => {
                    assert!(on.is_some_and(|t| t < 5), "click off a button or listbox")
                }
            }
            assert!(len <= 16);
        }
    }
}
