//! `tcl_script`: a bare interpreter, no display, running callback-shaped
//! scripts. The mix gives each class a similar share of the time, so no
//! single class's variance becomes the workload's, and a seeded minority
//! of ops are texts never seen before, which miss the compile cache.

use rtk_obs::SpanRecord;
use tcl::Interp;

use super::{Probe, Rng, Workload, WARM_SALT};
use crate::trace::Recorder;

const PROCS: &str = r#"
proc sumsq {n} {
    set s 0
    for {set i 0} {$i < $n} {incr i} {
        set s [expr {$s + $i * $i}]
    }
    return $s
}
proc sorted {x n} {
    set l {}
    for {set i 0} {$i < $n} {incr i} {
        set x [expr {($x * 1103 + 12345) % 65536}]
        lappend l $x
    }
    set s [lsort -integer $l]
    return "[lindex $s 0] [lindex $s end] [llength $s]"
}
proc row {name a b} {
    set r [format "%-8s|%5d|%04x" $name $a $b]
    return "[string length $r] [string toupper $name] [string range $r 9 13]"
}
proc words {s} {
    set out {}
    foreach w [split $s -] {
        if {[regexp {([a-z]+)([0-9]+)} $w m a d]} {
            lappend out $d$a
        }
    }
    return "[llength $out] [join $out ,]"
}
proc tally {n k} {
    for {set i 0} {$i < $n} {incr i} {
        set a($i) [expr {$i * $k}]
    }
    set s 0
    foreach key [array names a] {
        incr s $a($key)
    }
    return "[array size a] $s"
}
"#;

/// One script and the value Rust computes for it independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub script: String,
    pub expect: String,
}

fn sumsq(n: u64) -> Op {
    Op {
        script: format!("sumsq {n}"),
        expect: (0..n).map(|i| i * i).sum::<u64>().to_string(),
    }
}

fn sorted_op(x0: u64, n: u64) -> Op {
    let mut x = x0;
    let mut l: Vec<u64> = (0..n)
        .map(|_| {
            x = (x * 1103 + 12345) % 65536;
            x
        })
        .collect();
    l.sort_unstable();
    Op {
        script: format!("sorted {x0} {n}"),
        expect: format!("{} {} {}", l[0], l[l.len() - 1], l.len()),
    }
}

fn row(name: &str, a: u64, b: u64) -> Op {
    let r = format!("{name:<8}|{a:>5}|{b:04x}");
    let mid: String = r.chars().skip(9).take(5).collect();
    Op {
        script: format!("row {name} {a} {b}"),
        expect: format!("{} {} {mid}", r.chars().count(), name.to_uppercase()),
    }
}

fn words(tokens: &[String]) -> Op {
    let out: Vec<String> = tokens
        .iter()
        .filter_map(|t| {
            let letters = t.find(|c: char| !c.is_ascii_lowercase()).unwrap_or(t.len());
            let digits = &t[letters..];
            (letters > 0 && !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
                .then(|| format!("{digits}{}", &t[..letters]))
        })
        .collect();
    Op {
        script: format!("words {}", tokens.join("-")),
        expect: format!("{} {}", out.len(), out.join(",")),
    }
}

fn tally(n: u64, k: u64) -> Op {
    Op {
        script: format!("tally {n} {k}"),
        expect: format!("{n} {}", k * n * (n - 1) / 2),
    }
}

/// A text no earlier op of the list used: `v` counts up from a seeded
/// base, so these ops miss the compile cache.
fn fresh(v: u64) -> Op {
    Op {
        script: format!("set v {v}; incr v 3; format %d-%d $v [expr {{$v * 2}}]"),
        expect: format!("{}-{}", v + 3, (v + 3) * 2),
    }
}

/// The repeated texts: every call the cached classes can make. The
/// warm-up runs all of them, so the timed ops find them compiled.
fn universe(seed: u64) -> Vec<Vec<Op>> {
    let mut r = Rng::new(seed ^ 0x7C1_5C81);
    let sums = (24..=40).map(sumsq).collect();
    let sorts = (0..12)
        .map(|_| sorted_op(r.range(0, 65535), r.range(14, 20)))
        .collect();
    let rows = (0..12)
        .map(|_| row(&r.word(3, 8), r.range(0, 99_999), r.range(0, 65_535)))
        .collect();
    let word_ops = (0..12)
        .map(|_| {
            let tokens: Vec<String> = (0..r.range(6, 9))
                .map(|_| match r.range(0, 2) {
                    0 => format!("{}{}", r.word(1, 4), r.range(0, 999)),
                    1 => r.word(2, 5),
                    _ => r.range(0, 9999).to_string(),
                })
                .collect();
            words(&tokens)
        })
        .collect();
    let tallies = (0..12)
        .map(|_| tally(r.range(10, 16), r.range(1, 9)))
        .collect();
    vec![sums, sorts, rows, word_ops, tallies]
}

/// Share of ops, in percent, that are fresh texts.
const FRESH_PCT: u64 = 8;

pub struct TclScript {
    interp: Interp,
}

impl Workload for TclScript {
    type Op = Op;
    const OPS: usize = 10_000;
    const WARMUP: usize = 2000;

    fn generate(seed: u64, n: usize) -> Vec<Op> {
        let classes = universe(seed);
        let mut r = Rng::new(seed);
        let base = 1_000_000 + r.range(0, 1_000_000) * 1000;
        (0..n as u64)
            .map(|i| {
                if r.range(1, 100) <= FRESH_PCT {
                    fresh(base + i)
                } else {
                    let class = r.pick(&classes);
                    r.pick(class).clone()
                }
            })
            .collect()
    }

    /// The whole cached universe once, then ordinary ops.
    fn warmup(seed: u64) -> Vec<Op> {
        let mut ops: Vec<Op> = universe(seed).into_iter().flatten().collect();
        ops.extend(Self::generate(seed ^ WARM_SALT, Self::WARMUP));
        ops
    }

    fn setup(_rec: &Recorder) -> Result<Self, String> {
        let interp = Interp::new();
        interp.eval(PROCS).map_err(|e| e.msg)?;
        Ok(TclScript { interp })
    }

    fn run(&mut self, op: &Op, rec: &mut Recorder) -> Result<String, String> {
        let interp = &self.interp;
        rec.call("tcl.eval", || interp.eval(&op.script))
            .map_err(|e| e.msg)
    }

    fn check(&mut self, op: &Op, out: &str) -> Result<(), String> {
        if out == op.expect {
            Ok(())
        } else {
            Err(format!("{}: got {out:?}, want {:?}", op.script, op.expect))
        }
    }

    fn probe(&self) -> Probe {
        let mut p = Probe::default();
        p.add_compile(&self.interp);
        p
    }

    fn take_program_spans(&self) -> Vec<(SpanRecord, i64)> {
        Vec::new()
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn wire(&self) -> Option<bool> {
        None
    }
}
