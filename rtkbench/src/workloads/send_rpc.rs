//! `send_rpc`: app `alpha` sends small scripts to app `beta` on the same
//! display; each reply is checked. The only workload that runs `send` and
//! the property protocol of the registry and comm windows.

use rtk_obs::SpanRecord;
use tk::{TkApp, TkEnv};

use super::{audit_apps, env_with_offset, eval, take_app_spans, Probe, Rng, Workload};
use crate::trace::Recorder;

const BETA_PROCS: &str = r#"
set total 0
proc add {a b} {
    expr {$a + $b}
}
proc up {s} {
    string toupper $s
}
proc cnt {l} {
    llength $l
}
"#;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `send beta {script}` whose reply is `expect`.
    Pure { script: String, expect: String },
    /// `send beta {incr total n}`: the reply is the running total.
    Incr(u64),
}

pub struct SendRpc {
    _env: TkEnv,
    alpha: TkApp,
    beta: TkApp,
    offset: i64,
    total: u64,
}

fn pure_op(r: &mut Rng) -> Op {
    match r.range(0, 2) {
        0 => {
            let (a, b) = (r.range(0, 9), r.range(0, 9));
            Op::Pure {
                script: format!("add {a} {b}"),
                expect: (a + b).to_string(),
            }
        }
        1 => {
            let w = *r.pick(&["tcl", "toolkit", "send", "button", "widget", "wish", "x"]);
            Op::Pure {
                script: format!("up {w}"),
                expect: w.to_uppercase(),
            }
        }
        _ => {
            let n = r.range(1, 6);
            let words: Vec<&str> = (0..n).map(|i| ["a", "bb", "ccc"][i as usize % 3]).collect();
            Op::Pure {
                script: format!("cnt {{{}}}", words.join(" ")),
                expect: n.to_string(),
            }
        }
    }
}

impl Workload for SendRpc {
    type Op = Op;
    const OPS: usize = 1500;
    const WARMUP: usize = 400;

    fn generate(seed: u64, n: usize) -> Vec<Op> {
        let mut r = Rng::new(seed);
        (0..n)
            .map(|_| {
                if r.range(1, 4) == 1 {
                    Op::Incr(r.range(1, 9))
                } else {
                    pure_op(&mut r)
                }
            })
            .collect()
    }

    fn setup(rec: &Recorder) -> Result<Self, String> {
        let (env, offset) = env_with_offset(rec);
        let alpha = env.app("alpha");
        let beta = env.app("beta");
        eval(&beta, BETA_PROCS)?;
        Ok(SendRpc {
            _env: env,
            alpha,
            beta,
            offset,
            total: 0,
        })
    }

    fn run(&mut self, op: &Op, rec: &mut Recorder) -> Result<String, String> {
        let script = match op {
            Op::Pure { script, .. } => format!("send beta {{{script}}}"),
            Op::Incr(n) => format!("send beta {{incr total {n}}}"),
        };
        let alpha = &self.alpha;
        rec.call("tk.eval", || eval(alpha, &script))
    }

    fn check(&mut self, op: &Op, out: &str) -> Result<(), String> {
        let want = match op {
            Op::Pure { expect, .. } => expect.clone(),
            Op::Incr(n) => {
                self.total += n;
                self.total.to_string()
            }
        };
        if out == want {
            Ok(())
        } else {
            Err(format!("{op:?}: got {out:?}, want {want:?}"))
        }
    }

    fn probe(&self) -> Probe {
        Probe::of_apps(&[&self.alpha, &self.beta])
    }

    fn take_program_spans(&self) -> Vec<(SpanRecord, i64)> {
        take_app_spans(&[&self.alpha, &self.beta], self.offset)
    }

    fn finish(&mut self) -> Result<(), String> {
        audit_apps(&[&self.alpha, &self.beta])
    }

    fn wire(&self) -> Option<bool> {
        Some(self.alpha.env().display().wire())
    }
}
