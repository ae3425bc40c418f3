//! `build_ui`: each op builds a panel of mixed widget classes, packs it
//! into `.`, displays it with `update`, destroys it and updates again. The
//! write side of the wire: long one-way request batches, few round trips.

use rtk_obs::SpanRecord;
use tk::{TkApp, TkEnv};

use super::{audit_apps, env_with_offset, eval, take_app_spans, Probe, Rng, Workload};
use crate::trace::Recorder;

/// Builds the panel and returns what the entry and listbox hold, so the
/// op's result shows the widgets took their contents.
const PANEL_PROC: &str = r#"
proc panel {btns label etext items to} {
    frame .p -borderwidth 2 -relief raised
    set i 0
    foreach b $btns {
        button .p.b$i -text $b -command "set picked $b"
        pack append .p .p.b$i {left}
        incr i
    }
    label .p.l -text $label
    entry .p.e -width 20
    .p.e insert 0 $etext
    listbox .p.lb -geometry 20x6
    foreach it $items {
        .p.lb insert end $it
    }
    scale .p.s -from 0 -to $to -orient horizontal
    scrollbar .p.sb
    pack append .p .p.l {top} .p.e {top} .p.lb {left} .p.sb {right filly} .p.s {bottom fillx}
    pack append . .p {top}
    return "[.p.e get]|[.p.lb size]"
}
"#;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub script: String,
    pub expect: String,
}

pub struct BuildUi {
    _env: TkEnv,
    app: TkApp,
    offset: i64,
    baseline: Vec<String>,
}

impl Workload for BuildUi {
    type Op = Op;
    const OPS: usize = 400;
    const WARMUP: usize = 40;

    fn generate(seed: u64, n: usize) -> Vec<Op> {
        let mut r = Rng::new(seed);
        (0..n)
            .map(|_| {
                let btns: Vec<String> = (0..r.range(1, 3)).map(|_| r.word(2, 8)).collect();
                let label = r.word(3, 12);
                let etext = format!("{} {}", r.word(1, 6), r.word(1, 6));
                let items: Vec<String> = (0..r.range(3, 8)).map(|_| r.word(1, 10)).collect();
                let to = r.range(10, 500);
                Op {
                    script: format!(
                        "panel {{{}}} {label} {{{etext}}} {{{}}} {to}",
                        btns.join(" "),
                        items.join(" ")
                    ),
                    expect: format!("{etext}|{}", items.len()),
                }
            })
            .collect()
    }

    fn setup(rec: &Recorder) -> Result<Self, String> {
        let (env, offset) = env_with_offset(rec);
        let app = env.app("build");
        eval(&app, PANEL_PROC)?;
        app.update();
        let baseline = app.window_paths();
        Ok(BuildUi {
            _env: env,
            app,
            offset,
            baseline,
        })
    }

    fn run(&mut self, op: &Op, rec: &mut Recorder) -> Result<String, String> {
        let app = &self.app;
        let out = rec.call("tk.eval", || eval(app, &op.script))?;
        rec.call("tk.update", || app.update());
        rec.call("tk.eval", || eval(app, "destroy .p"))?;
        rec.call("tk.update", || app.update());
        Ok(out)
    }

    fn check(&mut self, op: &Op, out: &str) -> Result<(), String> {
        if out != op.expect {
            return Err(format!("{}: got {out:?}, want {:?}", op.script, op.expect));
        }
        let paths = self.app.window_paths();
        if paths != self.baseline {
            return Err(format!("window tree not back to baseline: {paths:?}"));
        }
        Ok(())
    }

    fn probe(&self) -> Probe {
        Probe::of_apps(&[&self.app])
    }

    fn take_program_spans(&self) -> Vec<(SpanRecord, i64)> {
        take_app_spans(&[&self.app], self.offset)
    }

    fn finish(&mut self) -> Result<(), String> {
        audit_apps(&[&self.app])
    }

    fn wire(&self) -> Option<bool> {
        Some(self.app.env().display().wire())
    }
}
