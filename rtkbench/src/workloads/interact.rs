//! `interact`: a UI built once receives a stream of pointer motion, clicks
//! and keystrokes through `Display`; one op is one input followed by
//! `TkEnv::dispatch_all`. The read and sync side of the wire.

use rtk_obs::SpanRecord;
use tk::{TkApp, TkEnv};

use super::{audit_apps, env_with_offset, eval, take_app_spans, Probe, Rng, Workload};
use crate::trace::Recorder;

const BUTTONS: usize = 4;
/// Pointer targets: the buttons, then the listbox, then the entry.
const LISTBOX: u8 = BUTTONS as u8;
const ENTRY: u8 = LISTBOX + 1;
/// The generator deletes once the entry holds this many characters, so
/// the entry's text (and its redraw cost) stays bounded.
const MAX_TEXT: usize = 16;

const UI: &str = r#"
set keys 0
set bgerrors 0
set etext {}
proc tkerror {msg} {
    global bgerrors
    incr bgerrors
}
foreach i {0 1 2 3} {
    set clicks($i) 0
    button .b$i -text "Button $i" -command "incr clicks($i)"
    pack append . .b$i {top fillx}
}
entry .e -width 30 -textvariable etext
bind .e <KeyPress> {incr keys}
pack append . .e {top fillx}
listbox .l -geometry 20x8
foreach w {alpha beta gamma delta epsilon zeta eta theta iota kappa} {
    .l insert end $w
}
pack append . .l {top}
update
focus .e
"#;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Move the pointer into target `target`, at fractions `fx`/255 and
    /// `fy`/255 of its inner width and height.
    Move { target: u8, fx: u8, fy: u8 },
    /// Click button 1 where the pointer is (a button or the listbox).
    Click,
    /// Type a printable character (the entry has the focus).
    Key(char),
    /// Delete the character before the insertion cursor.
    BackSpace,
}

pub struct Interact {
    env: TkEnv,
    app: TkApp,
    offset: i64,
    /// Root x, y, width, height of each pointer target.
    boxes: Vec<(i32, i32, i32, i32)>,
    pointer_on: Option<u8>,
    clicks: [u64; BUTTONS],
    keys: u64,
    text: String,
}

impl Workload for Interact {
    type Op = Op;
    const OPS: usize = 3000;
    const WARMUP: usize = 500;

    fn generate(seed: u64, n: usize) -> Vec<Op> {
        let mut r = Rng::new(seed);
        let mut on: Option<u8> = None;
        let mut len = 0usize;
        (0..n)
            .map(|_| {
                let roll = r.range(1, 100);
                let op = if on.is_none() || roll <= 35 {
                    Op::Move {
                        target: r.range(0, u64::from(ENTRY)) as u8,
                        fx: r.range(0, 255) as u8,
                        fy: r.range(0, 255) as u8,
                    }
                } else if roll <= 55 && on != Some(ENTRY) {
                    Op::Click
                } else if len >= MAX_TEXT || (len > 0 && r.range(1, 4) == 1) {
                    Op::BackSpace
                } else {
                    Op::Key(*r.pick(b"abcdefghijklmnopqrstuvwxyz0123456789") as char)
                };
                match op {
                    Op::Move { target, .. } => on = Some(target),
                    Op::Key(_) => len += 1,
                    Op::BackSpace => len = len.saturating_sub(1),
                    Op::Click => {}
                }
                op
            })
            .collect()
    }

    fn setup(rec: &Recorder) -> Result<Self, String> {
        let (env, offset) = env_with_offset(rec);
        let app = env.app("interact");
        eval(&app, UI)?;
        let paths = (0..BUTTONS)
            .map(|i| format!(".b{i}"))
            .chain([".l".into(), ".e".into()]);
        let mut boxes = Vec::new();
        for p in paths {
            let g = |what: &str| -> Result<i32, String> {
                eval(&app, &format!("winfo {what} {p}"))?
                    .parse()
                    .map_err(|e| format!("winfo {what} {p}: {e}"))
            };
            boxes.push((g("rootx")?, g("rooty")?, g("width")?, g("height")?));
        }
        Ok(Interact {
            env,
            app,
            offset,
            boxes,
            pointer_on: None,
            clicks: [0; BUTTONS],
            keys: 0,
            text: String::new(),
        })
    }

    fn run(&mut self, op: &Op, rec: &mut Recorder) -> Result<String, String> {
        let d = self.env.display();
        match *op {
            Op::Move { target, fx, fy } => {
                let (x, y, w, h) = self.boxes[usize::from(target)];
                let px = x + 2 + (w - 4).max(0) * i32::from(fx) / 255;
                let py = y + 2 + (h - 4).max(0) * i32::from(fy) / 255;
                rec.call("xsim.input", || d.move_pointer(px, py));
            }
            Op::Click => rec.call("xsim.input", || d.click(1)),
            Op::Key(c) => rec.call("xsim.input", || d.type_char(c)),
            Op::BackSpace => rec.call("xsim.input", || d.press_key("BackSpace")),
        }
        let env = &self.env;
        rec.call("tk.dispatch", || env.dispatch_all());
        Ok(String::new())
    }

    fn check(&mut self, op: &Op, _out: &str) -> Result<(), String> {
        match *op {
            Op::Move { target, .. } => self.pointer_on = Some(target),
            Op::Click => {
                if let Some(b) = self.pointer_on.filter(|&t| usize::from(t) < BUTTONS) {
                    self.clicks[usize::from(b)] += 1;
                }
            }
            Op::Key(c) => {
                self.keys += 1;
                self.text.push(c);
            }
            Op::BackSpace => {
                self.keys += 1;
                self.text.pop();
            }
        }
        let interp = self.app.interp();
        let var = |name: &str, index: Option<&str>| interp.get_var(name, index).map_err(|e| e.msg);
        let mut got = vec![
            var("keys", None)?,
            var("etext", None)?,
            var("bgerrors", None)?,
        ];
        let mut want = vec![self.keys.to_string(), self.text.clone(), "0".to_string()];
        for (i, n) in self.clicks.iter().enumerate() {
            got.push(var("clicks", Some(&i.to_string()))?);
            want.push(n.to_string());
        }
        if got != want {
            return Err(format!("after {op:?}: state {got:?}, want {want:?}"));
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
        Some(self.env.display().wire())
    }
}
