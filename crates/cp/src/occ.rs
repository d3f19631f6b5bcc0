//! **occ** — a miniature Occam-flavoured language compiled to the control
//! processor's instruction set.
//!
//! §II *Control*: "All features of the microprocessor are directly accessed
//! through a high-level language called Occam." This module makes that
//! claim concrete for the scalar core of such a language: integer
//! variables, expressions, `seq` blocks (implicit), `while`, `if/else`,
//! plus channel `send`/`recv` compiling to the `out`/`in` instructions.
//!
//! The surface syntax is deliberately tiny:
//!
//! ```text
//! x := 10;
//! acc := 0;
//! while x > 0 {
//!     acc := acc + x * x;
//!     x := x - 1;
//! }
//! send 0, acc;          -- channel 0 gets one word from `acc`
//! recv 1, reply;        -- one word from channel 1 into `reply`
//! ```
//!
//! Code generation targets the 3-register evaluation stack conservatively:
//! every binary operation spills its operands to workspace temporaries, so
//! expression depth can never overflow the A/B/C stack. Variables occupy
//! workspace slots from 0; temporaries grow above them.

use std::collections::HashMap;

use crate::asm::assemble;

/// Compilation errors with positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OccError {
    /// 1-based line.
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl std::fmt::Display for OccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for OccError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(i64),
    Assign, // :=
    Semi,
    Comma,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Op(String), // + - * / % & | ^ << >> == != < > <= >=
    KwWhile,
    KwIf,
    KwElse,
    KwSend,
    KwRecv,
    KwHalt,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, OccError> {
    let mut out = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split("--").next().unwrap_or("");
        let mut chars = text.chars().peekable();
        while let Some(&c) = chars.peek() {
            match c {
                c if c.is_whitespace() => {
                    chars.next();
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let tok = match s.as_str() {
                        "while" => Tok::KwWhile,
                        "if" => Tok::KwIf,
                        "else" => Tok::KwElse,
                        "send" => Tok::KwSend,
                        "recv" => Tok::KwRecv,
                        "halt" => Tok::KwHalt,
                        _ => Tok::Ident(s),
                    };
                    out.push((tok, line));
                }
                c if c.is_ascii_digit() => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_digit() {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let v = s.parse::<i64>().map_err(|_| OccError {
                        line,
                        msg: format!("bad number {s}"),
                    })?;
                    out.push((Tok::Num(v), line));
                }
                ':' => {
                    chars.next();
                    if chars.peek() == Some(&'=') {
                        chars.next();
                        out.push((Tok::Assign, line));
                    } else {
                        return Err(OccError {
                            line,
                            msg: "expected := after :".into(),
                        });
                    }
                }
                ';' => {
                    chars.next();
                    out.push((Tok::Semi, line));
                }
                ',' => {
                    chars.next();
                    out.push((Tok::Comma, line));
                }
                '{' => {
                    chars.next();
                    out.push((Tok::LBrace, line));
                }
                '}' => {
                    chars.next();
                    out.push((Tok::RBrace, line));
                }
                '(' => {
                    chars.next();
                    out.push((Tok::LParen, line));
                }
                ')' => {
                    chars.next();
                    out.push((Tok::RParen, line));
                }
                '<' | '>' => {
                    chars.next();
                    let mut s = c.to_string();
                    match chars.peek() {
                        Some('=') => {
                            s.push('=');
                            chars.next();
                        }
                        Some(&d) if d == c => {
                            s.push(d);
                            chars.next();
                        }
                        _ => {}
                    }
                    out.push((Tok::Op(s), line));
                }
                '=' | '!' => {
                    chars.next();
                    if chars.peek() == Some(&'=') {
                        chars.next();
                        out.push((Tok::Op(format!("{c}=")), line));
                    } else {
                        return Err(OccError {
                            line,
                            msg: format!("lone {c}"),
                        });
                    }
                }
                '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' => {
                    chars.next();
                    out.push((Tok::Op(c.to_string()), line));
                }
                other => {
                    return Err(OccError {
                        line,
                        msg: format!("unexpected character {other:?}"),
                    })
                }
            }
        }
    }
    Ok(out)
}

#[derive(Clone, Debug)]
enum Expr {
    Num(i64),
    Var(String),
    Bin(String, Box<Expr>, Box<Expr>),
}

#[derive(Clone, Debug)]
enum Stmt {
    Assign(String, Expr),
    While(Expr, Vec<Stmt>),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    Send(Expr, String),
    Recv(Expr, String),
    Halt,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), OccError> {
        let line = self.line();
        match self.next() {
            Some(t) if &t == want => Ok(()),
            other => Err(OccError {
                line,
                msg: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn stmts_until_rbrace(&mut self) -> Result<Vec<Stmt>, OccError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.next();
                    return Ok(out);
                }
                Some(_) => out.push(self.stmt()?),
                None => {
                    return Err(OccError {
                        line: self.line(),
                        msg: "missing }".into(),
                    })
                }
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, OccError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(name)) => {
                self.expect(&Tok::Assign, ":=")?;
                let e = self.expr(0)?;
                self.expect(&Tok::Semi, ";")?;
                Ok(Stmt::Assign(name, e))
            }
            Some(Tok::KwWhile) => {
                let cond = self.expr(0)?;
                self.expect(&Tok::LBrace, "{")?;
                let body = self.stmts_until_rbrace()?;
                Ok(Stmt::While(cond, body))
            }
            Some(Tok::KwIf) => {
                let cond = self.expr(0)?;
                self.expect(&Tok::LBrace, "{")?;
                let then = self.stmts_until_rbrace()?;
                let els = if self.peek() == Some(&Tok::KwElse) {
                    self.next();
                    self.expect(&Tok::LBrace, "{")?;
                    self.stmts_until_rbrace()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els))
            }
            Some(kw @ (Tok::KwSend | Tok::KwRecv)) => {
                let (word, stmt): (_, fn(_, _) -> _) = if kw == Tok::KwSend {
                    ("send", Stmt::Send)
                } else {
                    ("recv", Stmt::Recv)
                };
                let chan = self.expr(0)?;
                self.expect(&Tok::Comma, ",")?;
                let line2 = self.line();
                match self.next() {
                    Some(Tok::Ident(v)) => {
                        self.expect(&Tok::Semi, ";")?;
                        Ok(stmt(chan, v))
                    }
                    other => Err(OccError {
                        line: line2,
                        msg: format!("{word} needs a variable, found {other:?}"),
                    }),
                }
            }
            Some(Tok::KwHalt) => {
                self.expect(&Tok::Semi, ";")?;
                Ok(Stmt::Halt)
            }
            other => Err(OccError {
                line,
                msg: format!("unexpected {other:?}"),
            }),
        }
    }

    fn prec(op: &str) -> u8 {
        match op {
            "*" | "/" | "%" => 6,
            "+" | "-" => 5,
            "<<" | ">>" => 4,
            "&" | "^" | "|" => 3,
            "==" | "!=" | "<" | ">" | "<=" | ">=" => 2,
            _ => 0,
        }
    }

    fn expr(&mut self, min_prec: u8) -> Result<Expr, OccError> {
        let mut lhs = self.atom()?;
        while let Some(Tok::Op(op)) = self.peek() {
            let p = Self::prec(op);
            if p < min_prec.max(1) {
                break;
            }
            let op = op.clone();
            self.next();
            let rhs = self.expr(p + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr, OccError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Num(v)) => Ok(Expr::Num(v)),
            Some(Tok::Ident(v)) => Ok(Expr::Var(v)),
            Some(Tok::LParen) => {
                let e = self.expr(0)?;
                self.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Op(op)) if op == "-" => {
                // Unary minus: 0 − atom.
                let a = self.atom()?;
                Ok(Expr::Bin("-".into(), Box::new(Expr::Num(0)), Box::new(a)))
            }
            other => Err(OccError {
                line,
                msg: format!("expected expression, found {other:?}"),
            }),
        }
    }
}

struct Codegen {
    vars: HashMap<String, usize>,
    next_slot: usize,
    max_slot: usize,
    label: usize,
    asm: String,
}

impl Codegen {
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.vars.get(name) {
            return s;
        }
        let s = self.next_slot;
        self.vars.insert(name.to_string(), s);
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        s
    }

    fn temp(&mut self) -> usize {
        let s = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        s
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label += 1;
        format!("{stem}_{}", self.label)
    }

    fn emit(&mut self, line: &str) {
        self.asm.push_str(line);
        self.asm.push('\n');
    }

    /// Generate code leaving the expression value in A.
    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Num(v) => self.emit(&format!("ldc {v}")),
            Expr::Var(name) => {
                let s = self.slot(name);
                self.emit(&format!("ldl {s}"));
            }
            Expr::Bin(op, l, r) => {
                // Spill both operands to temporaries: stack depth stays ≤ 2.
                self.expr(l);
                let tl = self.temp();
                self.emit(&format!("stl {tl}"));
                self.expr(r);
                let tr = self.temp();
                self.emit(&format!("stl {tr}"));
                self.emit(&format!("ldl {tl}"));
                self.emit(&format!("ldl {tr}"));
                match op.as_str() {
                    "+" => self.emit("add"),
                    "-" => self.emit("sub"),
                    "*" => self.emit("mul"),
                    "/" => self.emit("div"),
                    "%" => self.emit("rem"),
                    "&" => self.emit("and"),
                    "|" => self.emit("or"),
                    "^" => self.emit("xor"),
                    "<<" => self.emit("shl"),
                    ">>" => self.emit("shr"),
                    ">" => self.emit("gt"),
                    "<" => {
                        // B < A  ==  A > B: swap then gt.
                        self.emit("rev");
                        self.emit("gt");
                    }
                    "==" => {
                        self.emit("sub");
                        self.emit("eqc 0");
                    }
                    "!=" => {
                        self.emit("sub");
                        self.emit("eqc 0");
                        self.emit("eqc 0");
                    }
                    ">=" => {
                        // !(B < A swapped): B >= A == !(A > B)
                        self.emit("rev");
                        self.emit("gt");
                        self.emit("eqc 0");
                    }
                    "<=" => {
                        self.emit("gt");
                        self.emit("eqc 0");
                    }
                    other => unreachable!("parser admits no operator {other}"),
                }
                // Free the temporaries.
                self.next_slot -= 2;
            }
        }
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(name, e) => {
                self.expr(e);
                let slot = self.slot(name);
                self.emit(&format!("stl {slot}"));
            }
            Stmt::While(cond, body) => {
                let top = self.fresh_label("while");
                let exit = self.fresh_label("endwhile");
                self.emit(&format!("{top}:"));
                self.expr(cond);
                self.emit(&format!("cj {exit}")); // false (0) → exit
                self.stmts(body);
                // Unconditional jump back: cj with a guaranteed-zero A.
                self.emit("ldc 0");
                self.emit(&format!("cj {top}"));
                self.emit(&format!("{exit}:"));
            }
            Stmt::If(cond, then, els) => {
                let lfalse = self.fresh_label("else");
                let lend = self.fresh_label("endif");
                self.expr(cond);
                self.emit(&format!("cj {lfalse}"));
                self.stmts(then);
                self.emit("ldc 0");
                self.emit(&format!("cj {lend}"));
                self.emit(&format!("{lfalse}:"));
                self.stmts(els);
                self.emit(&format!("{lend}:"));
            }
            Stmt::Send(chan, var) => {
                // out expects C=chan, B=ptr, A=count.
                self.expr(chan);
                let slot = self.slot(var);
                self.emit(&format!("ldlp {slot}"));
                self.emit("ldc 1");
                self.emit("out");
            }
            Stmt::Recv(chan, var) => {
                self.expr(chan);
                let slot = self.slot(var);
                self.emit(&format!("ldlp {slot}"));
                self.emit("ldc 1");
                self.emit("in");
            }
            Stmt::Halt => self.emit("halt"),
        }
    }
}

/// A compiled program: byte code plus the variable→workspace-slot map.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Assembled machine code.
    pub code: Vec<u8>,
    /// The generated assembly (for inspection / disassembly tests).
    pub asm: String,
    /// Variable workspace slots.
    pub vars: HashMap<String, usize>,
    /// Workspace slots used in total (variables + deepest temporaries).
    pub workspace_slots: usize,
}

/// Compile an `occ` program. A trailing `halt` is appended if the program
/// does not end with one.
pub fn compile(src: &str) -> Result<Compiled, OccError> {
    let toks = lex(src)?;
    let mut parser = Parser { toks, pos: 0 };
    let mut stmts = Vec::new();
    while parser.peek().is_some() {
        stmts.push(parser.stmt()?);
    }
    let mut cg = Codegen {
        vars: HashMap::new(),
        next_slot: 0,
        max_slot: 0,
        label: 0,
        asm: String::new(),
    };
    cg.stmts(&stmts);
    if !matches!(stmts.last(), Some(Stmt::Halt)) {
        cg.emit("halt");
    }
    let code = assemble(&cg.asm).map_err(|e| OccError {
        line: 0,
        msg: format!("internal codegen error: {e}"),
    })?;
    Ok(Compiled {
        code,
        asm: cg.asm,
        vars: cg.vars,
        workspace_slots: cg.max_slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{load_code, Cp};
    use crate::StepOutcome;

    /// Compile, run, and return the named variables' final values.
    fn run(src: &str, want: &[(&str, i32)]) {
        let c = compile(src).expect("compile failed");
        let mut mem = vec![0u32; 16384];
        load_code(&mut mem, 8192, &c.code).unwrap();
        let mut cp = Cp::new(8192, 256);
        assert_eq!(cp.run(&mut mem, 10_000_000).unwrap(), StepOutcome::Halted);
        for (name, v) in want {
            let slot = c.vars[*name];
            assert_eq!(mem[256 + slot] as i32, *v, "{name} (asm:\n{})", c.asm);
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        run("x := 2 + 3 * 4; y := (2 + 3) * 4;", &[("x", 14), ("y", 20)]);
    }

    #[test]
    fn division_and_modulo() {
        run(
            "q := 17 / 5; r := 17 % 5; n := -17 / 5;",
            &[("q", 3), ("r", 2), ("n", -3)],
        );
    }

    #[test]
    fn comparisons() {
        run(
            "a := 3 > 2; b := 2 > 3; c := 3 == 3; d := 3 != 3; e := 2 <= 2; f := 2 < 2; g := 5 >= 6;",
            &[("a", 1), ("b", 0), ("c", 1), ("d", 0), ("e", 1), ("f", 0), ("g", 0)],
        );
    }

    #[test]
    fn while_loop_sum() {
        run(
            "x := 10; acc := 0; while x > 0 { acc := acc + x * x; x := x - 1; }",
            &[("acc", 385), ("x", 0)],
        );
    }

    #[test]
    fn if_else() {
        run(
            "x := 7; if x % 2 == 1 { kind := 1; } else { kind := 2; } \
             y := 8; if y % 2 == 1 { k2 := 1; } else { k2 := 2; }",
            &[("kind", 1), ("k2", 2)],
        );
    }

    #[test]
    fn gcd() {
        run(
            "a := 252; b := 105; while b != 0 { t := b; b := a % b; a := t; }",
            &[("a", 21)],
        );
    }

    #[test]
    fn collatz_steps() {
        run(
            "n := 27; steps := 0; \
             while n != 1 { \
               if n % 2 == 0 { n := n / 2; } else { n := 3 * n + 1; } \
               steps := steps + 1; \
             }",
            &[("steps", 111), ("n", 1)],
        );
    }

    #[test]
    fn deep_expressions_spill_correctly() {
        run(
            "x := ((1 + 2) * (3 + 4)) + ((5 + 6) * (7 + 8)) - (9 * (10 + 11));",
            &[("x", 21 + 165 - 189)],
        );
    }

    #[test]
    fn unary_minus_and_bitwise() {
        run(
            "a := -5 + 3; b := 12 & 10; c := 12 | 3; d := 12 ^ 10; e := 1 << 10; f := 1024 >> 3;",
            &[
                ("a", -2),
                ("b", 8),
                ("c", 15),
                ("d", 6),
                ("e", 1024),
                ("f", 128),
            ],
        );
    }

    #[test]
    fn channel_send_compiles_to_out() {
        let c = compile("v := 42; send 3, v;").unwrap();
        assert!(c.asm.contains("out"));
        // Run until the yield and check the event.
        let mut mem = vec![0u32; 16384];
        load_code(&mut mem, 8192, &c.code).unwrap();
        let mut cp = Cp::new(8192, 256);
        match cp.run(&mut mem, 100_000).unwrap() {
            StepOutcome::Yielded(crate::CpEvent::Out { chan, ptr, words }) => {
                assert_eq!(chan, 3);
                assert_eq!(words, 1);
                assert_eq!(mem[ptr as usize], 42);
            }
            other => panic!("expected channel output, got {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_are_reported_with_lines() {
        let e = compile("x := ;").unwrap_err();
        assert_eq!(e.line, 1);
        let e = compile("x := 1;\ny := @;").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(compile("while 1 { x := 1;").is_err(), "missing brace");
    }

    #[test]
    fn workspace_accounting() {
        let c = compile("a := 1; b := 2; c := (a + b) * (a - b);").unwrap();
        // 3 variables plus at least 2 live temporaries at the deepest point.
        assert!(c.workspace_slots >= 5, "{}", c.workspace_slots);
        assert!(c.workspace_slots < 16, "spills must be freed");
    }
}
