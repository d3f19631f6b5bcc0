//! A small two-pass assembler for the control-processor ISA.
//!
//! Syntax, one instruction per line:
//!
//! ```text
//! ; comment
//! start:            ; label (byte address of the next instruction)
//! ldc 1000000       ; direct function with an integer operand
//! stl 0
//! j start           ; jump/cj/call take labels (or raw offsets)
//! add               ; secondary operations by name
//! halt
//! ```
//!
//! Because operands are encoded with `pfix`/`nfix` chains, an
//! instruction's length depends on its operand, and jump operands depend on
//! label distances — so label resolution iterates to a fixpoint (sizes only
//! ever grow, so the iteration terminates).

use std::collections::HashMap;

use crate::isa::{Direct, Op};

/// Assembly errors with line numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// Unknown mnemonic.
    UnknownMnemonic {
        /// 1-based source line.
        line: usize,
        /// The text that failed to parse.
        text: String,
    },
    /// Operand missing or malformed.
    BadOperand {
        /// 1-based source line.
        line: usize,
        /// The text that failed to parse.
        text: String,
    },
    /// A label was referenced but never defined.
    UndefinedLabel {
        /// 1-based source line.
        line: usize,
        /// The missing label.
        label: String,
    },
    /// The same label was defined twice.
    DuplicateLabel {
        /// 1-based source line.
        line: usize,
        /// The duplicated label.
        label: String,
    },
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnknownMnemonic { line, text } => {
                write!(f, "line {line}: unknown mnemonic `{text}`")
            }
            AsmError::BadOperand { line, text } => {
                write!(f, "line {line}: bad operand in `{text}`")
            }
            AsmError::UndefinedLabel { line, label } => {
                write!(f, "line {line}: undefined label `{label}`")
            }
            AsmError::DuplicateLabel { line, label } => {
                write!(f, "line {line}: duplicate label `{label}`")
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Clone, Debug)]
enum Operand {
    Imm(i64),
    Label(String),
}

#[derive(Clone, Debug)]
enum Item {
    DirectFn {
        d: Direct,
        operand: Operand,
        line: usize,
    },
    Operation(Op),
}

/// Encode a direct function with operand `k` (prefix chains as needed).
pub fn encode_direct(d: Direct, k: i64, out: &mut Vec<u8>) {
    fn prefix(k: i64, out: &mut Vec<u8>) {
        if k >= 16 {
            prefix(k >> 4, out);
            out.push(((Direct::Pfix as u8) << 4) | (k & 0xf) as u8);
        } else if k >= 0 {
            out.push(((Direct::Pfix as u8) << 4) | (k & 0xf) as u8);
        } else {
            // negative: nfix complements
            prefix_neg(k, out);
        }
    }
    fn prefix_neg(k: i64, out: &mut Vec<u8>) {
        let nk = !k; // non-negative
        if nk >> 4 != 0 {
            prefix(nk >> 4, out);
            out.push(((Direct::Nfix as u8) << 4) | (nk & 0xf) as u8);
        } else {
            out.push(((Direct::Nfix as u8) << 4) | (nk & 0xf) as u8);
        }
    }
    if (0..16).contains(&k) {
        out.push(((d as u8) << 4) | k as u8);
    } else if k >= 16 {
        prefix(k >> 4, out);
        out.push(((d as u8) << 4) | (k & 0xf) as u8);
    } else {
        prefix_neg(k >> 4, out);
        out.push(((d as u8) << 4) | (k & 0xf) as u8);
    }
}

/// Encode an operation (an `opr` with the operation number as operand).
pub fn encode_op(op: Op, out: &mut Vec<u8>) {
    encode_direct(Direct::Opr, op as i64, out);
}

fn encoded_len(d: Direct, k: i64) -> usize {
    let mut tmp = Vec::with_capacity(8);
    encode_direct(d, k, &mut tmp);
    tmp.len()
}

/// Assemble a program into its byte code. Jump targets are byte offsets
/// relative to the **end** of the jump instruction.
pub fn assemble(src: &str) -> Result<Vec<u8>, AsmError> {
    // Parse.
    let mut items: Vec<Item> = Vec::new();
    // label → item index it precedes
    let mut labels: HashMap<String, usize> = HashMap::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(AsmError::BadOperand {
                    line,
                    text: text.into(),
                });
            }
            if labels.insert(label.to_string(), items.len()).is_some() {
                return Err(AsmError::DuplicateLabel {
                    line,
                    label: label.into(),
                });
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let mut parts = rest.split_whitespace();
        let mnemonic = parts.next().unwrap().to_ascii_lowercase();
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(AsmError::BadOperand {
                line,
                text: rest.into(),
            });
        }
        // `opr` is spelled by its operation's name, never by itself.
        if let Some(d) = Direct::from_mnemonic(&mnemonic).filter(|&d| d != Direct::Opr) {
            let operand = match arg {
                None => {
                    return Err(AsmError::BadOperand {
                        line,
                        text: rest.into(),
                    })
                }
                Some(a) => match a.parse::<i64>() {
                    Ok(v) => Operand::Imm(v),
                    Err(_) => Operand::Label(a.to_string()),
                },
            };
            items.push(Item::DirectFn { d, operand, line });
        } else if let Some(op) = Op::from_mnemonic(&mnemonic) {
            if arg.is_some() {
                return Err(AsmError::BadOperand {
                    line,
                    text: rest.into(),
                });
            }
            items.push(Item::Operation(op));
        } else {
            return Err(AsmError::UnknownMnemonic {
                line,
                text: mnemonic,
            });
        }
    }

    // Size fixpoint: start by assuming every instruction is 1 byte.
    let mut sizes = vec![1usize; items.len()];
    loop {
        let offsets = offsets(&sizes);
        let mut changed = false;
        for (i, item) in items.iter().enumerate() {
            let need = match item {
                Item::Operation(op) => {
                    let mut tmp = Vec::new();
                    encode_op(*op, &mut tmp);
                    tmp.len()
                }
                Item::DirectFn { d, operand, line } => {
                    let k = operand_value(operand, *line, i, &labels, &offsets, &sizes)?;
                    encoded_len(*d, k)
                }
            };
            if need != sizes[i] {
                sizes[i] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Emit.
    let offsets = offsets(&sizes);
    let mut out = Vec::with_capacity(offsets[items.len()]);
    for (i, item) in items.iter().enumerate() {
        match item {
            Item::Operation(op) => encode_op(*op, &mut out),
            Item::DirectFn { d, operand, line } => {
                let k = operand_value(operand, *line, i, &labels, &offsets, &sizes)?;
                encode_direct(*d, k, &mut out);
            }
        }
        debug_assert_eq!(out.len(), offsets[i] + sizes[i]);
    }
    Ok(out)
}

/// Resolve an operand: immediate, or label → relative byte offset from the
/// end of instruction `i`.
fn operand_value(
    operand: &Operand,
    line: usize,
    i: usize,
    labels: &HashMap<String, usize>,
    offsets: &[usize],
    sizes: &[usize],
) -> Result<i64, AsmError> {
    match operand {
        Operand::Imm(v) => Ok(*v),
        Operand::Label(l) => {
            let target = *labels.get(l).ok_or_else(|| AsmError::UndefinedLabel {
                line,
                label: l.clone(),
            })?;
            let target_off = offsets[target] as i64;
            let after_insn = (offsets[i] + sizes[i]) as i64;
            Ok(target_off - after_insn)
        }
    }
}

/// Start offset of every item under `sizes`, plus one past the end (where a
/// label at the end of the source points).
fn offsets(sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(sizes.len() + 1);
    let mut off = 0;
    for s in sizes {
        out.push(off);
        off += s;
    }
    out.push(off);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_encodings() {
        let code = assemble("ldc 5\nstl 3\nadd\nhalt\n").unwrap();
        assert_eq!(code[0], 0x45); // ldc 5
        assert_eq!(code[1], 0xd3); // stl 3
        assert_eq!(code[2], 0xf1); // opr add(1)
                                   // halt = opr 0x18 needs a pfix.
        assert_eq!(&code[3..], &[0x21, 0xf8]);
    }

    #[test]
    fn prefix_chains() {
        let mut out = Vec::new();
        encode_direct(Direct::Ldc, 0x123, &mut out);
        // pfix 1, pfix 2, ldc 3
        assert_eq!(out, vec![0x21, 0x22, 0x43]);
        let mut out = Vec::new();
        encode_direct(Direct::Ldc, -1, &mut out);
        // nfix 0, ldc 15: oreg = (~0)<<4 = ...fff0 | f = -1.
        assert_eq!(out, vec![0x60, 0x4f]);
    }

    #[test]
    fn negative_encoding_decodes_correctly() {
        // Round-trip every interesting operand through a real decode loop.
        for k in [
            -1i64,
            -2,
            -15,
            -16,
            -17,
            -256,
            -4097,
            -1_000_000,
            0,
            15,
            16,
            255,
            1 << 20,
        ] {
            let mut bytes = Vec::new();
            encode_direct(Direct::Ldc, k, &mut bytes);
            let mut oreg: u32 = 0;
            let mut result = None;
            for b in bytes {
                let nib = (b & 0xf) as u32;
                match b >> 4 {
                    0x2 => oreg = (oreg | nib) << 4,
                    0x6 => oreg = !(oreg | nib) << 4,
                    0x4 => result = Some(oreg | nib),
                    _ => panic!("unexpected byte"),
                }
            }
            assert_eq!(result.unwrap() as i32 as i64, k, "k = {k}");
        }
    }

    #[test]
    fn labels_forward_and_backward() {
        let code = assemble(
            "start:\n\
             ldc 1\n\
             cj end\n\
             j start\n\
             end:\n\
             halt\n",
        )
        .unwrap();
        assert!(!code.is_empty());
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble("x:\nldc 1\nx:\nhalt\n").unwrap_err();
        assert!(matches!(err, AsmError::DuplicateLabel { .. }));
    }

    #[test]
    fn undefined_label_rejected() {
        let err = assemble("j nowhere\n").unwrap_err();
        assert!(matches!(err, AsmError::UndefinedLabel { .. }));
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let err = assemble("frobnicate\n").unwrap_err();
        assert!(matches!(err, AsmError::UnknownMnemonic { .. }));
    }

    #[test]
    fn comments_and_blank_lines() {
        let code = assemble("; a comment\n\n  ldc 1 ; trailing\nhalt\n").unwrap();
        assert_eq!(code[0], 0x41);
    }

    #[test]
    fn far_jump_grows_prefixes() {
        // A jump over > 16 bytes of code needs a pfix chain; the fixpoint
        // must converge and the target must still be correct (verified by
        // running it in the emulator tests).
        let mut src = String::from("j end\n");
        for _ in 0..40 {
            src.push_str("ldc 1\npop\n");
        }
        src.push_str("end:\nhalt\n");
        let code = assemble(&src).unwrap();
        assert!(code.len() > 82);
        assert_eq!(code[0] >> 4, 0x2, "first byte is a pfix of the long jump");
    }
}
