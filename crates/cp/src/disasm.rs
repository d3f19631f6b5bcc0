//! Disassembler: byte code back to readable mnemonics.
//!
//! `pfix`/`nfix` chains are folded into the operand of the instruction they
//! prefix, so `disassemble(assemble(src))` produces one line per logical
//! instruction — the property test pins the round-trip against the
//! assembler for arbitrary operand values.

use crate::isa::{Direct, Op};

/// One decoded instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decoded {
    /// Byte offset of the first (prefix) byte.
    pub offset: usize,
    /// Encoded length in bytes (prefixes included).
    pub len: usize,
    /// The operation, with its full operand.
    pub insn: Insn,
}

/// A logical instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Insn {
    /// A direct function with its (prefix-folded) operand.
    DirectFn(Direct, i32),
    /// A secondary operation (`opr` with a recognized selector).
    Operation(Op),
    /// An `opr` whose selector names no known operation.
    UnknownOp(u32),
}

impl std::fmt::Display for Insn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Insn::DirectFn(d, operand) => write!(f, "{} {operand}", d.mnemonic()),
            Insn::Operation(op) => write!(f, "{}", op.mnemonic()),
            Insn::UnknownOp(code) => write!(f, "opr {code:#x} ; unknown"),
        }
    }
}

/// Decode a byte stream into logical instructions (prefixes folded).
pub fn disassemble(code: &[u8]) -> Vec<Decoded> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let start = i;
        let mut oreg: u32 = 0;
        loop {
            let byte = code[i];
            i += 1;
            let d = Direct::from_nibble(byte >> 4);
            let data = (byte & 0xf) as u32;
            match d {
                Direct::Pfix => {
                    oreg = (oreg | data) << 4;
                    if i >= code.len() {
                        // Truncated prefix chain: emit as-is.
                        out.push(Decoded {
                            offset: start,
                            len: i - start,
                            insn: Insn::DirectFn(Direct::Pfix, data as i32),
                        });
                        break;
                    }
                }
                Direct::Nfix => {
                    oreg = !(oreg | data) << 4;
                    if i >= code.len() {
                        out.push(Decoded {
                            offset: start,
                            len: i - start,
                            insn: Insn::DirectFn(Direct::Nfix, data as i32),
                        });
                        break;
                    }
                }
                Direct::Opr => {
                    let code_sel = oreg | data;
                    let insn = match Op::from_u32(code_sel) {
                        Some(op) => Insn::Operation(op),
                        None => Insn::UnknownOp(code_sel),
                    };
                    out.push(Decoded {
                        offset: start,
                        len: i - start,
                        insn,
                    });
                    break;
                }
                other => {
                    let operand = (oreg | data) as i32;
                    out.push(Decoded {
                        offset: start,
                        len: i - start,
                        insn: Insn::DirectFn(other, operand),
                    });
                    break;
                }
            }
        }
    }
    out
}

/// Render a full listing with offsets.
pub fn listing(code: &[u8]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for d in disassemble(code) {
        let _ = writeln!(out, "{:06x}  {}", d.offset, d.insn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{assemble, encode_direct};

    #[test]
    fn simple_listing() {
        let code = assemble("ldc 5\nstl 0\nadd\nhalt\n").unwrap();
        let text = listing(&code);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "000000  ldc 5");
        assert_eq!(lines[1], "000000  stl 0".replace("000000", "000001"));
        assert!(lines[2].ends_with("add"));
        assert!(lines[3].ends_with("halt"));
    }

    #[test]
    fn prefix_chains_fold() {
        let code = assemble("ldc 1000000\nldc -12345\nhalt\n").unwrap();
        let insns = disassemble(&code);
        assert_eq!(insns[0].insn, Insn::DirectFn(crate::Direct::Ldc, 1_000_000));
        assert_eq!(insns[1].insn, Insn::DirectFn(crate::Direct::Ldc, -12_345));
        assert_eq!(insns[2].insn, Insn::Operation(crate::Op::Halt));
        // Offsets and lengths tile the byte stream.
        let mut cursor = 0;
        for d in &insns {
            assert_eq!(d.offset, cursor);
            cursor += d.len;
        }
        assert_eq!(cursor, code.len());
    }

    #[test]
    fn unknown_op_marked() {
        let mut bytes = Vec::new();
        encode_direct(crate::Direct::Opr, 0x55, &mut bytes);
        let insns = disassemble(&bytes);
        assert_eq!(insns[0].insn, Insn::UnknownOp(0x55));
        assert!(listing(&bytes).contains("unknown"));
    }

    #[test]
    fn roundtrip_reassembles_identically() {
        // Disassemble a program, re-assemble the listing (minus offsets),
        // and the bytes must match — mnemonics and operands are faithful.
        let src = "ldc 300\nstl 2\nldl 2\nadc -17\nstl 3\nldc 0\ncj 4\nmul\nhalt\n";
        let code = assemble(src).unwrap();
        let text: String = disassemble(&code)
            .iter()
            .map(|d| format!("{}\n", d.insn))
            .collect();
        let code2 = assemble(&text).unwrap();
        assert_eq!(code, code2);
    }
}
