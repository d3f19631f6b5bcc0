//! Instruction encoding: the stack machine's direct functions and operations.
//!
//! Every instruction is one byte: a 4-bit **function** and a 4-bit
//! **data** nibble. The data nibble loads into the operand register
//! (`Oreg`); `pfix`/`nfix` shift it up so operands of any size build up a
//! nibble at a time — the paper's "variable operand sizes". `opr` executes
//! the operation selected by `Oreg`, so the secondary instruction set is
//! open-ended.

use ts_sim::Dur;

/// One processor cycle. The paper's 7.5 MIPS with a predominantly
/// 2-cycle instruction mix implies a 15 MHz clock: 66.667 ns ≈ 66 667 ps.
pub const CP_CYCLE: Dur = Dur::ps(66_667);

/// The sixteen direct functions (the 4-bit primary opcodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Direct {
    /// Unconditional relative jump.
    J = 0x0,
    /// Load local pointer: A = Wptr + Oreg (word address).
    Ldlp = 0x1,
    /// Prefix: Oreg = (Oreg | data) << 4.
    Pfix = 0x2,
    /// Load non-local: `A = mem[A + Oreg]`.
    Ldnl = 0x3,
    /// Load constant: push Oreg.
    Ldc = 0x4,
    /// Load non-local pointer: A = A + Oreg.
    Ldnlp = 0x5,
    /// Negative prefix: Oreg = (~(Oreg | data)) << 4.
    Nfix = 0x6,
    /// Load local: push `mem[Wptr + Oreg]`.
    Ldl = 0x7,
    /// Add constant: A += Oreg.
    Adc = 0x8,
    /// Call: push Iptr into workspace, jump relative.
    Call = 0x9,
    /// Conditional jump: if A == 0 jump (and pop); else pop.
    Cj = 0xa,
    /// Adjust workspace: Wptr += Oreg.
    Ajw = 0xb,
    /// Equals constant: A = (A == Oreg).
    Eqc = 0xc,
    /// Store local: `mem[Wptr + Oreg] = pop`.
    Stl = 0xd,
    /// Store non-local: `mem[pop] = pop`.
    Stnl = 0xe,
    /// Operate: execute the operation selected by Oreg.
    Opr = 0xf,
}

impl Direct {
    /// Every direct function with its mnemonic, indexed by nibble: the one
    /// table the decoder, the assembler and the disassembler read.
    const TABLE: [(Direct, &'static str); 16] = [
        (Direct::J, "j"),
        (Direct::Ldlp, "ldlp"),
        (Direct::Pfix, "pfix"),
        (Direct::Ldnl, "ldnl"),
        (Direct::Ldc, "ldc"),
        (Direct::Ldnlp, "ldnlp"),
        (Direct::Nfix, "nfix"),
        (Direct::Ldl, "ldl"),
        (Direct::Adc, "adc"),
        (Direct::Call, "call"),
        (Direct::Cj, "cj"),
        (Direct::Ajw, "ajw"),
        (Direct::Eqc, "eqc"),
        (Direct::Stl, "stl"),
        (Direct::Stnl, "stnl"),
        (Direct::Opr, "opr"),
    ];

    /// Decode the function nibble.
    pub fn from_nibble(n: u8) -> Direct {
        Direct::TABLE[usize::from(n & 0xf)].0
    }

    /// The assembler mnemonic.
    pub(crate) fn mnemonic(self) -> &'static str {
        Direct::TABLE[self as usize].1
    }

    /// The direct function named `m`, if any.
    pub(crate) fn from_mnemonic(m: &str) -> Option<Direct> {
        Direct::TABLE.iter().find(|e| e.1 == m).map(|e| e.0)
    }
}

/// Secondary operations (selected by `Oreg` when executing [`Direct::Opr`]).
///
/// Numbering is ours (the paper does not publish one); names and semantics
/// follow the classic stack-machine set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Swap A and B.
    Rev = 0x00,
    /// A = B + A.
    Add = 0x01,
    /// A = B − A.
    Sub = 0x02,
    /// A = B · A (32-bit wrapping).
    Mul = 0x03,
    /// A = B / A (signed; yields error on 0).
    Div = 0x04,
    /// A = B mod A.
    Rem = 0x05,
    /// Bitwise and.
    And = 0x06,
    /// Bitwise or.
    Or = 0x07,
    /// Bitwise xor.
    Xor = 0x08,
    /// Bitwise complement of A.
    Not = 0x09,
    /// A = B << A.
    Shl = 0x0a,
    /// A = B >> A (logical).
    Shr = 0x0b,
    /// A = (B > A), signed.
    Gt = 0x0c,
    /// A = B − A with no stack pop of C (pointer difference).
    Diff = 0x0d,
    /// A = B + A unsigned with carry discarded (pointer sum).
    Sum = 0x0e,
    /// Duplicate A.
    Dup = 0x0f,
    /// Pop A.
    Pop = 0x10,
    /// Word subscript: A = B + 4·A (byte address arithmetic).
    Wsub = 0x11,
    /// Minimum integer: push i32::MIN.
    Mint = 0x12,
    /// Return from call.
    Ret = 0x13,
    /// Loop end: decrement the counter at `mem[B]`; jump back by A while > 0.
    Lend = 0x14,
    /// Channel input: receive `A` words into pointer `B` from channel `C`.
    In = 0x15,
    /// Channel output: send `A` words from pointer `B` to channel `C`.
    Out = 0x16,
    /// Issue a vector form to the arithmetic controller; A points at a
    /// 4-word descriptor (form, x_row, y_row, z_row) and B holds n.
    VecOp = 0x17,
    /// Stop the processor (end of program).
    Halt = 0x18,
}

impl Op {
    /// Every operation with its mnemonic, indexed by operation number: the
    /// one table the decoder, the assembler and the disassembler read.
    const TABLE: [(Op, &'static str); 25] = [
        (Op::Rev, "rev"),
        (Op::Add, "add"),
        (Op::Sub, "sub"),
        (Op::Mul, "mul"),
        (Op::Div, "div"),
        (Op::Rem, "rem"),
        (Op::And, "and"),
        (Op::Or, "or"),
        (Op::Xor, "xor"),
        (Op::Not, "not"),
        (Op::Shl, "shl"),
        (Op::Shr, "shr"),
        (Op::Gt, "gt"),
        (Op::Diff, "diff"),
        (Op::Sum, "sum"),
        (Op::Dup, "dup"),
        (Op::Pop, "pop"),
        (Op::Wsub, "wsub"),
        (Op::Mint, "mint"),
        (Op::Ret, "ret"),
        (Op::Lend, "lend"),
        (Op::In, "in"),
        (Op::Out, "out"),
        (Op::VecOp, "vecop"),
        (Op::Halt, "halt"),
    ];

    /// Decode an operation number.
    pub fn from_u32(v: u32) -> Option<Op> {
        let i = usize::try_from(v).ok()?;
        Op::TABLE.get(i).map(|e| e.0)
    }

    /// The assembler mnemonic.
    pub(crate) fn mnemonic(self) -> &'static str {
        Op::TABLE[self as usize].1
    }

    /// The operation named `m`, if any.
    pub(crate) fn from_mnemonic(m: &str) -> Option<Op> {
        Op::TABLE.iter().find(|e| e.1 == m).map(|e| e.0)
    }

    /// Processor cycles consumed by the operation (beyond the 1-cycle
    /// fetch/decode). Calibrated to the published machine character:
    /// multiply and divide are many-cycle, memory-free ALU ops are 1.
    pub fn cycles(self) -> u64 {
        use Op::*;
        match self {
            Mul => 26,
            Div | Rem => 39,
            Lend => 5,
            In | Out => 10, // channel setup before the DMA engine takes over
            VecOp => 8,     // write descriptor to the arithmetic controller
            Ret => 3,
            _ => 1,
        }
    }
}

/// Cycles for a direct function (beyond fetch/decode), given whether the
/// touched memory is the on-chip 2 KB (single cycle) or off-chip DRAM
/// (the paper's 3-cycle minimum; 6 cycles ≈ 400 ns for a random DRAM word).
pub fn direct_cycles(d: Direct, on_chip: bool) -> u64 {
    let mem = if on_chip { 1 } else { 6 };
    match d {
        Direct::Ldl | Direct::Stl | Direct::Ldnl | Direct::Stnl => mem,
        Direct::Call => 4,
        Direct::J | Direct::Cj => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_tables_round_trip() {
        // Code → variant → mnemonic → variant → code, for every entry.
        for n in 0..16u8 {
            let d = Direct::from_nibble(n);
            assert_eq!(d as u8, n);
            assert_eq!(Direct::from_mnemonic(d.mnemonic()), Some(d));
        }
        for v in 0..Op::TABLE.len() as u32 {
            let op = Op::from_u32(v).unwrap();
            assert_eq!(op as u32, v);
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Op::from_u32(Op::TABLE.len() as u32), None);
        assert_eq!(Op::from_u32(0x99), None);
        assert_eq!(Op::from_u32(u32::MAX), None);
        // No mnemonic names two instructions.
        let mut names: Vec<&str> = Direct::TABLE.iter().map(|e| e.1).collect();
        names.extend(Op::TABLE.iter().map(|e| e.1));
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        assert_eq!(Direct::from_mnemonic("frobnicate"), None);
        assert_eq!(Op::from_mnemonic("LDC"), None);
    }

    #[test]
    fn cycle_calibration() {
        // 15 MHz clock: 2 cycles ≈ 133 ns → 7.5 MIPS.
        let two = CP_CYCLE * 2;
        let mips = 1.0 / (two.as_secs_f64() * 1e6);
        assert!((mips - 7.5).abs() < 0.01, "{mips}");
        // Off-chip access ≈ 400 ns: 6 cycles.
        let access = CP_CYCLE * 6;
        assert!((access.as_secs_f64() * 1e9 - 400.0).abs() < 1.0);
        // Multiply and divide are long operations.
        assert!(Op::Mul.cycles() > 20);
        assert!(Op::Div.cycles() > Op::Mul.cycles());
    }
}
