//! # ts-cp — the node's control processor
//!
//! §II *Control*: the T Series control unit is "a 32-bit CMOS
//! microprocessor" with a **stack-oriented instruction set with variable
//! operand sizes**, 7.5 MIPS, 2 KB of single-cycle on-chip RAM, 3-cycle
//! minimum off-chip access, four serial links, and Occam as its native
//! programming model. (Historically this is an Inmos transputer; the paper
//! never says so, and it specifies the ISA only by its character.)
//!
//! This crate implements a faithful **transputer-style** machine:
//!
//! * [`isa`] — three-register evaluation stack (A, B, C), workspace
//!   pointer, operand register, and the classic 4-bit-opcode/4-bit-operand
//!   encoding where `pfix`/`nfix` build large operands byte by byte:
//!   exactly the "variable operand sizes" the paper names.
//! * [`asm`] — a two-pass assembler with labels (iterating to a fixpoint,
//!   since operand length depends on label distance).
//! * [`emu`] — the emulator. It executes real programs against any
//!   [`CpBus`] (the node adapts its dual-ported memory), counts processor
//!   cycles with a cost table calibrated to the paper's **7.5 MIPS** and
//!   400 ns off-chip access, and *yields* at channel instructions so the
//!   embedding simulator can run the link protocol.
//!
//! The high-level kernels in `ts-kernels` do not compile to this ISA (the
//! paper's users wrote Occam, not assembler); the emulator exists to make
//! the control-processor substrate real — experiment E1 measures its
//! instruction rate, and the integration tests run gather loops and channel
//! programs on it.

#![deny(missing_docs)]

pub mod asm;
pub mod disasm;
pub mod emu;
pub mod isa;
pub mod occ;
pub mod programs;

pub use asm::{assemble, AsmError};
pub use disasm::{disassemble, listing};
pub use emu::{Cp, CpBus, CpError, CpEvent, StepOutcome};
pub use isa::{Direct, Op, CP_CYCLE};
