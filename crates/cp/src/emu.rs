//! The control-processor emulator.
//!
//! Executes the byte-coded stack ISA against a [`CpBus`] (the node adapts
//! its dual-ported memory; tests use a plain vector). Channel and
//! vector-unit instructions **yield** a [`CpEvent`] instead of performing
//! I/O — the embedding layer runs the link protocol or the vector form,
//! charges simulated time, and resumes the processor. The emulator counts
//! processor cycles so the embedding layer can charge `cycles ×`
//! [`CP_CYCLE`](crate::isa::CP_CYCLE).

use crate::isa::{direct_cycles, Direct, Op};

/// Memory interface the processor executes against. Addresses are 32-bit
/// **word** addresses; code is fetched byte-wise from the same space.
pub trait CpBus {
    /// Read a 32-bit word.
    fn read(&mut self, word_addr: u32) -> Result<u32, CpError>;
    /// Write a 32-bit word.
    fn write(&mut self, word_addr: u32, value: u32) -> Result<(), CpError>;

    /// Fetch one code byte (little-endian lanes within each word).
    fn fetch_byte(&mut self, byte_addr: u32) -> Result<u8, CpError> {
        let w = self.read(byte_addr / 4)?;
        Ok((w >> (8 * (byte_addr % 4))) as u8)
    }
}

impl CpBus for Vec<u32> {
    fn read(&mut self, word_addr: u32) -> Result<u32, CpError> {
        self.get(word_addr as usize)
            .copied()
            .ok_or(CpError::Bus { addr: word_addr })
    }

    fn write(&mut self, word_addr: u32, value: u32) -> Result<(), CpError> {
        match self.get_mut(word_addr as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(CpError::Bus { addr: word_addr }),
        }
    }
}

/// Faults the processor can raise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpError {
    /// Memory access outside the configured space.
    Bus {
        /// Offending word address.
        addr: u32,
    },
    /// Integer division (or remainder) by zero.
    DivByZero,
    /// Undecodable operation number in `opr`.
    IllegalOp {
        /// The operand-register value that selected no operation.
        code: u32,
    },
    /// The processor executed `max_steps` without halting or yielding.
    StepLimit,
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::Bus { addr } => write!(f, "bus error at word address {addr:#x}"),
            CpError::DivByZero => write!(f, "integer division by zero"),
            CpError::IllegalOp { code } => write!(f, "illegal operation {code:#x}"),
            CpError::StepLimit => write!(f, "step limit exceeded (runaway program?)"),
        }
    }
}

impl std::error::Error for CpError {}

/// I/O requests the processor hands to the embedding layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpEvent {
    /// Receive `words` 32-bit words into `ptr` from sublink `chan`.
    In {
        /// Sublink index.
        chan: u32,
        /// Destination word address.
        ptr: u32,
        /// Word count.
        words: u32,
    },
    /// Send `words` words from `ptr` over sublink `chan`.
    Out {
        /// Sublink index.
        chan: u32,
        /// Source word address.
        ptr: u32,
        /// Word count.
        words: u32,
    },
    /// Issue the vector form described by the 4-word descriptor at
    /// `descriptor` (form, x_row, y_row, z_row) over `n` elements.
    VecIssue {
        /// Word address of the descriptor.
        descriptor: u32,
        /// Element count.
        n: u32,
    },
}

/// What a call to [`Cp::run`] ended with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// `halt` executed: the program is done.
    Halted,
    /// The processor requests I/O; resume with [`Cp::run`] after servicing.
    Yielded(CpEvent),
}

/// Processor state.
#[derive(Clone, Debug)]
pub struct Cp {
    /// Evaluation stack top.
    pub a: u32,
    /// Evaluation stack middle.
    pub b: u32,
    /// Evaluation stack bottom.
    pub c: u32,
    /// Workspace pointer (word address of local 0).
    pub wptr: u32,
    /// Instruction pointer (byte address).
    pub iptr: u32,
    /// Operand register (prefix accumulator).
    pub oreg: u32,
    /// Processor cycles consumed so far.
    pub cycles: u64,
    /// Instructions executed so far.
    pub instructions: u64,
    /// Word addresses below this bound count as single-cycle on-chip RAM
    /// (the 2 KB static RAM: 512 words).
    pub on_chip_words: u32,
    halted: bool,
}

impl Cp {
    /// A processor with Iptr at `entry` (byte address) and workspace at
    /// `wptr` (word address).
    pub fn new(entry: u32, wptr: u32) -> Cp {
        Cp {
            a: 0,
            b: 0,
            c: 0,
            wptr,
            iptr: entry,
            oreg: 0,
            cycles: 0,
            instructions: 0,
            on_chip_words: 512,
            halted: false,
        }
    }

    #[inline]
    fn push(&mut self, v: u32) {
        self.c = self.b;
        self.b = self.a;
        self.a = v;
    }

    #[inline]
    fn pop(&mut self) -> u32 {
        let v = self.a;
        self.a = self.b;
        self.b = self.c;
        v
    }

    #[inline]
    fn on_chip(&self, word_addr: u32) -> bool {
        word_addr < self.on_chip_words
    }

    /// Execute one instruction. `Ok(None)` means keep running.
    pub fn step(&mut self, bus: &mut dyn CpBus) -> Result<Option<StepOutcome>, CpError> {
        debug_assert!(!self.halted, "stepping a halted processor");
        let byte = bus.fetch_byte(self.iptr)?;
        self.iptr += 1;
        self.instructions += 1;
        self.cycles += 1; // fetch/decode (prefetch amortized)
        let d = Direct::from_nibble(byte >> 4);
        let data = (byte & 0xf) as u32;
        match d {
            Direct::Pfix => {
                self.oreg = (self.oreg | data) << 4;
                return Ok(None);
            }
            Direct::Nfix => {
                self.oreg = !(self.oreg | data) << 4;
                return Ok(None);
            }
            _ => {}
        }
        let operand = self.oreg | data;
        self.oreg = 0;
        let soperand = operand as i32;
        match d {
            Direct::Pfix | Direct::Nfix => unreachable!(),
            Direct::J => {
                self.cycles += direct_cycles(d, true);
                self.iptr = self.iptr.wrapping_add_signed(soperand);
            }
            Direct::Ldlp => {
                self.cycles += 1;
                let addr = self.wptr.wrapping_add_signed(soperand);
                self.push(addr);
            }
            Direct::Ldnl => {
                let addr = self.a.wrapping_add_signed(soperand);
                self.cycles += direct_cycles(d, self.on_chip(addr));
                self.a = bus.read(addr)?;
            }
            Direct::Ldc => {
                self.cycles += 1;
                self.push(operand);
            }
            Direct::Ldnlp => {
                self.cycles += 1;
                self.a = self.a.wrapping_add_signed(soperand);
            }
            Direct::Ldl => {
                let addr = self.wptr.wrapping_add_signed(soperand);
                self.cycles += direct_cycles(d, self.on_chip(addr));
                let v = bus.read(addr)?;
                self.push(v);
            }
            Direct::Adc => {
                self.cycles += 1;
                self.a = self.a.wrapping_add_signed(soperand);
            }
            Direct::Call => {
                self.cycles += direct_cycles(d, true);
                self.wptr = self.wptr.wrapping_sub(1);
                bus.write(self.wptr, self.iptr)?;
                self.iptr = self.iptr.wrapping_add_signed(soperand);
            }
            Direct::Cj => {
                self.cycles += direct_cycles(d, true);
                if self.a == 0 {
                    self.iptr = self.iptr.wrapping_add_signed(soperand);
                } else {
                    self.pop();
                }
            }
            Direct::Ajw => {
                self.cycles += 1;
                self.wptr = self.wptr.wrapping_add_signed(soperand);
            }
            Direct::Eqc => {
                self.cycles += 1;
                self.a = u32::from(self.a == operand);
            }
            Direct::Stl => {
                let addr = self.wptr.wrapping_add_signed(soperand);
                self.cycles += direct_cycles(d, self.on_chip(addr));
                let v = self.pop();
                bus.write(addr, v)?;
            }
            Direct::Stnl => {
                let addr = self.a.wrapping_add_signed(soperand);
                self.cycles += direct_cycles(d, self.on_chip(addr));
                self.pop();
                let v = self.pop();
                bus.write(addr, v)?;
            }
            Direct::Opr => return self.operate(operand, bus),
        }
        Ok(None)
    }

    fn operate(&mut self, code: u32, bus: &mut dyn CpBus) -> Result<Option<StepOutcome>, CpError> {
        let op = Op::from_u32(code).ok_or(CpError::IllegalOp { code })?;
        self.cycles += op.cycles();
        match op {
            Op::Rev => std::mem::swap(&mut self.a, &mut self.b),
            Op::Add => {
                let a = self.pop();
                self.a = self.a.wrapping_add(a);
            }
            Op::Sub => {
                let a = self.pop();
                self.a = self.a.wrapping_sub(a);
            }
            Op::Mul => {
                let a = self.pop();
                self.a = self.a.wrapping_mul(a);
            }
            Op::Div => {
                let a = self.pop();
                if a == 0 {
                    return Err(CpError::DivByZero);
                }
                self.a = (self.a as i32).wrapping_div(a as i32) as u32;
            }
            Op::Rem => {
                let a = self.pop();
                if a == 0 {
                    return Err(CpError::DivByZero);
                }
                self.a = (self.a as i32).wrapping_rem(a as i32) as u32;
            }
            Op::And => {
                let a = self.pop();
                self.a &= a;
            }
            Op::Or => {
                let a = self.pop();
                self.a |= a;
            }
            Op::Xor => {
                let a = self.pop();
                self.a ^= a;
            }
            Op::Not => self.a = !self.a,
            Op::Shl => {
                let a = self.pop();
                self.a = self.a.wrapping_shl(a);
            }
            Op::Shr => {
                let a = self.pop();
                self.a = self.a.wrapping_shr(a);
            }
            Op::Gt => {
                let a = self.pop();
                self.a = u32::from((self.a as i32) > (a as i32));
            }
            Op::Diff => {
                let a = self.pop();
                self.a = self.a.wrapping_sub(a);
            }
            Op::Sum => {
                let a = self.pop();
                self.a = self.a.wrapping_add(a);
            }
            Op::Dup => {
                let a = self.a;
                self.push(a);
            }
            Op::Pop => {
                self.pop();
            }
            Op::Wsub => {
                // Word subscript: addresses here are word-granular, so the
                // subscript is a plain add of base (B) and index (A).
                let idx = self.pop();
                self.a = self.a.wrapping_add(idx);
            }
            Op::Mint => self.push(i32::MIN as u32),
            Op::Ret => {
                self.iptr = bus.read(self.wptr)?;
                self.wptr = self.wptr.wrapping_add(1);
            }
            Op::Lend => {
                // A = back offset (bytes), B = word address of the counter.
                let off = self.pop();
                let cnt_addr = self.pop();
                let cnt = bus.read(cnt_addr)?.wrapping_sub(1);
                bus.write(cnt_addr, cnt)?;
                if (cnt as i32) > 0 {
                    self.iptr = self.iptr.wrapping_sub(off);
                }
            }
            Op::In | Op::Out => {
                let words = self.pop();
                let ptr = self.pop();
                let chan = self.pop();
                let ev = if op == Op::In {
                    CpEvent::In { chan, ptr, words }
                } else {
                    CpEvent::Out { chan, ptr, words }
                };
                return Ok(Some(StepOutcome::Yielded(ev)));
            }
            Op::VecOp => {
                let n = self.pop();
                let descriptor = self.pop();
                return Ok(Some(StepOutcome::Yielded(CpEvent::VecIssue {
                    descriptor,
                    n,
                })));
            }
            Op::Halt => {
                self.halted = true;
                return Ok(Some(StepOutcome::Halted));
            }
        }
        Ok(None)
    }

    /// Run until halt, yield, or `max_steps` instructions.
    pub fn run(&mut self, bus: &mut dyn CpBus, max_steps: u64) -> Result<StepOutcome, CpError> {
        for _ in 0..max_steps {
            if let Some(outcome) = self.step(bus)? {
                return Ok(outcome);
            }
        }
        Err(CpError::StepLimit)
    }

    /// Elapsed processor time: `cycles × CP_CYCLE`.
    pub fn elapsed(&self) -> ts_sim::Dur {
        crate::isa::CP_CYCLE * self.cycles
    }

    /// Average achieved MIPS so far.
    pub fn mips(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / (self.elapsed().as_secs_f64() * 1e6)
    }
}

/// Load assembled code into a bus at byte address `base`. A base that is
/// not word aligned is a [`CpError::Bus`] at that address.
pub fn load_code(bus: &mut dyn CpBus, base: u32, code: &[u8]) -> Result<(), CpError> {
    if !base.is_multiple_of(4) {
        return Err(CpError::Bus { addr: base });
    }
    for (i, chunk) in code.chunks(4).enumerate() {
        let mut w = 0u32;
        for (lane, &b) in chunk.iter().enumerate() {
            w |= (b as u32) << (8 * lane);
        }
        bus.write(base / 4 + i as u32, w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn machine(code: &str) -> (Cp, Vec<u32>) {
        let bytes = assemble(code).expect("assembly failed");
        let mut mem = vec![0u32; 4096];
        load_code(&mut mem, 1024 * 4, &bytes).unwrap(); // code at word 1024
        (Cp::new(1024 * 4, 256), mem) // workspace on-chip at word 256
    }

    #[test]
    fn arithmetic_program() {
        let (mut cp, mut mem) = machine(
            "ldc 6\n\
             ldc 7\n\
             mul\n\
             adc 8\n\
             stl 0\n\
             halt\n",
        );
        assert_eq!(cp.run(&mut mem, 1000).unwrap(), StepOutcome::Halted);
        assert_eq!(mem[256], 50);
    }

    #[test]
    fn large_and_negative_constants_via_prefixes() {
        let (mut cp, mut mem) = machine(
            "ldc 1000000\n\
             stl 0\n\
             ldc -12345\n\
             stl 1\n\
             halt\n",
        );
        cp.run(&mut mem, 1000).unwrap();
        assert_eq!(mem[256], 1_000_000);
        assert_eq!(mem[257] as i32, -12345);
    }

    #[test]
    fn loop_with_cj() {
        // sum = 0; i = 10; do { sum += i; i -= 1 } while (i != 0)
        let (mut cp, mut mem) = machine(
            "ldc 0\n\
             stl 0\n\
             ldc 10\n\
             stl 1\n\
             loop:\n\
             ldl 0\n\
             ldl 1\n\
             add\n\
             stl 0\n\
             ldl 1\n\
             adc -1\n\
             stl 1\n\
             ldl 1\n\
             eqc 0\n\
             cj loop\n\
             halt\n",
        );
        cp.run(&mut mem, 10_000).unwrap();
        assert_eq!(mem[256], 55);
    }

    #[test]
    fn call_and_ret() {
        let (mut cp, mut mem) = machine(
            "ldc 5\n\
             call double\n\
             stl 0\n\
             halt\n\
             double:\n\
             ldl 1\n\
             pop\n\
             dup\n\
             add\n\
             ret\n",
        );
        // Note: `call` pushes the return address into the workspace; the
        // callee sees its argument still in A. `ldl 1; pop` just exercises
        // workspace addressing.
        cp.run(&mut mem, 1000).unwrap();
        assert_eq!(mem[256], 10);
    }

    #[test]
    fn non_local_memory() {
        let (mut cp, mut mem) = machine(
            "ldc 2000\n\
             ldnl 0\n\
             adc 1\n\
             ldc 2000\n\
             stnl 1\n\
             halt\n",
        );
        mem[2000] = 99;
        cp.run(&mut mem, 1000).unwrap();
        assert_eq!(mem[2001], 100);
    }

    #[test]
    fn channel_out_yields() {
        let (mut cp, mut mem) = machine(
            "ldc 3\n\
             ldc 512\n\
             ldc 16\n\
             out\n\
             halt\n",
        );
        let outcome = cp.run(&mut mem, 1000).unwrap();
        assert_eq!(
            outcome,
            StepOutcome::Yielded(CpEvent::Out {
                chan: 3,
                ptr: 512,
                words: 16
            })
        );
        // Resume: next run halts.
        assert_eq!(cp.run(&mut mem, 10).unwrap(), StepOutcome::Halted);
    }

    #[test]
    fn vec_issue_yields() {
        let (mut cp, mut mem) = machine(
            "ldc 640\n\
             ldc 128\n\
             vecop\n\
             halt\n",
        );
        let outcome = cp.run(&mut mem, 1000).unwrap();
        assert_eq!(
            outcome,
            StepOutcome::Yielded(CpEvent::VecIssue {
                descriptor: 640,
                n: 128
            })
        );
    }

    #[test]
    fn div_by_zero_faults() {
        let (mut cp, mut mem) = machine("ldc 4\nldc 0\ndiv\nhalt\n");
        assert_eq!(cp.run(&mut mem, 100), Err(CpError::DivByZero));
    }

    #[test]
    fn step_limit_detects_runaway() {
        let (mut cp, mut mem) = machine("spin:\nj spin\n");
        assert_eq!(cp.run(&mut mem, 100), Err(CpError::StepLimit));
    }

    #[test]
    fn instruction_rate_is_about_7_5_mips() {
        // A register-heavy loop (the instruction mix the 7.5 MIPS figure
        // describes) must land near 7.5 MIPS in the cycle model.
        let (mut cp, mut mem) = machine(
            "ldc 20000\n\
             stl 1\n\
             loop:\n\
             ldl 1\n\
             adc -1\n\
             stl 1\n\
             ldl 1\n\
             eqc 0\n\
             cj loop\n\
             halt\n",
        );
        cp.run(&mut mem, 1_000_000).unwrap();
        let mips = cp.mips();
        assert!(mips > 6.0 && mips < 9.5, "mips = {mips}");
    }

    #[test]
    fn off_chip_access_is_slower() {
        let on = "ldc 1\nstl 0\nldl 0\nhalt\n"; // workspace at word 256 (on-chip)
        let (mut cp_on, mut mem_on) = machine(on);
        cp_on.run(&mut mem_on, 100).unwrap();
        let (mut cp_off, mut mem_off) = machine(on);
        cp_off.wptr = 2048; // off-chip workspace
        cp_off.run(&mut mem_off, 100).unwrap();
        assert!(cp_off.cycles > cp_on.cycles);
    }
}
