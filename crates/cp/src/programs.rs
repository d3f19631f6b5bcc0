//! A small run-time library of assembly routines for the control
//! processor — the kind of kernel-support code the machine's system
//! software would keep in the on-chip RAM. Each generator returns
//! assembly text (so callers can compose or inspect it) together with the
//! workspace-slot conventions it uses.
//!
//! These routines double as substantial emulator tests: each one is
//! executed against a reference model in this module's test suite.

/// Word-by-word memory copy: `dst[0..n] = src[0..n]`.
///
/// All three parameters are compile-time constants of the generated code
/// (the CP would normally take them in workspace slots; constants keep the
/// generated code legible).
pub fn memcpy(src: u32, dst: u32, n: u32) -> String {
    format!(
        "; memcpy {n} words {src} -> {dst}\n\
         ldc {src}\nstl 0\n\
         ldc {dst}\nstl 1\n\
         ldc {n}\nstl 2\n\
         loop:\n\
         ldl 0\nldnl 0\n\
         ldl 1\nstnl 0\n\
         ldl 0\nadc 1\nstl 0\n\
         ldl 1\nadc 1\nstl 1\n\
         ldl 2\nadc -1\nstl 2\n\
         ldl 2\neqc 0\ncj loop\n\
         halt\n"
    )
}

/// Fill `n` words at `dst` with `value`.
pub fn memset(dst: u32, value: i32, n: u32) -> String {
    format!(
        "; memset {n} words at {dst} = {value}\n\
         ldc {dst}\nstl 0\n\
         ldc {n}\nstl 1\n\
         loop:\n\
         ldc {value}\n\
         ldl 0\nstnl 0\n\
         ldl 0\nadc 1\nstl 0\n\
         ldl 1\nadc -1\nstl 1\n\
         ldl 1\neqc 0\ncj loop\n\
         halt\n"
    )
}

/// Sum `n` words at `src`, leaving the result in workspace slot 3.
pub fn sum_words(src: u32, n: u32) -> String {
    format!(
        "; sum {n} words at {src} -> wsp[3]\n\
         ldc {src}\nstl 0\n\
         ldc {n}\nstl 1\n\
         ldc 0\nstl 3\n\
         loop:\n\
         ldl 3\n\
         ldl 0\nldnl 0\n\
         add\nstl 3\n\
         ldl 0\nadc 1\nstl 0\n\
         ldl 1\nadc -1\nstl 1\n\
         ldl 1\neqc 0\ncj loop\n\
         halt\n"
    )
}

/// The element-at-a-time **gather loop** of §II: move `n` 64-bit elements
/// whose low-word addresses sit in a pointer table at `table` into a
/// contiguous area at `dst`. Four off-chip word accesses per element —
/// exactly the 1.6 µs/element the paper charges.
pub fn gather64(table: u32, dst: u32, n: u32) -> String {
    format!(
        "; gather {n} 64-bit elements via table {table} -> {dst}\n\
         ldc {table}\nstl 0\n\
         ldc {dst}\nstl 1\n\
         ldc {n}\nstl 2\n\
         loop:\n\
         ldl 0\nldnl 0\nstl 3\n\
         ldl 3\nldnl 0\n\
         ldl 1\nstnl 0\n\
         ldl 3\nldnl 1\n\
         ldl 1\nstnl 1\n\
         ldl 0\nadc 1\nstl 0\n\
         ldl 1\nadc 2\nstl 1\n\
         ldl 2\nadc -1\nstl 2\n\
         ldl 2\neqc 0\ncj loop\n\
         halt\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{load_code, Cp};
    use crate::{assemble, StepOutcome};

    fn run(src: &str, mem: &mut Vec<u32>) -> Cp {
        let code = assemble(src).expect("assembly failed");
        load_code(mem, 16384, &code).unwrap();
        let mut cp = Cp::new(16384, 256);
        assert_eq!(cp.run(mem, 10_000_000).unwrap(), StepOutcome::Halted);
        cp
    }

    #[test]
    fn memcpy_copies() {
        let mut mem = vec![0u32; 8192];
        for i in 0..64 {
            mem[1000 + i] = (i * 7 + 3) as u32;
        }
        run(&memcpy(1000, 2000, 64), &mut mem);
        for i in 0..64 {
            assert_eq!(mem[2000 + i], (i * 7 + 3) as u32);
        }
    }

    #[test]
    fn memset_fills() {
        let mut mem = vec![0u32; 8192];
        run(&memset(3000, -5, 40), &mut mem);
        for i in 0..40 {
            assert_eq!(mem[3000 + i] as i32, -5);
        }
        assert_eq!(mem[3040], 0, "no overrun");
    }

    #[test]
    fn sum_matches_reference() {
        let mut mem = vec![0u32; 8192];
        let vals: Vec<i32> = (0..50).map(|i| i * i - 300).collect();
        for (i, &v) in vals.iter().enumerate() {
            mem[4000 + i] = v as u32;
        }
        run(&sum_words(4000, 50), &mut mem);
        let want: i32 = vals.iter().sum();
        assert_eq!(mem[256 + 3] as i32, want);
    }

    #[test]
    fn gather_moves_elements_and_costs_four_accesses() {
        let mut mem = vec![0u32; 16384];
        // Scatter 16 64-bit elements at stride 8, pointer table at 6000.
        for i in 0..16u32 {
            let addr = 8000 + 8 * i;
            mem[6000 + i as usize] = addr;
            mem[addr as usize] = i * 10; // low word
            mem[addr as usize + 1] = i * 10 + 1; // high word
        }
        let cp = run(&gather64(6000, 7000, 16), &mut mem);
        for i in 0..16usize {
            assert_eq!(mem[7000 + 2 * i], (i * 10) as u32);
            assert_eq!(mem[7000 + 2 * i + 1], (i * 10 + 1) as u32);
        }
        // Timing: the paper's 1.6 µs/element counts only the four off-chip
        // word accesses. A straight-line interpreted loop adds table reads,
        // pointer bumps and the loop branch, landing near 5 µs/element —
        // the gap a hand-unrolled on-chip gather routine would close. The
        // memory-access floor (4 × 400 ns = 1.6 µs) is the model `ts-node`
        // charges; this test pins the un-tuned-loop reality above it.
        let per_elem_us = cp.elapsed().as_us_f64() / 16.0;
        assert!(
            (1.6..6.0).contains(&per_elem_us),
            "gather loop costs {per_elem_us} µs/element"
        );
    }

    #[test]
    fn generated_programs_assemble_cleanly() {
        for src in [
            memcpy(0, 1, 1),
            memset(0, 0, 1),
            sum_words(0, 1),
            gather64(0, 1, 1),
        ] {
            assert!(assemble(&src).is_ok(), "failed to assemble:\n{src}");
        }
    }
}
