//! `repro` — regenerate every figure and quantitative claim of the paper.
//!
//! ```text
//! cargo run --release -p ts-bench --bin repro -- all
//! cargo run --release -p ts-bench --bin repro -- e5 e10
//! ```

use ts_bench::*;

fn usage() -> ! {
    eprintln!(
        "usage: repro <all | e1 .. e16>...\n\
         \n\
         E1  control processor (Fig. 1)      E9  dual-bank ablation\n\
         E2  bandwidth hierarchy (Fig. 2)    E10 ops/word balance crossover\n\
         E3  peak arithmetic                 E11 kernel scaling\n\
         E4  gather/scatter                  E12 link framing & DMA\n\
         E5  1:13:130 balance ratios         E13 shared bus vs cube\n\
         E6  cube embeddings (Fig. 3)        E14 system ring vs broadcast\n\
         E7  configuration scaling           E15 physical row moves\n\
         E8  snapshots & checkpointing       E16 chaining ablation"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    for arg in &args {
        match arg.to_ascii_lowercase().as_str() {
            "all" => run_all(),
            "e1" => {
                e1_control_processor();
            }
            "e2" => {
                e2_bandwidths();
            }
            "e3" => {
                e3_peak_arithmetic();
            }
            "e4" => {
                e4_gather_scatter();
            }
            "e5" => {
                e5_balance_ratios();
            }
            "e6" => {
                e6_embeddings();
            }
            "e7" => {
                e7_scaling_table();
            }
            "e8" => {
                e8_checkpointing();
            }
            "e9" => {
                e9_dual_bank();
            }
            "e10" => {
                e10_comm_comp_balance();
            }
            "e11" => {
                e11_kernel_scaling();
            }
            "e12" => {
                e12_link_framing();
            }
            "e13" => {
                e13_shared_vs_cube();
            }
            "e14" => {
                e14_system_ring();
            }
            "e15" => {
                e15_row_moves();
            }
            "e16" => {
                e16_chaining_ablation();
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                usage();
            }
        }
    }
}
