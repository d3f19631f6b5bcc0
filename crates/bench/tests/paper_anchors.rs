//! The experiments return their headline measurements so tests can assert
//! on them: the paper anchors of E2, E3 and E5, measured on the simulator,
//! and E11's kernel rows against their op-mix rooflines.

use ts_bench::{e11_kernel_scaling, e2_bandwidths, e3_peak_arithmetic, e5_balance_ratios};

#[test]
fn experiments_return_the_paper_anchors() {
    let (link, _cp_ram, row_port, _vecreg) = e2_bandwidths();
    assert!((link - 0.5).abs() <= 0.005, "link {link} MB/s, paper 0.5");
    assert_eq!(row_port, 2560.0, "row port MB/s");

    let (saxpy, _single_pipe) = e3_peak_arithmetic();
    assert!(saxpy >= 15.9, "long-vector SAXPY {saxpy} MFLOPS, paper 16");

    let (gather, link) = e5_balance_ratios();
    assert!(
        (gather / 13.0 - 1.0).abs() <= 0.05,
        "1 : {gather}, paper 13"
    );
    assert!((link / 130.0 - 1.0).abs() <= 0.05, "1 : {link}, paper 130");
}

#[test]
fn every_kernel_row_stays_under_its_op_mix_roofline() {
    // §II: one adder and one multiplier, each an operation a cycle. No row
    // may run faster than the mix of adds and multiplies in its kernel's
    // forms allows, `16 · flops / (2 · max(adds, muls))` MFLOPS a node.
    let rows = e11_kernel_scaling();
    let below_peak = |name| rows.iter().any(|r| r.0 == name && r.1 == 1 && r.4 < 16.0);
    assert!(["fft", "jacobi", "nbody"].into_iter().all(below_peak));
    for (name, nodes, _, mflops, ceiling) in rows {
        assert!(
            mflops <= ceiling,
            "{name} on {nodes} nodes: {mflops:.2} MFLOPS, ceiling {ceiling:.2}"
        );
    }
}
