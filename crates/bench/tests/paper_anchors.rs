//! The experiments return their headline measurements so tests can assert
//! on them: the paper anchors of E2, E3 and E5, measured on the simulator.

use ts_bench::{e2_bandwidths, e3_peak_arithmetic, e5_balance_ratios};

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
