//! The Occam programming model of §II *Control*: parallel, communicating
//! processes built from SEQ / PAR / ALT, plus real control-processor
//! machine code running on a node.
//!
//! Builds a 3-node pipeline (producer → filter → consumer) over hypercube
//! links with an ALT-based merge, then assembles and executes a small
//! stack-machine program on a node's control processor.
//!
//! ```text
//! cargo run --example occam_pipeline
//! ```

use fps_t_series::fpu::Sf64;
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::node::occam;

fn main() {
    // --- an Occam-style pipeline over the cube --------------------------
    // Node 0 produces squares, node 1 doubles them, node 3 consumes; node 2
    // independently sends markers to node 3, which ALTs over both inputs.
    let mut machine = Machine::build(MachineCfg::cube_small_mem(2, 8));

    let producer = machine.ctx(0);
    machine.launch_on(0, async move {
        for i in 0..5u32 {
            producer.cp_compute(50).await; // "compute" the value
            producer.send_dim(0, vec![i * i]).await; // to node 1
        }
    });

    let filter = machine.ctx(1);
    machine.launch_on(1, async move {
        for _ in 0..5 {
            let v = filter.recv_dim(0).await[0]; // from node 0
            filter.cp_compute(20).await;
            filter.send_dim(1, vec![v * 2]).await; // to node 3
        }
    });

    let marker = machine.ctx(2);
    machine.launch_on(2, async move {
        for k in 0..3u32 {
            marker.cp_compute(2000).await;
            marker.send_dim(0, vec![900 + k]).await; // to node 3
        }
    });

    let consumer = machine.ctx(3);
    let sink = machine.launch_on(3, async move {
        let mut got = Vec::new();
        for _ in 0..8 {
            // Occam ALT over the two incoming channels: first sender wins.
            let (dim, words) = consumer.alt_dims(&[0, 1]).await;
            got.push((dim, words[0]));
        }
        got
    });

    assert!(machine.run().quiescent, "pipeline deadlocked");
    let got = sink.try_take().unwrap();
    println!("consumer merged (channel, value) in arrival order:");
    for (dim, v) in &got {
        println!("  dim {dim}: {v}");
    }
    let data: Vec<u32> = got
        .iter()
        .filter(|(d, _)| *d == 1)
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(data, vec![0, 2, 8, 18, 32], "pipeline values");

    // --- PAR on one node -------------------------------------------------
    let mut m2 = Machine::build(MachineCfg::cube_small_mem(0, 8));
    let ctx = m2.ctx(0);
    let jh = m2.launch_on(0, async move {
        let h = ctx.handle().clone();
        let (a, b) = occam::par2(
            &h,
            {
                let c = ctx.clone();
                async move {
                    c.cp_compute(1000).await;
                    "integer work"
                }
            },
            {
                let c = ctx.clone();
                async move {
                    // y = 2·x + y over 1 000 values: one chained SAXPY form.
                    let (x, mut y) = (vec![Sf64::from(1.5); 1000], vec![Sf64::ZERO; 1000]);
                    c.wait(c.issue_saxpy_values(Sf64::from(2.0), &x, &mut y))
                        .await;
                    "vector work"
                }
            },
        )
        .await;
        (a, b, ctx.now())
    });
    m2.run();
    let (a, b, t) = jh.try_take().unwrap();
    println!("\nPAR({a}, {b}) joined at {t} — CP and vector unit overlapped");

    // --- real machine code on the control processor ----------------------
    let mut m3 = Machine::build(MachineCfg::cube_small_mem(0, 8));
    let code = fps_t_series::cp::assemble(
        "ldc 0\n\
         stl 0\n\
         ldc 100\n\
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
    )
    .expect("assembly failed");
    let ctx = m3.ctx(0);
    let jh = m3.launch_on(0, async move {
        let cp = ctx.run_cp_program(&code, 4096, 256).await.unwrap();
        (cp.instructions, cp.mips(), ctx.now())
    });
    m3.run();
    let (instrs, mips, t) = jh.try_take().unwrap();
    let sum = m3.nodes[0].mem().read_word(256).unwrap();
    println!(
        "\nstack-machine program: sum 1..=100 = {sum} ({instrs} instructions, {mips:.2} MIPS, {t})"
    );
    assert_eq!(sum, 5050);
}
