//! Visualize the §II overlap story: the vector unit crunching while the
//! control processor gathers the next operands. Prints an ASCII Gantt
//! timeline of one node's hardware units at the balanced k = 13 point and
//! at an unbalanced one. With `--trace out.json` it also runs a two-node
//! variant (compute overlapped with a link transfer) and writes the full
//! event stream as Chrome `trace_event` JSON — open it in Perfetto
//! (ui.perfetto.dev) to see the CP, vector-unit and wire tracks overlap.
//!
//! ```text
//! cargo run --example overlap_timeline
//! cargo run --example overlap_timeline -- --trace overlap.json
//! ```

use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::vector::VecForm;
use ts_fpu::Sf64;

fn run_rounds(k: usize) -> (String, f64) {
    let machine_cfg = MachineCfg::cube(0);
    let mut machine = Machine::build(machine_cfg);
    let tracer = machine.enable_tracing();
    let ctx = machine.ctx(0);
    machine.launch_on(0, async move {
        let rows_a = ctx.mem().cfg().rows_a();
        for _ in 0..3 {
            // Issue k vector forms, gather the next vector meanwhile.
            let mut done = ctx.now();
            for i in 0..k {
                let form = VecForm::Saxpy(Sf64::from(1.0));
                done = ctx.issue_vec(form, i % 4, rows_a, rows_a, 128).unwrap().1;
            }
            let srcs: Vec<usize> = (0..128).map(|i| 8192 + 4 * i).collect();
            ctx.gather64(&srcs, 1024).await.unwrap();
            ctx.wait(done).await;
        }
    });
    assert!(machine.run().quiescent);
    let horizon = machine.now();
    let vec_busy: fps_t_series::sim::Dur = machine
        .nodes
        .iter()
        .map(|n| n.meters().vec_busy.get())
        .sum();
    let eff = vec_busy.as_secs_f64() / horizon.as_secs_f64();
    (tracer.gantt(horizon, 72), eff)
}

/// Two nodes: node 0 overlaps vector forms with a gather and a send down
/// dimension 0; node 1 receives and computes on the payload. Every unit
/// and the wire between them land on their own Perfetto track.
fn traced_two_node_run(path: &std::path::Path) {
    let mut machine = Machine::build(MachineCfg::cube(1));
    let tracer = machine.enable_tracing();
    let rows_a = machine.ctx(0).mem().cfg().rows_a();

    let tx = machine.ctx(0);
    machine.launch_on(0, async move {
        for _ in 0..3 {
            let mut done = tx.now();
            for i in 0..4 {
                let form = VecForm::Saxpy(Sf64::from(1.0));
                done = tx.issue_vec(form, i % 4, rows_a, rows_a, 128).unwrap().1;
            }
            let srcs: Vec<usize> = (0..64).map(|i| 8192 + 4 * i).collect();
            tx.gather64(&srcs, 1024).await.unwrap();
            tx.send_dim(0, vec![1u32; 256]).await;
            tx.wait(done).await;
        }
    });
    let rx = machine.ctx(1);
    machine.launch_on(1, async move {
        for _ in 0..3 {
            let words = rx.recv_dim(0).await;
            let form = VecForm::Saxpy(Sf64::from(0.5));
            rx.vec(form, 0, rows_a, rows_a, words.len()).await.unwrap();
        }
    });
    assert!(machine.run().quiescent);
    ts_sim::write_trace(&tracer, path).expect("write trace JSON");
    println!(
        "wrote {} ({} events) — open in ui.perfetto.dev",
        path.display(),
        tracer.events().len()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(flag) = args.next() {
        if flag == "--trace" {
            let path = args.next().expect("--trace needs an output path");
            traced_two_node_run(std::path::Path::new(&path));
        } else {
            eprintln!("usage: overlap_timeline [--trace out.json]");
            std::process::exit(64);
        }
    }

    println!("k = 4 vector forms per gathered vector (gather-bound, §II says use ~13):\n");
    let (gantt, eff) = run_rounds(4);
    print!("{gantt}");
    println!("vector-unit utilization: {:.0}%\n", eff * 100.0);

    println!("k = 13 (the paper's balance rule — gather fully hidden):\n");
    let (gantt, eff) = run_rounds(13);
    print!("{gantt}");
    println!("vector-unit utilization: {:.0}%", eff * 100.0);
    assert!(eff > 0.95, "k=13 must hide the gather");
}
