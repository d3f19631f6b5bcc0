//! The deepest end-to-end path in the repository: a **distributed dot
//! product written in control-processor assembly**, running on two nodes.
//!
//! Each node's machine code issues a `Dot` vector form to its arithmetic
//! controller (`vecop`), exchanges the partial result with its neighbour
//! over a serial link (`out`/`in`), and adds the halves — exercising, in
//! one program: the assembler, the stack-machine emulator, the vector
//! micro-sequencer, the bit-accurate FPU, the dual-ported memory, the
//! framed link protocol, and the machine wiring.

use fps_t_series::machine::{Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;

#[test]
fn distributed_dot_product_in_machine_code() {
    let mut machine = Machine::build(MachineCfg::cube(1));
    const N: usize = 64;

    // Host-side data: node k holds x_k (bank A row 0) and y_k (bank B).
    let mut want_total = 0.0f64;
    for node in &machine.nodes {
        let mut mem = node.mem_mut();
        let rows_a = mem.cfg().rows_a();
        for i in 0..N {
            let x = (node.id as usize * N + i) as f64 * 0.25;
            let y = 2.0 - i as f64 * 0.125;
            mem.write_f64(2 * i, Sf64::from(x)).unwrap();
            mem.write_f64(rows_a * ROW_WORDS + 2 * i, Sf64::from(y))
                .unwrap();
            want_total += x * y;
        }
        // Vector-form descriptor at word 600: Dot(3), x=row 0, y=bank B.
        mem.write_word(600, 3).unwrap();
        mem.write_word(601, 0).unwrap();
        mem.write_word(602, rows_a as u32).unwrap();
        mem.write_word(603, 0).unwrap();
        // (The scalar result lands at words 604..606.)
    }

    // The per-node programs, pure assembly. Rendezvous channels demand one
    // side receive while the other sends, so the even node sends first and
    // the odd node receives first (the Occam idiom for a symmetric swap).
    //   vecop dot            -> partial at words 604/605
    //   out/in on channel 0  <-> neighbour (order by node parity)
    //   halt (the host adds the halves with the node's own FPU below)
    let send_part = "ldc 0\nldc 604\nldc 2\nout\n";
    let recv_part = "ldc 0\nldc 608\nldc 2\nin\n";
    let prologue = "ldc 600\nldc 64\nvecop\n";
    let even = format!("{prologue}{send_part}{recv_part}halt\n");
    let odd = format!("{prologue}{recv_part}{send_part}halt\n");

    let mut joins = Vec::new();
    for node in &machine.nodes {
        let ctx = node.ctx();
        let src = if node.id % 2 == 0 {
            even.clone()
        } else {
            odd.clone()
        };
        let code = ts_cp::assemble(&src).expect("assembly failed");
        joins.push(machine.handle().spawn(async move {
            ctx.run_cp_program(&code, 4096, 256)
                .await
                .unwrap()
                .instructions
        }));
    }
    let report = machine.run();
    assert!(report.quiescent, "assembly programs deadlocked");
    for j in joins {
        assert!(j.try_take().unwrap() > 10);
    }

    // Every node now holds its partial (604) and its neighbour's (608):
    // combine with the node's own (software) arithmetic and check both
    // nodes agree with the host reference.
    for node in &machine.nodes {
        let mem = node.mem();
        let mine = Sf64::from_bits(mem.read_u64(604).unwrap());
        let theirs = Sf64::from_bits(mem.read_u64(608).unwrap());
        let total = (mine + theirs).to_host();
        assert!(
            (total - want_total).abs() < 1e-9,
            "node {}: {} vs {}",
            node.id,
            total,
            want_total
        );
    }

    // The run exercised the vector units and the links for real.
    assert_eq!(
        machine.registry().sum_counters("vec/flops"),
        2 * 2 * N as u64
    );
    assert!(machine.registry().sum_counters("link/bytes_sent") >= 16);
}

#[test]
fn compiled_occ_programs_communicate_across_a_link() {
    // The §II claim, end to end: node software written in the high-level
    // language, compiled to the stack ISA, communicating over real links.
    // Node 0 computes gcd(462, 1071) and sends it; node 1 receives it,
    // squares it, and sends it back.
    let mut machine = Machine::build(MachineCfg::cube(1));

    let producer = ts_cp::occ::compile(
        "a := 462; b := 1071;\n\
         while b != 0 { t := b; b := a % b; a := t; }\n\
         send 0, a;\n\
         recv 0, back;\n",
    )
    .expect("producer compile");
    let consumer = ts_cp::occ::compile(
        "recv 0, v;\n\
         sq := v * v;\n\
         send 0, sq;\n",
    )
    .expect("consumer compile");

    let c0 = machine.ctx(0);
    let p = producer.clone();
    machine.launch_on(0, async move {
        c0.run_cp_program(&p.code, 8192, 256).await.unwrap();
    });
    let c1 = machine.ctx(1);
    let q = consumer.clone();
    machine.launch_on(1, async move {
        c1.run_cp_program(&q.code, 8192, 256).await.unwrap();
    });
    let report = machine.run();
    assert!(report.quiescent, "occ programs deadlocked");

    // gcd(462, 1071) = 21; node 1 squares it to 441; node 0 gets it back.
    let slot_back = producer.vars["back"];
    assert_eq!(
        machine.nodes[0].mem().read_word(256 + slot_back).unwrap(),
        441
    );
    let slot_sq = consumer.vars["sq"];
    assert_eq!(
        machine.nodes[1].mem().read_word(256 + slot_sq).unwrap(),
        441
    );
    // Two messages actually crossed the serial link.
    assert_eq!(machine.registry().sum_counters("link/msgs_sent"), 2);
}
