//! The two plain-text formats — fault plans and arrival traces — read by
//! one strict reader (`ts_sim::text`): any text that parses is its value's
//! `Display`, up to blank lines, `#` comments and runs of whitespace, and
//! seeded mutants of a value's text either fail with a typed error or
//! parse to a value whose text is the mutant's.

use fps_t_series::machine::fault::{FaultEvent, FaultPlan};
use fps_t_series::workload::{Dist, Trace, TraceGen};
use ts_sim::{Dur, Rng};

/// `text` as `Display` would space it: record lines only, one space
/// between tokens, each line ended by a newline.
fn normalised(text: &str) -> String {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" ") + "\n")
        .collect()
}

/// A fault plan's text is canonical: `text` is rejected, or it is the
/// parsed plan's `Display` once normalised.
fn plan_text_is_canonical(text: &str) -> bool {
    FaultPlan::parse(text).map_or(true, |p| p.to_string() == normalised(text))
}

/// The same for a trace.
fn trace_text_is_canonical(text: &str) -> bool {
    Trace::parse(text).map_or(true, |t| t.to_string() == normalised(text))
}

#[test]
fn text_that_parses_is_its_values_display() {
    let plan = "\n# drill\n  0ps node_crash n1\n5ps   link_flap n0 d1 down7ps\n\
                5ps mem_flip n2 a17 b4\n9ps wire_corrupt n3 d0 bit513\n";
    assert_eq!(FaultPlan::parse(plan).unwrap().len(), 4);
    let trace = "class batch\n  # two arrivals\nclass urgent\n\n\
                 0ps job d=2 p=0 c=batch k=synthetic s=400000ps dl=-\n\
                 125000ps  job d=3 p=3 c=urgent k=allreduce/2 s=900000ps dl=4500000ps\n\
                 125000ps job d=0 p=1 c=batch k=saxpy/2/3 s=1ps dl=0ps\n";
    assert_eq!(Trace::parse(trace).unwrap().len(), 3);
    assert!(plan_text_is_canonical(plan));
    assert!(trace_text_is_canonical(trace));
    // Spellings no `Display` writes: a trailing token, a suffix doubled or
    // where the field has none, a sign or a leading zero, times out of order.
    for text in [
        "0ps node_crash n1 garbage",
        "0ps node_crash n1psps",
        "5ps link_flap n0 d1 down7",
        "5ps link_flap n0 d1 down7psps",
        "5ps link_down n0ps d1",
        "5ps node_crash n+1",
        "5ps node_crash n01",
        "05ps node_crash n1",
        "+5ps node_crash n1",
        "9ps node_crash n1\n5ps node_crash n2",
    ] {
        assert!(FaultPlan::parse(text).is_err(), "{text:?} parsed");
        assert!(plan_text_is_canonical(text), "{text:?}");
    }
    for job in [
        "0ps job d=+1 p=0 c=a k=synthetic s=1ps dl=-",
        "0ps job d=01 p=0 c=a k=synthetic s=1ps dl=-",
        "0ps job d=1 p=0 c=a k=saxpy/02/3 s=1ps dl=-",
        "0ps job d=1 p=0 c=a k=allreduce/+2 s=1ps dl=-",
        "0ps job d=1 p=0 c=a k=synthetic s=01ps dl=-",
        "0ps job d=1 p=0 c=a k=synthetic s=1psps dl=-",
        "0ps job d=1 p=0 c=a k=synthetic s=1ps dl=2",
        "0ps job d=1 p=0 c=a k=synthetic s=1ps dl=- extra",
        "00ps job d=1 p=0 c=a k=synthetic s=1ps dl=-",
        "0ps job d=1 p=0 c=a k=synthetic s=1ps dl=-\nclass b",
    ] {
        let text = format!("class a\n{job}");
        assert!(Trace::parse(&text).is_err(), "{text:?} parsed");
        assert!(trace_text_is_canonical(&text), "{text:?}");
    }
    // The one spelling a trace accepts that `Display` does not write: a
    // class declared twice is registered once, as `Trace::class` does.
    assert_eq!(
        Trace::parse("class a\nclass a\n").unwrap().to_string(),
        "class a\n"
    );
    assert_eq!(
        FaultPlan::parse("0ps node_crash n1 garbage")
            .unwrap_err()
            .what,
        "trailing tokens"
    );
    assert_eq!(
        FaultPlan::parse("9ps node_crash n1\n5ps node_crash n2")
            .unwrap_err()
            .line,
        2
    );
    let widest = FaultPlan::parse("5ps flit_drop n4294967295 d4294967295").unwrap();
    assert_eq!(
        widest.iter().next().unwrap().event,
        FaultEvent::FlitDrop {
            node: u32::MAX,
            dim: u32::MAX
        }
    );
}

/// One to three edits of `text`: a byte turned into a random printable
/// character, a token dropped or duplicated, or a token's number replaced
/// by one too large for its field (or for `u64`).
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(' ').map(String::from).collect())
        .collect();
    for _ in 0..rng.range(1, 4) {
        let n = lines.len();
        let line = &mut lines[rng.range(0, n)];
        if line.is_empty() {
            continue;
        }
        let at = rng.range(0, line.len());
        match rng.below(4) {
            0 => {
                let mut bytes = std::mem::take(&mut line[at]).into_bytes();
                if !bytes.is_empty() {
                    let i = rng.range(0, bytes.len());
                    bytes[i] = b' ' + rng.below(95) as u8;
                }
                line[at] = String::from_utf8(bytes).expect("printable ASCII");
            }
            1 => {
                line.remove(at);
            }
            2 => {
                let dup = line[at].clone();
                line.insert(at, dup);
            }
            _ => {
                let tok = &line[at];
                let digit = |c: &char| c.is_ascii_digit();
                let prefix: String = tok.chars().take_while(|c| !digit(c)).collect();
                let suffix: String = tok
                    .chars()
                    .skip_while(|c| !digit(c))
                    .skip_while(digit)
                    .collect();
                let huge = ["4294967296", "4294967297", "18446744073709551616"];
                line[at] = format!("{prefix}{}{suffix}", huge[rng.below(3) as usize]);
            }
        }
    }
    let lines: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
    lines.join("\n")
}

#[test]
fn mutated_plan_text_errs_or_round_trips() {
    let mut rng = Rng::new(0xFA17_7E57);
    let (mut rejected, mut parsed) = (0, 0);
    for seed in 0..64 {
        let text = FaultPlan::generate(seed, 4, 1024, 8, Dur::secs(1)).to_string();
        for _ in 0..32 {
            let mutant = mutate(&mut rng, &text);
            let Ok(plan) = FaultPlan::parse(&mutant) else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            assert_eq!(plan.to_string(), normalised(&mutant), "mutant:\n{mutant}");
            let again = FaultPlan::parse(&plan.to_string()).expect("a plan's own text parses");
            assert!(again.iter().eq(plan.iter()), "mutant:\n{mutant}");
        }
    }
    assert!(
        rejected > 0 && parsed > 0,
        "{rejected} rejected, {parsed} parsed"
    );
}

#[test]
fn mutated_trace_text_errs_or_round_trips() {
    let mut rng = Rng::new(0x7ACE_7E57);
    let (mut rejected, mut parsed) = (0, 0);
    for seed in 0..64 {
        let text = TraceGen::new(seed)
            .sizes(&[(0, 0.5), (1, 0.3), (3, 0.2)])
            .service(Dist::Exp { mean: 1e-4 })
            .classes("batch", 0.7, 0, None)
            .class("urgent", 0.3, 3, Some(30.0))
            .kernel_fraction(0.5)
            .generate(8)
            .to_string();
        for _ in 0..32 {
            let mutant = mutate(&mut rng, &text);
            let Ok(trace) = Trace::parse(&mutant) else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            assert_eq!(trace.to_string(), normalised(&mutant), "mutant:\n{mutant}");
            let again = Trace::parse(&trace.to_string()).expect("a trace's own text parses");
            assert_eq!(again, trace, "mutant:\n{mutant}");
        }
    }
    assert!(
        rejected > 0 && parsed > 0,
        "{rejected} rejected, {parsed} parsed"
    );
}
