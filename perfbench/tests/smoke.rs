//! The benchmark's own checks: seeded generation is reproducible, `churn`
//! repeats its site counts exactly, and a short smoke of every workload
//! passes the correctness gate, timed and traced.

use qrs_perfbench::drive;
use qrs_perfbench::gate::{check_window, Oracle};
use qrs_perfbench::gen::{Inputs, Workload};
use qrs_perfbench::stack::{Shape, Stack};
use qrs_perfbench::trace;
use std::sync::atomic::Ordering;

/// A window long enough that a truncated script, not the clock, ends it.
const UNTIL_DONE: f64 = 120.0;

fn short(workload: Workload, seed: u64, ops: usize) -> Inputs {
    let mut inputs = Inputs::generate(workload, seed, 1.0);
    inputs.ops.truncate(ops);
    inputs
}

#[test]
fn one_seed_gives_one_script() {
    for w in Workload::ALL {
        let (a, b) = (Inputs::generate(w, 7, 2.0), Inputs::generate(w, 7, 2.0));
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_eq!(format!("{:?}", a.reqs), format!("{:?}", b.reqs));
        assert_eq!(format!("{:?}", a.writes), format!("{:?}", b.writes));
        assert_eq!(
            format!("{:?}", a.data.tuples()),
            format!("{:?}", b.data.tuples())
        );
        assert_eq!(a.system_rank_seed, b.system_rank_seed);
        let c = Inputs::generate(w, 8, 2.0);
        assert_ne!(format!("{:?}", a.reqs), format!("{:?}", c.reqs));
    }
}

#[test]
fn churn_site_counts_repeat_exactly() {
    let inputs = short(Workload::Churn, 3, 150);
    let run = || {
        let stack = Stack::build(&inputs, Shape::Wire, true).expect("set-up");
        let w = drive::run(&stack, &inputs, 1, UNTIL_DONE);
        let calls = stack
            .site_trace
            .as_ref()
            .expect("traced")
            .calls
            .load(Ordering::Relaxed);
        stack.shutdown();
        let verdict = check_window(&mut Oracle::new(&inputs), &w, &inputs.snapshots());
        assert!(verdict.passed(), "{:?}", verdict.failures);
        let spent: Vec<u64> = w.replies.list.iter().map(|r| r.spent).collect();
        (w.site, calls, spent, w.writes)
    };
    let first = run();
    assert!(first.3 > 0, "the script must include writes");
    assert_eq!(first, run());
}

#[test]
fn every_workload_passes_the_gate_timed_and_traced() {
    for (w, ops) in [
        (Workload::ColdRemote, 12),
        (Workload::WarmReplay, 400),
        (Workload::Churn, 120),
    ] {
        let inputs = short(w, 11, ops);
        let stack = Stack::build(&inputs, Shape::Wire, false).expect("set-up");
        let window = drive::run(&stack, &inputs, w.clients(), UNTIL_DONE);
        stack.shutdown();
        assert_eq!(window.ops, ops, "{}: the script ran to its end", w.name());
        assert_eq!(window.replies.failed(), 0, "{}", w.name());
        let verdict = check_window(&mut Oracle::new(&inputs), &window, &inputs.snapshots());
        assert!(verdict.passed(), "{}: {:?}", w.name(), verdict.failures);

        let traced = trace::run(&inputs, UNTIL_DONE).expect("traced run");
        for (phase, v) in &traced.verdicts {
            assert!(v.passed(), "{} {phase}: {:?}", w.name(), v.failures);
        }
        assert_eq!(traced.failed, 0);
        assert_eq!(traced.metrics.len(), 22);
        assert!(traced.metrics.iter().all(|(_, v, _)| v.is_finite()));
    }
}
