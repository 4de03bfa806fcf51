//! Property tests of the simulation substrate's core invariants.

use proptest::prelude::*;
use simkit::{Credit, Fifo, Pipeline, RoundRobin};

proptest! {
    /// Under any interleaving of pushes and pops, a FIFO delivers exactly
    /// the pushed values in order, never exceeds its capacity, and never
    /// makes a value visible in the cycle it was pushed.
    #[test]
    fn fifo_is_a_capacity_bounded_order_preserving_queue(
        capacity in 1usize..8,
        ops in proptest::collection::vec((proptest::bool::ANY, proptest::bool::ANY), 1..200),
    ) {
        let mut fifo: Fifo<u32> = Fifo::new(capacity);
        let mut next = 0u32;
        let mut popped = Vec::new();
        for (try_push, try_pop) in ops {
            if try_pop {
                if let Some(v) = fifo.pop() {
                    popped.push(v);
                }
            }
            let visible_before_push = fifo.len();
            if try_push && fifo.can_push() {
                fifo.push(next);
                // Just-pushed values must not be visible this cycle.
                prop_assert_eq!(fifo.len(), visible_before_push);
                next += 1;
            }
            fifo.end_cycle();
            prop_assert!(fifo.len() <= capacity);
        }
        // Order preservation: popped values are 0, 1, 2, ...
        for (i, v) in popped.iter().enumerate() {
            prop_assert_eq!(*v as usize, i);
        }
        prop_assert_eq!(fifo.total_popped(), popped.len() as u64);
        prop_assert!(fifo.total_pushed() >= fifo.total_popped());
    }

    /// `commit` reports a change exactly on cycles that pushed or popped,
    /// and a FIFO whose commit is skipped on some untouched cycles
    /// behaves identically to one committed every cycle.
    #[test]
    fn commit_reports_exactly_the_touched_cycles(
        capacity in 1usize..6,
        cycles in proptest::collection::vec((0usize..3, 0usize..3, proptest::bool::ANY), 1..200),
    ) {
        let mut every: Fifo<u32> = Fifo::new(capacity);
        let mut lazy: Fifo<u32> = Fifo::new(capacity);
        let mut next = 0u32;
        for (pops, pushes, commit_idle) in cycles {
            let mut touched = false;
            for _ in 0..pops {
                let got = every.pop();
                prop_assert_eq!(got, lazy.pop());
                touched |= got.is_some();
            }
            for _ in 0..pushes {
                prop_assert_eq!(every.can_push(), lazy.can_push());
                prop_assert_eq!(every.push_slots(), lazy.push_slots());
                if every.can_push() {
                    every.push(next);
                    lazy.push(next);
                    next += 1;
                    touched = true;
                }
            }
            prop_assert_eq!(every.commit(), touched);
            if touched || commit_idle {
                prop_assert_eq!(lazy.commit(), touched);
            }
            prop_assert_eq!(every.len(), lazy.len());
            prop_assert_eq!(every.can_push(), lazy.can_push());
            prop_assert_eq!(every.is_empty(), lazy.is_empty());
            prop_assert_eq!(every.peek(), lazy.peek());
            prop_assert!(every.iter().eq(lazy.iter()));
            prop_assert_eq!(every.staged().count(), 0);
        }
        prop_assert_eq!(every.total_pushed(), lazy.total_pushed());
        prop_assert_eq!(every.total_popped(), lazy.total_popped());
    }

    /// A pipeline delays every item by exactly its latency and preserves
    /// order.
    #[test]
    fn pipeline_delay_is_exact(
        latency in 1usize..6,
        gaps in proptest::collection::vec(0usize..3, 1..50),
    ) {
        let mut p: Pipeline<usize> = Pipeline::new(latency);
        let mut inserted_at = Vec::new();
        let mut emerged = Vec::new();
        let mut cycle = 0usize;
        for gap in gaps {
            for _ in 0..gap {
                if let Some(item) = p.end_cycle() {
                    emerged.push((item, cycle));
                }
                cycle += 1;
            }
            inserted_at.push(cycle);
            p.insert(inserted_at.len() - 1);
            if let Some(item) = p.end_cycle() {
                emerged.push((item, cycle));
            }
            cycle += 1;
        }
        for _ in 0..latency + 1 {
            if let Some(item) = p.end_cycle() {
                emerged.push((item, cycle));
            }
            cycle += 1;
        }
        prop_assert_eq!(emerged.len(), inserted_at.len());
        for (item, at) in emerged {
            prop_assert_eq!(at, inserted_at[item] + latency - 1);
        }
    }

    /// Round-robin arbitration is fair: over any window where all
    /// requestors stay asserted, grant counts differ by at most one.
    #[test]
    fn round_robin_is_fair(n in 1usize..8, rounds in 1usize..100) {
        let mut arb = RoundRobin::new(n);
        let all = vec![true; n];
        let mut counts = vec![0usize; n];
        for _ in 0..rounds {
            counts[arb.grant(&all).expect("always granted")] += 1;
        }
        let min = counts.iter().min().expect("nonempty");
        let max = counts.iter().max().expect("nonempty");
        prop_assert!(max - min <= 1, "unfair: {counts:?}");
    }

    /// Credits never go negative and never exceed their maximum.
    #[test]
    fn credits_are_conserved(
        max in 0usize..16,
        ops in proptest::collection::vec(proptest::bool::ANY, 0..100),
    ) {
        let mut c = Credit::new(max);
        let mut outstanding = 0usize;
        for take in ops {
            if take {
                if c.take() {
                    outstanding += 1;
                }
            } else if outstanding > 0 {
                c.put();
                outstanding -= 1;
            }
            prop_assert_eq!(c.in_flight(), outstanding);
            prop_assert!(c.available() <= max);
        }
    }
}
