//! Shared A/B timing machinery for the `BENCH_*` binaries.
//!
//! Every benchmark in `src/bin/bench_*.rs` follows the same measurement
//! discipline:
//!
//! * **Interleaved repetitions, minima kept** — repetition `r` runs
//!   every arm once before repetition `r + 1` begins, so slow
//!   machine-wide drift (thermal throttling, background load) hits each
//!   arm equally, and keeping the per-arm minimum filters scheduler
//!   noise without biasing the comparison.
//!
//! This module is that discipline, factored once; the binaries keep
//! their own constants, arm definitions, and artifact schemas.

/// Runs `arms` measurement arms for `reps` interleaved repetitions and
/// returns one folded result per arm, in arm order.
///
/// The first repetition seeds each arm's slot; later repetitions are
/// folded in with `merge(best, next)` — typically keeping whichever has
/// the lower wall time, or taking element-wise minima.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn interleave_min<T>(
    reps: usize,
    arms: usize,
    mut run: impl FnMut(usize) -> T,
    mut merge: impl FnMut(&mut T, T),
) -> Vec<T> {
    assert!(reps > 0, "at least one repetition");
    let mut best: Vec<Option<T>> = std::iter::repeat_with(|| None).take(arms).collect();
    for _ in 0..reps {
        for (arm, slot) in best.iter_mut().enumerate() {
            let result = run(arm);
            match slot {
                None => *slot = Some(result),
                Some(b) => merge(b, result),
            }
        }
    }
    best.into_iter().map(|b| b.expect("reps > 0")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_runs_arms_in_order_and_merges_minima() {
        let mut trace = Vec::new();
        let mut tick = 0u64;
        let best = interleave_min(
            3,
            2,
            |arm| {
                trace.push(arm);
                tick += 1;
                // Arm 0 improves over reps, arm 1 worsens.
                match arm {
                    0 => 100 - tick,
                    _ => 100 + tick,
                }
            },
            |best, next| *best = (*best).min(next),
        );
        assert_eq!(trace, [0, 1, 0, 1, 0, 1]);
        assert_eq!(best, [100 - 5, 100 + 2]);
    }
}
