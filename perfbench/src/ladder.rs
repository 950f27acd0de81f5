//! The goodput ladder: fixed offered rates climbed open-loop on one fleet,
//! and the rate where the p99 latency crosses the limit.

use crate::drive::{open_phase, Tally, Target};
use crate::workload::{LADDER, LAT_LIMIT_NS};

/// Windows each rung's p99 is taken over (see `report::Windows`).
const RUNG_WINDOWS: usize = 8;
/// The ladder stops after this many rungs in a row missed the limit.
const LADDER_STOP_AFTER: usize = 2;

/// Climbs the goodput ladder on `target`'s fleet, `budget_ns` shared
/// among the rungs, and returns the goodput. The rungs' tallies join
/// `served` for the fleet's checks.
pub fn ladder_goodput(
    target: &Target,
    seed: u64,
    budget_ns: u64,
    served: &mut Tally,
    bad_calls: &mut u64,
) -> f64 {
    let rung_ns = budget_ns / LADDER.len() as u64;
    let mut ladder = Vec::new();
    let mut misses = 0;
    for (r, &rate) in LADDER.iter().enumerate() {
        let p = open_phase(
            target,
            seed,
            &format!("ladder{r}"),
            rate,
            rung_ns,
            false,
            RUNG_WINDOWS,
        );
        served.add(&p.tally);
        *bad_calls += p.bad_calls;
        let p99 = p.lat.mean_of(|w| w.p99);
        // A rung with a request that did not complete, or a backlog that
        // left the driver behind schedule by more than the limit at its
        // end, misses whatever its p99.
        let kept_up = p.tally.not_completed() == 0 && p.final_lag_ns <= LAT_LIMIT_NS;
        let met = kept_up && p99 <= LAT_LIMIT_NS as f64;
        println!(
            "# rung {rate}/s: p99 {:.3} us, backlog max {}, final lag {:.3} us, {} not completed: {}",
            p99 / 1e3,
            p.backlog_max,
            p.final_lag_ns as f64 / 1e3,
            p.tally.not_completed(),
            if met { "met" } else { "missed" }
        );
        ladder.push((rate, if kept_up { p99 } else { f64::INFINITY }));
        misses = if met { 0 } else { misses + 1 };
        if misses == LADDER_STOP_AFTER {
            break;
        }
    }
    goodput(&ladder)
}

/// Goodput from the ladder's `(rate, p99 ns)` rungs, in rate order: the
/// rate at which the least-squares non-decreasing fit of p99 over rate
/// crosses the limit, interpolated between the rungs on either side.
/// Fitting every rung keeps one noisy rung from moving the figure a whole
/// step. With the fit above the limit from the first rung, the lowest
/// rate scaled by limit ÷ p99.
fn goodput(rungs: &[(f64, f64)]) -> f64 {
    let limit = LAT_LIMIT_NS as f64;
    let fit = isotonic(&rungs.iter().map(|r| r.1).collect::<Vec<_>>());
    match fit.iter().position(|&p| p > limit) {
        None => rungs[rungs.len() - 1].0,
        Some(0) => rungs[0].0 * limit / fit[0],
        Some(k) => {
            let (lo, hi) = (rungs[k - 1].0, rungs[k].0);
            let frac = (limit - fit[k - 1]) / (fit[k] - fit[k - 1]);
            lo + (hi - lo) * frac
        }
    }
}

/// Pool-adjacent-violators: the least-squares non-decreasing fit.
fn isotonic(ys: &[f64]) -> Vec<f64> {
    // Blocks of (mean, count), merged while a block is below its left
    // neighbour.
    let mut blocks: Vec<(f64, usize)> = Vec::with_capacity(ys.len());
    for &y in ys {
        blocks.push((y, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (m2, n2) = blocks.pop().expect("len > 1");
            let (m1, n1) = blocks.pop().expect("len > 1");
            let n = n1 + n2;
            let mean = if m1.is_infinite() || m2.is_infinite() {
                f64::INFINITY
            } else {
                (m1 * n1 as f64 + m2 * n2 as f64) / n as f64
            };
            blocks.push((mean, n));
        }
    }
    blocks
        .into_iter()
        .flat_map(|(m, n)| std::iter::repeat_n(m, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_is_where_the_monotone_fit_crosses_the_limit() {
        let ladder = [(100e3, 20e3), (150e3, 40e3), (200e3, 60e3)];
        assert!((goodput(&ladder) - 175e3).abs() < 1e-6);
        // A noisy rung is pooled with its neighbour: 150k and 200k fit
        // to 50 µs, which meets the limit, so 250k is the crossing rung.
        let ladder = [(100e3, 20e3), (150e3, 60e3), (200e3, 40e3), (250e3, 90e3)];
        assert!((goodput(&ladder) - 200e3).abs() < 1e-6);
        // A rung that could not keep up bounds goodput below it.
        let ladder = [(100e3, 20e3), (150e3, f64::INFINITY)];
        assert_eq!(goodput(&ladder), 100e3);
        // Every rung met: the highest rate.
        let ladder = [(100e3, 20e3), (150e3, 30e3)];
        assert_eq!(goodput(&ladder), 150e3);
        // Nothing met: the lowest rate scaled by limit / p99.
        let ladder = [(100e3, 100e3), (150e3, 200e3)];
        assert_eq!(goodput(&ladder), 50e3);
    }
}
