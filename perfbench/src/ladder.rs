//! The offered-rate ladder and its stop rule.
//!
//! `sustained_msgs_per_s` is the offered rate the cluster sustains:
//! the rate at which a rung meets all three conditions of
//! [`RungLimits`] half the time, found in two phases by [`climb`].
//!
//! 1. **Coarse climb.** From the workload's first rung, rungs a fixed
//!    `step` apart go up while they pass and stop at the first failure
//!    (or, when the first rung fails, go down until one passes). This
//!    brackets the cluster's capacity within one step.
//! 2. **Staircase.** [`Ladder::trials`] rungs on a finer grid (`√step`
//!    apart) start inside the bracket; each goes one grid step up after
//!    a pass and one down after a failure, so they settle around the
//!    rate that passes half the time. The estimate is the mean achieved
//!    rate of those trials.
//!
//! A single pass up a ladder reports the first rate at which any rung
//! failed. On a shared host one stall of a few hundred ms fails a rung
//! well below capacity (the backlog it leaves makes the cluster drop
//! deliveries), so that figure tracked how often the host stalled:
//! ten-seed sets of the same code spread 0.12 and 0.29. Near the
//! fifty-percent point most failures come from a backlog that grows
//! on every trial, not from single stalls, and the estimate averages
//! over every trial.

/// What one rung of the ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, publications per second.
    pub offered: f64,
    /// Rate the generator achieved: publications over the span from the
    /// first due time to the last publish.
    pub achieved: f64,
    /// p99 publish→delivery latency, ms (from the due time): the median
    /// over the rung's equal windows of each window's p99.
    pub p99_ms: f64,
    /// Expected deliveries that had not arrived when the bounded drain
    /// after the last publish ended.
    pub missing: u64,
    /// Deliveries the oracle expected on this rung.
    pub expected: u64,
    /// p99 of generator lateness (publish time minus due time), ms.
    pub lateness_p99_ms: f64,
}

/// The three conditions a rung must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungLimits {
    /// The workload's latency limit on p99, ms.
    pub p99_ms: f64,
    /// Largest p99 generator lateness that still counts as keeping to
    /// the schedule, ms.
    pub lateness_ms: f64,
    /// Smallest achieved/offered ratio that still counts as keeping to
    /// the schedule.
    pub min_rate_share: f64,
}

impl Rung {
    /// Why this rung fails, or `None` when it meets every condition.
    pub fn failure(&self, lim: &RungLimits) -> Option<&'static str> {
        if self.missing > 0 {
            Some("deliveries missing after the drain")
        } else if self.p99_ms.is_nan() || self.p99_ms >= lim.p99_ms {
            Some("p99 over the latency limit")
        } else if self.lateness_p99_ms > lim.lateness_ms
            || self.achieved < lim.min_rate_share * self.offered
        {
            Some("generator fell behind its schedule")
        } else {
            None
        }
    }

    /// Share of expected deliveries that never arrived.
    pub fn loss_ratio(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            self.missing as f64 / self.expected as f64
        }
    }
}

/// The coarse ladder: `start`, then each rung `step` times the one
/// before, up to `span` times `start`.
pub fn rates(start: f64, step: f64, span: f64) -> Vec<f64> {
    let mut out = vec![start];
    while let Some(&last) = out.last() {
        let next = (last * step).round();
        if next > start * span {
            break;
        }
        out.push(next);
    }
    out
}

/// The shape of the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// First coarse rung, publications per second.
    pub start: f64,
    /// Ratio between neighbouring coarse rungs; the staircase moves by
    /// its square root.
    pub step: f64,
    /// Top coarse rung, as a multiple of `start`.
    pub span: f64,
    /// Rungs the staircase runs.
    pub trials: usize,
}

/// Every rung a climb ran, in order, and what they decided.
#[derive(Debug, Clone, PartialEq)]
pub struct Climb {
    /// Rungs in the order they ran; the first is the paced phase.
    pub rungs: Vec<Rung>,
    /// Indices of the staircase's rungs (empty when the paced phase
    /// failed or every coarse rung passed).
    pub staircase: std::ops::Range<usize>,
    /// The sustained rate, publications per second (0 when the paced
    /// phase failed).
    pub sustained: f64,
}

impl Climb {
    /// The first rung that failed, if any did.
    pub fn first_failure(&self, lim: &RungLimits) -> Option<&Rung> {
        self.rungs.iter().find(|r| r.failure(lim).is_some())
    }

    /// Deliveries missing after the drain, summed over every rung run.
    pub fn lost(&self) -> u64 {
        self.rungs.iter().map(|r| r.missing).sum()
    }
}

/// Climbs `ladder` above `first`, a rung already run (the paced phase),
/// calling `run` for each rung: the coarse climb, then the staircase.
pub fn climb(
    first: Rung,
    ladder: &Ladder,
    lim: &RungLimits,
    mut run: impl FnMut(f64) -> Rung,
) -> Climb {
    let floor = first.offered;
    let mut c = Climb {
        rungs: vec![first],
        staircase: 0..0,
        sustained: 0.0,
    };
    if c.rungs[0].failure(lim).is_some() {
        return c;
    }
    let mut pass = |c: &mut Climb, rate: f64| {
        let rung = run(rate);
        let ok = rung.failure(lim).is_none();
        c.rungs.push(rung);
        ok
    };
    let fine = ladder.step.sqrt();
    // The coarse climb; `level` ends one fine step inside the bracket.
    let coarse = rates(ladder.start, ladder.step, ladder.span);
    let mut level = if pass(&mut c, coarse[0]) {
        match coarse[1..].iter().find(|&&rate| !pass(&mut c, rate)) {
            Some(&failed) => failed / fine,
            None => {
                c.sustained = c.rungs.last().expect("ran a rung").achieved;
                return c;
            }
        }
    } else {
        let mut rate = coarse[0];
        loop {
            rate = (rate / ladder.step).round();
            if rate <= floor {
                break floor * fine;
            }
            if pass(&mut c, rate) {
                break rate * fine;
            }
        }
    };
    let from = c.rungs.len();
    for _ in 0..ladder.trials {
        level = if pass(&mut c, level.round()) {
            level * fine
        } else {
            (level / fine).max(floor)
        };
    }
    c.staircase = from..c.rungs.len();
    let trials = &c.rungs[c.staircase.clone()];
    c.sustained = trials.iter().map(|r| r.achieved).sum::<f64>() / trials.len().max(1) as f64;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIM: RungLimits = RungLimits {
        p99_ms: 50.0,
        lateness_ms: 5.0,
        min_rate_share: 0.95,
    };

    /// Coarse rungs 1000, 1210, 1464, 1771, ... up to 8000; the
    /// staircase moves by 1.1.
    const LADDER: Ladder = Ladder {
        start: 1000.0,
        step: 1.21,
        span: 8.0,
        trials: 4,
    };

    fn rung(offered: f64, p99_ms: f64, missing: u64) -> Rung {
        Rung {
            offered,
            achieved: offered,
            p99_ms,
            missing,
            expected: 1000,
            lateness_p99_ms: 0.5,
        }
    }

    /// A cluster whose p99 passes up to `capacity` and fails above it.
    fn capacity(capacity: f64) -> impl FnMut(f64) -> Rung {
        move |rate| rung(rate, if rate <= capacity { 10.0 } else { 90.0 }, 0)
    }

    fn paced() -> Rung {
        rung(400.0, 5.0, 0)
    }

    fn offered(c: &Climb) -> Vec<f64> {
        c.rungs.iter().map(|r| r.offered).collect()
    }

    #[test]
    fn staircase_settles_around_capacity_inside_the_coarse_bracket() {
        let c = climb(paced(), &LADDER, &LIM, capacity(1500.0));
        // Coarse 1000, 1210, 1464 pass and 1771 fails; the staircase
        // starts one fine step below it and alternates around 1500.
        assert_eq!(
            offered(&c),
            [400.0, 1000.0, 1210.0, 1464.0, 1771.0, 1610.0, 1464.0, 1610.0, 1464.0]
        );
        assert_eq!(c.staircase, 5..9);
        assert!((c.sustained - 1537.0).abs() < 1e-9);
        assert_eq!(c.first_failure(&LIM).unwrap().offered, 1771.0);
    }

    #[test]
    fn the_estimate_tracks_capacity_not_the_coarse_grid() {
        let low = climb(paced(), &LADDER, &LIM, capacity(1300.0)).sustained;
        let high = climb(paced(), &LADDER, &LIM, capacity(1400.0)).sustained;
        assert!(low < high, "{low} vs {high}");
        assert!((1210.0..1464.0).contains(&low) && (1210.0..1611.0).contains(&high));
    }

    #[test]
    fn a_failing_first_coarse_rung_goes_down_until_one_passes() {
        let c = climb(paced(), &LADDER, &LIM, capacity(700.0));
        // 1000 fails, 826 fails, 683 passes: the staircase starts at
        // 683 × 1.1.
        assert_eq!(&offered(&c)[..5], [400.0, 1000.0, 826.0, 683.0, 751.0]);
        assert!((683.0..826.0).contains(&c.sustained), "{}", c.sustained);
    }

    #[test]
    fn the_staircase_never_goes_below_the_paced_rate() {
        let c = climb(paced(), &LADDER, &LIM, capacity(300.0));
        assert!(c.rungs[1..].iter().all(|r| r.offered >= 400.0));
        assert!(c.sustained >= 400.0);
    }

    #[test]
    fn missing_deliveries_fail_a_rung_even_at_low_latency() {
        let c = climb(paced(), &LADDER, &LIM, |rate| {
            rung(rate, 5.0, u64::from(rate > 1300.0) * 3)
        });
        let first = c.first_failure(&LIM).unwrap();
        assert_eq!(first.offered, 1464.0);
        assert_eq!(
            first.failure(&LIM),
            Some("deliveries missing after the drain")
        );
        assert!((first.loss_ratio() - 0.003).abs() < 1e-12);
        let failed = c.rungs.iter().filter(|r| r.missing > 0).count() as u64;
        assert_eq!(c.lost(), 3 * failed);
    }

    #[test]
    fn a_late_generator_fails_the_rung() {
        let mut slow = rung(200.0, 5.0, 0);
        slow.achieved = 150.0;
        assert_eq!(
            slow.failure(&LIM),
            Some("generator fell behind its schedule")
        );
        let mut late = rung(200.0, 5.0, 0);
        late.lateness_p99_ms = 12.0;
        assert!(late.failure(&LIM).is_some());
    }

    #[test]
    fn a_failing_paced_phase_sustains_nothing() {
        let c = climb(rung(400.0, 99.0, 0), &LADDER, &LIM, |_| unreachable!());
        assert_eq!(c.sustained, 0.0);
        assert_eq!(c.rungs.len(), 1);
        assert_eq!(c.first_failure(&LIM).unwrap().offered, 400.0);
    }

    #[test]
    fn all_coarse_rungs_passing_sustain_the_top_one() {
        let c = climb(paced(), &LADDER, &LIM, capacity(1e9));
        assert_eq!(*offered(&c).last().unwrap(), 6726.0);
        assert_eq!(c.sustained, 6726.0);
        assert!(c.staircase.is_empty());
        assert!(c.first_failure(&LIM).is_none());
    }

    #[test]
    fn ladder_is_fixed_and_ascending() {
        let r = rates(1000.0, 1.05, 2.0);
        assert_eq!(r[..4], [1000.0, 1050.0, 1103.0, 1158.0]);
        assert!(r.windows(2).all(|w| w[1] > w[0]));
        assert!(*r.last().unwrap() <= 2000.0);
        assert_eq!(r, rates(1000.0, 1.05, 2.0));
    }

    #[test]
    fn nan_latency_fails() {
        assert!(rung(100.0, f64::NAN, 0).failure(&LIM).is_some());
    }
}
