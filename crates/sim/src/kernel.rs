//! The cycle-stepping driver loops.

use crate::clock::Clock;
use crate::component::{Component, SimCtx};
use crate::phase::SimPhase;
use flumen_units::Cycles;

/// How a kernel loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Cycles elapsed when the loop exited (the clock's final time).
    pub cycles: Cycles,
    /// `true` when the cycle cap fired before the component quiesced. A
    /// truncated run's statistics describe an unfinished execution and
    /// must be flagged as such, never silently reported.
    pub truncated: bool,
}

/// Steps `c` until it reports [`Component::done`] or `max_cycles` elapses.
///
/// The legacy `while !finished && cycle < max` loop, with two changes.
/// The caller learns *why* it stopped. And cycles before
/// [`Component::next_activity`] are replayed in one
/// [`Component::advance_idle`] call instead of one `step` each, which
/// gives the same state as stepping them.
pub fn run_until<C: Component>(
    c: &mut C,
    ctx: &mut SimCtx,
    clock: &mut Clock,
    max_cycles: Cycles,
) -> RunOutcome {
    while !c.done(clock.now()) {
        let now = clock.now();
        if now >= max_cycles {
            return RunOutcome {
                cycles: now,
                truncated: true,
            };
        }
        let next = c.next_activity(now).min(max_cycles);
        if next > now {
            let k = (next - now).value();
            c.advance_idle(now, k, ctx);
            clock.advance(k);
            continue;
        }
        c.step(now, ctx);
        clock.tick();
    }
    RunOutcome {
        cycles: clock.now(),
        truncated: false,
    }
}

/// Steps `c` for exactly `cycles` cycles, ignoring quiescence — the shape
/// of fixed-length warmup and measurement windows.
pub fn run_for<C: Component>(c: &mut C, ctx: &mut SimCtx, clock: &mut Clock, cycles: Cycles) {
    let end = clock.now() + cycles;
    while clock.now() < end {
        c.step(clock.now(), ctx);
        clock.tick();
    }
}

/// Runs one named phase: [`SimPhase::Warmup`] and [`SimPhase::Measure`]
/// are fixed windows of `limit` cycles; [`SimPhase::Drain`] runs to
/// quiescence with `limit` as a safety cap.
pub fn run_phase<C: Component>(
    phase: SimPhase,
    c: &mut C,
    ctx: &mut SimCtx,
    clock: &mut Clock,
    limit: Cycles,
) -> RunOutcome {
    match phase {
        SimPhase::Warmup | SimPhase::Measure => {
            run_for(c, ctx, clock, limit);
            RunOutcome {
                cycles: clock.now(),
                truncated: false,
            }
        }
        SimPhase::Drain => run_until(c, ctx, clock, clock.now() + limit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Countdown {
        remaining: u64,
        steps: u64,
    }

    impl Component for Countdown {
        fn step(&mut self, _now: Cycles, _ctx: &mut SimCtx) {
            if self.remaining > 0 {
                self.remaining -= 1;
            }
            self.steps += 1;
        }

        fn done(&self, _now: Cycles) -> bool {
            self.remaining == 0
        }
    }

    /// Acts on multiples of `period` until `remaining` acts are done;
    /// counts every cycle it passes, stepped or skipped.
    struct Periodic {
        period: u64,
        remaining: u64,
        steps: u64,
        cycles: u64,
    }

    impl Component for Periodic {
        fn step(&mut self, now: Cycles, _ctx: &mut SimCtx) {
            if now.value().is_multiple_of(self.period) && self.remaining > 0 {
                self.remaining -= 1;
            }
            self.steps += 1;
            self.cycles += 1;
        }

        fn done(&self, _now: Cycles) -> bool {
            self.remaining == 0
        }

        fn next_activity(&self, now: Cycles) -> Cycles {
            Cycles::new(now.value().div_ceil(self.period) * self.period)
        }

        fn advance_idle(&mut self, _now: Cycles, k: u64, _ctx: &mut SimCtx) {
            self.cycles += k;
        }
    }

    #[test]
    fn run_until_skips_idle_cycles() {
        let periodic = || Periodic {
            period: 10,
            remaining: 5,
            steps: 0,
            cycles: 0,
        };
        let mut c = periodic();
        let mut clock = Clock::at(Cycles::new(3));
        let out = run_until(&mut c, &mut SimCtx::new(0), &mut clock, Cycles::new(1000));
        // Acts at 10, 20, 30, 40 and 50; quiesces after the last.
        assert_eq!(out.cycles, Cycles::new(51));
        assert!(!out.truncated);
        assert_eq!(c.steps, 5);
        assert_eq!(c.cycles, 48);

        // The cap is a stop too: a skip never jumps past it.
        let mut c = periodic();
        let mut clock = Clock::new();
        let out = run_until(&mut c, &mut SimCtx::new(0), &mut clock, Cycles::new(25));
        assert!(out.truncated);
        assert_eq!(out.cycles, Cycles::new(25));
        assert_eq!((c.steps, c.cycles, c.remaining), (3, 25, 2));
    }

    #[test]
    fn run_until_stops_at_quiescence() {
        let mut c = Countdown {
            remaining: 10,
            steps: 0,
        };
        let mut ctx = SimCtx::new(0);
        let mut clock = Clock::new();
        let out = run_until(&mut c, &mut ctx, &mut clock, Cycles::new(1000));
        assert_eq!(out.cycles, Cycles::new(10));
        assert!(!out.truncated);
        assert_eq!(c.steps, 10);
    }

    #[test]
    fn run_until_reports_truncation() {
        let mut c = Countdown {
            remaining: 10,
            steps: 0,
        };
        let mut ctx = SimCtx::new(0);
        let mut clock = Clock::new();
        let out = run_until(&mut c, &mut ctx, &mut clock, Cycles::new(4));
        assert!(out.truncated);
        assert_eq!(out.cycles, Cycles::new(4));
        assert_eq!(c.steps, 4);
    }

    #[test]
    fn phases_compose_on_one_clock() {
        let mut c = Countdown {
            remaining: 30,
            steps: 0,
        };
        let mut ctx = SimCtx::new(0);
        let mut clock = Clock::new();
        run_phase(
            SimPhase::Warmup,
            &mut c,
            &mut ctx,
            &mut clock,
            Cycles::new(8),
        );
        assert_eq!(clock.now(), Cycles::new(8));
        run_phase(
            SimPhase::Measure,
            &mut c,
            &mut ctx,
            &mut clock,
            Cycles::new(12),
        );
        assert_eq!(clock.now(), Cycles::new(12 + 8));
        let out = run_phase(
            SimPhase::Drain,
            &mut c,
            &mut ctx,
            &mut clock,
            Cycles::new(100),
        );
        assert!(!out.truncated);
        assert_eq!(c.steps, 30);
        assert_eq!(clock.now(), Cycles::new(30));
    }
}
