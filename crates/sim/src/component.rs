//! The typed component interface the kernel drives.

use crate::rng::SimRng;
use flumen_trace::TraceHandle;
use flumen_units::Cycles;

/// Shared per-step services: the deterministic random stream and the trace
/// sink. Threading these through the kernel (rather than storing them in
/// every simulated struct) is what lets a snapshot capture *all* run state
/// in one place.
#[derive(Debug)]
pub struct SimCtx {
    /// The run's random stream. Components must draw from this — never
    /// from ambient OS entropy — so runs replay bit-identically.
    pub rng: SimRng,
    /// The trace sink; disabled by default, free when disabled.
    pub tracer: TraceHandle,
}

impl SimCtx {
    /// A context with a seeded stream and tracing disabled.
    pub fn new(seed: u64) -> Self {
        SimCtx {
            rng: SimRng::seed_from_u64(seed),
            tracer: TraceHandle::disabled(),
        }
    }

    /// Installs a trace sink.
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = tracer;
        self
    }
}

/// One simulated subsystem advancing on the shared clock.
///
/// The kernel calls [`Component::step`] once per cycle with the current
/// time, except across cycles the component declares idle through
/// [`Component::next_activity`]: those it replays in one
/// [`Component::advance_idle`] call. A composed system (e.g. the
/// full-system engine wrapping cores, caches, a network, and the MZIM
/// control unit) implements this on its top-level struct and fans the
/// calls out internally, preserving its intra-cycle ordering.
pub trait Component {
    /// Advances the component through cycle `now`.
    fn step(&mut self, now: Cycles, ctx: &mut SimCtx);

    /// The earliest cycle `>= now` whose `step` may do more than
    /// [`Component::advance_idle`] replays. The default, `now`, says the
    /// component may act on every cycle, so it is never skipped.
    fn next_activity(&self, now: Cycles) -> Cycles {
        now
    }

    /// Replays the `k` cycles from `now` on, all before
    /// [`Component::next_activity`]; the state afterwards must equal that
    /// of `k` calls to `step`. The default makes exactly those calls.
    fn advance_idle(&mut self, now: Cycles, k: u64, ctx: &mut SimCtx) {
        for i in 0..k {
            self.step(now + Cycles::new(i), ctx);
        }
    }

    /// Whether the component has quiesced (no queued or in-flight work).
    /// Open-ended components (e.g. synthetic traffic drivers) never
    /// quiesce and keep the default.
    fn done(&self, _now: Cycles) -> bool {
        false
    }
}
