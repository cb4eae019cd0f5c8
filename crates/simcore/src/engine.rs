//! The event loop.
//!
//! An [`Engine`] owns a [`World`] (all simulation state) and the event
//! queue. The world's `handle` reacts to one event at a time and may
//! schedule further events. This inversion keeps borrows simple: handlers
//! get `&mut World` and `&mut EventQueue` but never the engine itself.

use crate::event::EventQueue;
use crate::time::Cycles;

/// Simulation state machine: receives events, mutates itself, schedules more.
pub trait World {
    /// The event payload type dispatched by this world.
    type Event: Eq;

    /// React to `ev` occurring at `now`. New events go into `q`.
    fn handle(&mut self, now: Cycles, ev: Self::Event, q: &mut EventQueue<Self::Event>);
}

/// Outcome of an engine run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway-simulation guard).
    BudgetExhausted,
}

/// Drives a [`World`] through simulated time.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: Cycles,
    events_processed: u64,
}

impl<W: World> Engine<W> {
    /// Wrap `world` with an empty queue at time zero.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: Cycles::ZERO,
            events_processed: 0,
        }
    }

    /// Current simulated time (time of the most recently handled event).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Total events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and result extraction).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Mutable access to the queue (for seeding initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Run until the queue drains, `horizon` is passed, or `max_events`
    /// events have been processed, whichever comes first.
    pub fn run(&mut self, horizon: Cycles, max_events: u64) -> RunOutcome {
        let mut budget = max_events;
        loop {
            if budget == 0 {
                return RunOutcome::BudgetExhausted;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > horizon => return RunOutcome::HorizonReached,
                Some(_) => {}
            }
            let (t, ev) = self.queue.pop().expect("peeked event vanished");
            self.now = t;
            self.world.handle(t, ev, &mut self.queue);
            self.events_processed += 1;
            budget -= 1;
        }
    }

    /// Run with no horizon and a generous default budget (useful in tests).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(Cycles::MAX, u64::MAX)
    }

    /// Consume the engine and return the world (for result extraction).
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: event `n` schedules `n-1` one cycle later.
    struct Countdown {
        fired: Vec<(Cycles, u32)>,
    }

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, now: Cycles, ev: u32, q: &mut EventQueue<u32>) {
            self.fired.push((now, ev));
            if ev > 0 {
                q.schedule_after(now, Cycles(1), ev - 1);
            }
        }
    }

    #[test]
    fn runs_chained_events_to_drain() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.queue_mut().schedule(Cycles(10), 3);
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        assert_eq!(
            eng.world().fired,
            vec![
                (Cycles(10), 3),
                (Cycles(11), 2),
                (Cycles(12), 1),
                (Cycles(13), 0)
            ]
        );
        assert_eq!(eng.events_processed(), 4);
        assert_eq!(eng.now(), Cycles(13));
    }

    #[test]
    fn horizon_stops_early_without_consuming() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.queue_mut().schedule(Cycles(10), 5);
        assert_eq!(eng.run(Cycles(12), u64::MAX), RunOutcome::HorizonReached);
        // Events at 10, 11, 12 fired; 13 still pending.
        assert_eq!(eng.world().fired.len(), 3);
        assert_eq!(eng.run(Cycles::MAX, u64::MAX), RunOutcome::Drained);
        assert_eq!(eng.world().fired.len(), 6);
    }

    #[test]
    fn budget_guard_trips() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.queue_mut().schedule(Cycles(0), 1_000_000);
        assert_eq!(eng.run(Cycles::MAX, 10), RunOutcome::BudgetExhausted);
        assert_eq!(eng.events_processed(), 10);
    }
}
