//! A hashed timer wheel over member-local deadlines.
//!
//! The runtime does not use it: rounds are synchronous, so every live
//! member of a worker falls due at once, and a worker keeps one round
//! count anchored at the cluster's epoch instead (see
//! [`multiplex`](crate::multiplex)). Only the benchmark package reads
//! this module, for its `timer.schedule_pop_ns` metric; the module goes
//! when that metric does.
//!
//! The wheel is deliberately simple: `SLOTS` buckets of `tick`-sized
//! granularity, entries carry their absolute tick index so a slot can
//! hold timers several laps apart without confusion. All operations are
//! O(1) amortized; the wheel never allocates after the first lap at a
//! given load (slot `Vec`s are drained in place and reused).

use std::time::{Duration, Instant};

/// A deadline wheel over member-local timers.
#[derive(Debug)]
pub struct TimerWheel {
    /// Anchor: tick 0 is `epoch`; all deadlines are quantized against it.
    epoch: Instant,
    /// Slot granularity.
    tick: Duration,
    /// `slots[i]` holds entries whose `abs_tick % slots.len() == i`.
    slots: Vec<Vec<Entry>>,
    /// The next absolute tick the wheel will inspect.
    cursor: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    abs_tick: u64,
    member: u32,
}

impl TimerWheel {
    /// A wheel anchored at `epoch` with `slots` buckets of `tick`
    /// granularity. `slots` is rounded up to a power of two so the slot
    /// index is a mask, and `tick` is floored at 100µs to keep the
    /// quantization sane.
    pub fn new(epoch: Instant, tick: Duration, slots: usize) -> Self {
        let tick = tick.max(Duration::from_micros(100));
        let slots = slots.max(8).next_power_of_two();
        TimerWheel {
            epoch,
            tick,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            cursor: 0,
        }
    }

    /// Absolute tick index of a deadline (saturating below the epoch).
    fn tick_of(&self, deadline: Instant) -> u64 {
        let dt = deadline.saturating_duration_since(self.epoch);
        // Integer division by the tick length; u128 arithmetic so huge
        // deadlines cannot overflow.
        (dt.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Schedule `member`'s timer at `deadline`. A deadline already in
    /// the past lands on the cursor and pops on the next advance —
    /// timers never silently vanish behind the wheel.
    pub fn schedule(&mut self, deadline: Instant, member: u32) {
        let abs_tick = self.tick_of(deadline).max(self.cursor);
        let mask = self.slots.len() as u64 - 1;
        self.slots[(abs_tick & mask) as usize].push(Entry { abs_tick, member });
    }

    /// Advance the wheel to `now`, appending every due member to `out`
    /// in slot order. Within a slot a pop swaps the slot's last entry
    /// into the popped one's place, so entries `e0, e1, …, e_last` due
    /// together pop as `e0, e_last, …, e1`. Returns the number popped.
    pub fn pop_due(&mut self, now: Instant, out: &mut Vec<u32>) -> usize {
        let target = self.tick_of(now);
        let mask = self.slots.len() as u64 - 1;
        let mut popped = 0;
        // Inspect at most one full lap: past `target` and past one lap
        // there is nothing more to find this call.
        let span = (target.saturating_sub(self.cursor) + 1).min(self.slots.len() as u64);
        for step in 0..span {
            let tick = self.cursor + step;
            let slot = &mut self.slots[(tick & mask) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].abs_tick <= target {
                    out.push(slot.swap_remove(i).member);
                    popped += 1;
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = target + 1;
        popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel(tick_ms: u64) -> (TimerWheel, Instant) {
        let epoch = Instant::now();
        (
            TimerWheel::new(epoch, Duration::from_millis(tick_ms), 16),
            epoch,
        )
    }

    #[test]
    fn due_timers_pop_in_order() {
        let (mut w, epoch) = wheel(1);
        w.schedule(epoch + Duration::from_millis(5), 1);
        w.schedule(epoch + Duration::from_millis(2), 2);
        w.schedule(epoch + Duration::from_millis(9), 3);
        let mut due = Vec::new();
        w.pop_due(epoch + Duration::from_millis(3), &mut due);
        assert_eq!(due, vec![2]);
        w.pop_due(epoch + Duration::from_millis(20), &mut due);
        assert_eq!(due, vec![2, 1, 3]);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let (mut w, epoch) = wheel(1);
        let mut due = Vec::new();
        w.pop_due(epoch + Duration::from_millis(50), &mut due); // move cursor forward
        w.schedule(epoch + Duration::from_millis(10), 7); // already past
        w.pop_due(epoch + Duration::from_millis(51), &mut due);
        assert_eq!(due, vec![7]);
    }

    #[test]
    fn laps_do_not_collide() {
        // Two timers one full wheel lap apart share a slot; only the
        // near one pops.
        let (mut w, epoch) = wheel(1);
        w.schedule(epoch + Duration::from_millis(3), 1);
        w.schedule(epoch + Duration::from_millis(3 + 16), 2);
        let mut due = Vec::new();
        w.pop_due(epoch + Duration::from_millis(4), &mut due);
        assert_eq!(due, vec![1]);
        w.pop_due(epoch + Duration::from_millis(30), &mut due);
        assert_eq!(due, vec![1, 2]);
    }

    #[test]
    fn repeated_schedule_reuses_slots() {
        let (mut w, epoch) = wheel(1);
        let mut due = Vec::new();
        for lap in 0..100u64 {
            for m in 0..8 {
                w.schedule(epoch + Duration::from_millis(lap + 1), m);
            }
            due.clear();
            w.pop_due(epoch + Duration::from_millis(lap + 1), &mut due);
            assert_eq!(due.len(), 8, "lap {lap}");
        }
    }
}
