//! Registered handshake FIFO.
//!
//! [`Fifo`] mimics an RTL FIFO whose `ready`/occupancy is registered:
//!
//! * a `push` performed during cycle *k* is visible to `pop` from cycle
//!   *k + 1* on (one register stage of latency);
//! * [`Fifo::can_push`] compares against the occupancy at the *start* of the
//!   cycle, so space freed by a `pop` in the same cycle cannot be reused
//!   until the next cycle.
//!
//! Both rules together make simulation outcomes independent of the order in
//! which producer and consumer components are ticked within a cycle, which
//! is what keeps the whole-system simulation deterministic without a global
//! event scheduler. The price is that a capacity-1 FIFO sustains only one
//! item every two cycles; use capacity ≥ 2 for full-rate links (exactly like
//! a two-deep skid buffer in RTL).
//!
//! # Storage and commit
//!
//! One ring holds the visible items followed by the items staged this
//! cycle; two counters split it: how many items at the front are visible,
//! and how many were visible when the cycle began. `pop` takes from the
//! front of the visible part and `push` appends behind the staged part, so
//! the register stage, [`Fifo::commit`], moves no item: it only makes the
//! whole ring visible and re-registers the occupancy. Because a cycle's
//! pops and pushes show in those counters, `commit` also reports whether
//! the FIFO changed this cycle — `true` exactly when something was pushed
//! or popped since the last commit. A FIFO that nothing touched commits
//! as a no-op, so a run loop may skip committing it without changing any
//! later cycle.

use std::collections::VecDeque;

/// A registered, bounded, handshake-style queue.
///
/// See the [module documentation](self) for the timing semantics.
///
/// # Examples
///
/// ```
/// use simkit::Fifo;
///
/// let mut link: Fifo<&str> = Fifo::new(2);
/// link.push("beat0");
/// link.end_cycle();
/// link.push("beat1");
/// assert_eq!(link.pop(), Some("beat0"));
/// link.end_cycle();
/// assert_eq!(link.pop(), Some("beat1"));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    /// The visible items, oldest first, followed by this cycle's pushes.
    ring: VecDeque<T>,
    /// Items at the front of `ring` that `pop` may take this cycle.
    visible: usize,
    /// Occupancy captured at the start of the current cycle.
    len_at_cycle_start: usize,
    capacity: usize,
    /// Lifetime statistics.
    total_pushed: u64,
    total_popped: u64,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be at least 1");
        Fifo {
            // Visible plus staged items never exceed the capacity, so
            // pre-sizing means a FIFO never reallocates after construction.
            ring: VecDeque::with_capacity(capacity),
            visible: 0,
            len_at_cycle_start: 0,
            capacity,
            total_pushed: 0,
            total_popped: 0,
        }
    }

    // simcheck: hot-path begin -- per-cycle handshake methods; the ring
    // is pre-sized in `new` and must never reallocate.

    /// Returns `true` if a `push` this cycle would be accepted.
    ///
    /// Evaluated against the occupancy at the start of the cycle plus any
    /// pushes already performed this cycle.
    #[inline]
    pub fn can_push(&self) -> bool {
        self.len_at_cycle_start + self.staged_len() < self.capacity
    }

    /// Returns how many more items can be pushed this cycle.
    #[inline]
    pub fn push_slots(&self) -> usize {
        self.capacity
            .saturating_sub(self.len_at_cycle_start + self.staged_len())
    }

    /// Items pushed this cycle.
    #[inline]
    fn staged_len(&self) -> usize {
        self.ring.len() - self.visible
    }

    /// Enqueues an item; it becomes visible to `pop` next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO cannot accept an item this cycle
    /// (check [`Fifo::can_push`] first).
    #[inline]
    pub fn push(&mut self, item: T) {
        assert!(self.can_push(), "push into full fifo");
        self.ring.push_back(item);
        self.total_pushed += 1;
    }

    /// Returns a reference to the oldest visible item without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        if self.visible == 0 {
            return None;
        }
        self.ring.front()
    }

    /// Returns `true` if an item is available to `pop` this cycle.
    #[inline]
    pub fn can_pop(&self) -> bool {
        self.visible != 0
    }

    /// Dequeues the oldest visible item, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.visible == 0 {
            return None;
        }
        self.visible -= 1;
        self.total_popped += 1;
        self.ring.pop_front()
    }

    /// Commits this cycle's pushes and re-registers the occupancy, and
    /// reports whether the FIFO changed: `true` exactly when an item was
    /// pushed or popped since the previous commit.
    ///
    /// Call it once per simulated cycle, after all component ticks. A
    /// commit that would return `false` changes nothing, so a caller that
    /// knows nothing touched the FIFO this cycle may leave it out.
    #[inline]
    pub fn commit(&mut self) -> bool {
        let len = self.ring.len();
        let changed = len != self.visible || self.visible != self.len_at_cycle_start;
        debug_assert!(
            len <= self.capacity,
            "fifo overflow: {len} > {}",
            self.capacity
        );
        self.visible = len;
        self.len_at_cycle_start = len;
        changed
    }

    /// Commits this cycle's pushes and re-registers the occupancy, like
    /// [`Fifo::commit`] without the change report.
    ///
    /// Must be called exactly once per simulated cycle, after all component
    /// ticks.
    #[inline]
    pub fn end_cycle(&mut self) {
        self.commit();
    }

    // simcheck: hot-path end

    /// Number of items currently visible to `pop`.
    #[inline]
    pub fn len(&self) -> usize {
        self.visible
    }

    /// Returns `true` if no items are visible *and* none are staged.
    ///
    /// This is the "completely drained" check used to detect the end of a
    /// simulation, not the per-cycle `can_pop` handshake.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Maximum number of items the FIFO can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of items ever pushed.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Total number of items ever popped.
    #[inline]
    pub fn total_popped(&self) -> u64 {
        self.total_popped
    }

    /// Iterates over the items currently visible to `pop`, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.range(..self.visible)
    }

    /// Wake status for the event-driven scheduler.
    ///
    /// A FIFO is [`crate::sched::Wake::Ready`] whenever it holds *any* item
    /// — visible or staged — because staged items still need an
    /// [`Fifo::commit`] to promote them, which a skipped cycle would
    /// omit. A fully drained FIFO only changes state on external pushes, so
    /// it reports [`crate::sched::Wake::Idle`] (the wake condition is "FIFO
    /// became non-empty").
    #[inline]
    pub fn wake(&self) -> crate::sched::Wake {
        if self.is_empty() {
            crate::sched::Wake::Idle
        } else {
            crate::sched::Wake::Ready
        }
    }

    /// Iterates over the items pushed *this* cycle (not yet visible to
    /// `pop`), oldest first.
    ///
    /// This is the observation point for protocol monitors: every item
    /// pushed into the FIFO appears in exactly one cycle's staged set, so
    /// observing the staged items immediately before [`Fifo::end_cycle`]
    /// sees each accepted handshake exactly once, in order, without
    /// perturbing the simulation.
    pub fn staged(&self) -> impl Iterator<Item = &T> {
        self.ring.range(self.visible..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_not_visible_same_cycle() {
        let mut f: Fifo<u8> = Fifo::new(4);
        f.push(1);
        assert!(!f.can_pop());
        assert_eq!(f.pop(), None);
        f.end_cycle();
        assert!(f.can_pop());
        assert_eq!(f.pop(), Some(1));
    }

    #[test]
    fn capacity_counts_staged_items() {
        let mut f: Fifo<u8> = Fifo::new(2);
        f.push(1);
        f.push(2);
        assert!(!f.can_push());
        f.end_cycle();
        assert!(!f.can_push());
    }

    #[test]
    fn pop_does_not_free_space_same_cycle() {
        let mut f: Fifo<u8> = Fifo::new(1);
        f.push(1);
        f.end_cycle();
        assert_eq!(f.pop(), Some(1));
        // Space is freed only at the next end_cycle.
        assert!(!f.can_push());
        f.end_cycle();
        assert!(f.can_push());
    }

    #[test]
    fn capacity_two_sustains_full_rate() {
        let mut f: Fifo<u32> = Fifo::new(2);
        let mut received = Vec::new();
        let mut next = 0u32;
        for _ in 0..100 {
            // Consumer and producer in the same cycle, any order.
            if let Some(v) = f.pop() {
                received.push(v);
            }
            if f.can_push() {
                f.push(next);
                next += 1;
            }
            f.end_cycle();
        }
        // After warm-up, one item per cycle flows through.
        assert!(received.len() >= 98);
        for (i, v) in received.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    }

    #[test]
    fn fifo_preserves_order() {
        let mut f: Fifo<u32> = Fifo::new(8);
        for i in 0..5 {
            f.push(i);
        }
        f.end_cycle();
        for i in 0..5 {
            assert_eq!(f.pop(), Some(i));
        }
    }

    #[test]
    fn statistics_track_traffic() {
        let mut f: Fifo<u8> = Fifo::new(4);
        f.push(1);
        f.push(2);
        f.end_cycle();
        f.pop();
        assert_eq!(f.total_pushed(), 2);
        assert_eq!(f.total_popped(), 1);
    }

    #[test]
    #[should_panic(expected = "push into full fifo")]
    fn push_into_full_panics() {
        let mut f: Fifo<u8> = Fifo::new(1);
        f.push(1);
        f.push(2);
    }

    #[test]
    fn staged_sees_each_item_exactly_once() {
        let mut f: Fifo<u8> = Fifo::new(4);
        let mut observed = Vec::new();
        f.push(1);
        f.push(2);
        observed.extend(f.staged().copied());
        f.end_cycle();
        assert!(f.staged().next().is_none(), "promoted items left staging");
        f.push(3);
        observed.extend(f.staged().copied());
        f.end_cycle();
        assert_eq!(observed, vec![1, 2, 3]);
    }

    #[test]
    fn push_slots_reports_remaining() {
        let mut f: Fifo<u8> = Fifo::new(3);
        assert_eq!(f.push_slots(), 3);
        f.push(1);
        assert_eq!(f.push_slots(), 2);
        f.end_cycle();
        assert_eq!(f.push_slots(), 2);
    }

    #[test]
    fn commit_reports_pushes_and_pops() {
        let mut f: Fifo<u8> = Fifo::new(2);
        assert!(!f.commit(), "an untouched fifo does not change");
        f.push(1);
        assert!(f.commit());
        assert!(!f.commit());
        assert_eq!(f.pop(), Some(1));
        assert!(f.commit(), "a pop is a change");
        assert!(!f.commit());
    }

    #[test]
    fn is_empty_sees_staged() {
        let mut f: Fifo<u8> = Fifo::new(2);
        assert!(f.is_empty());
        f.push(1);
        assert!(!f.is_empty());
        f.end_cycle();
        f.pop();
        f.end_cycle();
        assert!(f.is_empty());
    }
}
