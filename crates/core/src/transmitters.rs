//! The transmitter role rules, written once for both drivers: *when* a
//! slot of a plan ([`ChannelLayout::transmitters`](crate::config::ChannelLayout::transmitters))
//! asks its shard for more, and with which scheduler call. What a slot has
//! on the air stays each driver's own type.

use hybridcast_sim::time::SimTime;

use crate::config::Role;
use crate::hybrid::{HybridScheduler, Transmission};
use crate::queue::PendingItem;

/// `role`'s scheduler call, with the queue entries bandwidth admission
/// dropped on the way (none for `Push`, which never reads the queue).
pub(crate) fn next(
    role: Role,
    scheduler: &mut HybridScheduler,
    now: SimTime,
) -> (Option<Transmission>, Vec<PendingItem>) {
    match role {
        Role::Hybrid(_) => scheduler.next_transmission(now),
        Role::Push(_) => (scheduler.next_push_transmission(now), Vec::new()),
        Role::Pull(_) => scheduler.next_pull_transmission(now),
    }
}

/// A driver of a transmitter plan; `Cx` is what a dispatch threads
/// through (the simulator's event engine, the channel core's outbox).
pub(crate) trait Transmitters<Cx> {
    /// The plan: slot `i` airs for `roles()[i]`.
    fn roles(&self) -> &[Role];

    /// `true` while `slot` has nothing on the air.
    fn idle(&self, slot: usize) -> bool;

    /// Whether `shard`'s pull queue holds work, and whether anyone listens
    /// to its push cycle (always, in the simulator).
    fn demand(&self, shard: u32) -> (bool, bool);

    /// Makes `role`'s call ([`next`]) for the idle `slot`, books what it
    /// dropped and puts the result on the air; `false` if nothing airs.
    fn air(&mut self, cx: &mut Cx, now: SimTime, slot: usize, role: Role) -> bool;

    /// Dispatches the idle `slot` while its role's demand lasts: a `Pull`
    /// slot's is queued work, a `Push` slot's a listener, a `Hybrid`
    /// slot's either. `false` when nothing went on the air.
    fn fill(&mut self, cx: &mut Cx, now: SimTime, slot: usize) -> bool {
        let role = self.roles()[slot];
        let (queued, listened) = self.demand(role.shard());
        let open = match role {
            Role::Hybrid(_) => queued || listened,
            Role::Push(_) => listened,
            Role::Pull(_) => queued,
        };
        open && self.air(cx, now, slot, role)
    }

    /// Work became available on `shard`: fill its idle slots in slot order.
    /// The first `Pull` slot that gets nothing ends the kick (every later
    /// slot of the shard pulls from the same queue).
    fn kick(&mut self, cx: &mut Cx, now: SimTime, shard: u32) {
        let first = self.roles().partition_point(|r| r.shard() < shard);
        for slot in first..self.roles().len() {
            let role = self.roles()[slot];
            if role.shard() != shard
                || (self.idle(slot) && !self.fill(cx, now, slot) && matches!(role, Role::Pull(_)))
            {
                break;
            }
        }
    }

    /// `slot`'s transmission completed: a `Push` slot keeps broadcasting,
    /// any other slot kicks its shard.
    fn completed(&mut self, cx: &mut Cx, now: SimTime, slot: usize) {
        match self.roles()[slot] {
            Role::Push(_) => _ = self.fill(cx, now, slot),
            role => self.kick(cx, now, role.shard()),
        }
    }

    /// The downlink boots at t = 0: every shard is kicked, in shard order.
    fn boot(&mut self, cx: &mut Cx) {
        for shard in 0..self.roles().last().map_or(0, |r| r.shard() + 1) {
            self.kick(cx, SimTime::ZERO, shard);
        }
    }

    /// The push set moved: every idle `Push` slot is dispatched again, so a
    /// broadcast an empty push set stopped restarts now, not at a kick.
    fn push_set_moved(&mut self, cx: &mut Cx, now: SimTime) {
        for slot in 0..self.roles().len() {
            if matches!(self.roles()[slot], Role::Push(_)) && self.idle(slot) {
                self.fill(cx, now, slot);
            }
        }
    }
}
