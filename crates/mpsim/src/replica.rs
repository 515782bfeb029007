//! Replicated derivations, run once per host and held once per host.
//!
//! After a reduction every member of a communicator holds the same
//! inputs and derives the same values from them: P-AutoClass's class
//! parameters and scores after the statistics allreduce. The simulator
//! runs every member on one host thread, so it need not pay for that
//! derivation, or for its result, once per member. Through
//! [`SpmdComm::derive_replicated`](crate::SpmdComm::derive_replicated),
//! each member holds its result behind an [`Arc`]. The first member of a
//! communicator to arrive derives (through [`Arc::make_mut`]) and the
//! store keeps a second handle to its result, keyed by the exact bits of
//! the inputs; every later member whose inputs match that key word for
//! word takes a handle to the same value instead of deriving, so all of
//! them share one copy. A member whose inputs differ derives for itself,
//! so a hit never rests on the members being replicated: the derivation
//! is a pure function of the keyed bits.
//!
//! A kept handle sits in one slot per communicator and is dropped once
//! all of the communicator's members have called, so the store holds at
//! most one entry per communicator in flight, and the whole store goes
//! with the run. A shared value lives until its last holder replaces it;
//! a holder that changes it in place calls [`Arc::make_mut`], which copies
//! it only while others still share it.
//!
//! A deriving member's own handle is usually shared: it points at the
//! communicator's previous result. So that it need not copy that value
//! only to overwrite it, the store keeps the values deriving members
//! retire as spares. A member that derives takes a spare of its type that
//! nobody else holds any longer (every member has moved on to a newer
//! result), derives into it, and leaves its retired handle as a spare in
//! turn. In steady state a communicator's derivations alternate between
//! two values, and none copies. A derivation overwrites its result whole,
//! being a pure function of the keyed bits, so which spare it lands in
//! cannot show. The spares cost one value per communicator deriving at
//! a time, and go with the store.
//!
//! The same host thread also lends one scratch value per type (`Scratch`,
//! behind [`SpmdComm::with_scratch`](crate::SpmdComm::with_scratch)): storage
//! that a member needs only inside one call that cannot suspend, such as
//! the E-step's tile buffers, is held once per host instead of once per
//! member, and goes with the run.

use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard};

/// The exact bits a replicated derivation reads, fed piece by piece by
/// the caller's key function (see
/// [`SpmdComm::derive_replicated`](crate::SpmdComm::derive_replicated)).
pub struct ReplicaKey<'a>(Mode<'a>);

enum Mode<'a> {
    /// Write the words of a new entry's key.
    Record(&'a mut Vec<u64>),
    /// Compare with a kept entry's key; `same` stays true while every
    /// word fed so far matched.
    Match { kept: &'a [u64], at: usize, same: bool },
}

impl ReplicaKey<'_> {
    /// Feed one 64-bit word: a count, a tag, or a float's bits.
    pub fn word(&mut self, w: u64) {
        match &mut self.0 {
            Mode::Record(key) => key.push(w),
            Mode::Match { kept, at, same } => {
                *same = *same && kept.get(*at) == Some(&w);
                *at += 1;
            }
        }
    }

    /// Feed a slice of floats by their bit patterns, after its length, so
    /// that two different sequences of slices never feed the same words.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        match &mut self.0 {
            Mode::Record(key) => key.extend(xs.iter().map(|x| x.to_bits())),
            Mode::Match { kept, at, same } => {
                let end = *at + xs.len();
                // No early exit: a hit, the common case, reads every word
                // anyway, and the folded form vectorizes.
                *same = *same
                    && kept.get(*at..end).is_some_and(|k| {
                        k.iter().zip(xs).fold(0, |d, (a, b)| d | (a ^ b.to_bits())) == 0
                    });
                *at = end;
            }
        }
    }
}

/// Whether `key` feeds exactly the words `kept`.
fn matches(kept: &[u64], key: &impl Fn(&mut ReplicaKey<'_>)) -> bool {
    let mut k = ReplicaKey(Mode::Match { kept, at: 0, same: true });
    key(&mut k);
    match k.0 {
        Mode::Match { at, same, .. } => same && at == kept.len(),
        Mode::Record(_) => unreachable!("a match key stays in match mode"),
    }
}

/// What a run's replicated derivations did (see
/// [`crate::SpmdOutput::replicas`]). All zero when no member went through
/// the store: a run that checks replication derives on every member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Derivations whose result was kept for the other members.
    pub kept: u64,
    /// Calls that took a handle to a kept result instead of deriving.
    pub shared: u64,
    /// Kept results still in the store when the run ended: some member
    /// never came for them (it failed first). Zero after a fault-free run.
    pub left: usize,
}

/// A kept result, in its communicator's slot.
struct Entry {
    comm: u64,
    /// The words the deriving member's key fed.
    key: Vec<u64>,
    /// Members still to call.
    left: usize,
    /// A handle to the deriving member's result.
    value: Arc<dyn Any + Send + Sync>,
}

#[derive(Default)]
struct Store {
    entries: Vec<Entry>,
    /// Values deriving members retired, to derive into once nobody else
    /// holds them. About one per communicator deriving at a time.
    spares: Vec<Arc<dyn Any + Send + Sync>>,
    kept: u64,
    shared: u64,
}

impl Store {
    /// Point `out`, a handle others share, at a spare of its type that
    /// nobody else holds, if there is one, and keep `out`'s value as a
    /// spare: deriving into `out` then copies nothing.
    fn swap_in_spare<T: Send + Sync + 'static>(&mut self, out: &mut Arc<T>) {
        let free = self.spares.iter().position(|v| Arc::strong_count(v) == 1 && v.is::<T>());
        let retired = Arc::clone(out);
        if let Some(i) = free {
            if let Ok(spare) = self.spares.swap_remove(i).downcast::<T>() {
                *out = spare;
            }
        }
        self.spares.push(retired);
    }
}

/// The store of one cooperative run.
#[derive(Default)]
pub(crate) struct Replicas {
    store: Mutex<Store>,
}

impl Replicas {
    /// Members run one at a time and never block inside the store, so a
    /// poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One member of communicator `comm` (`size` members, at least two)
    /// calls for the derivation `key` names: point `out` at the kept
    /// result if the communicator's slot holds one with this key, else
    /// derive into `out` (through [`Arc::make_mut`], after swapping a free
    /// spare in when `out` is shared), keeping a handle to the result
    /// when the slot was empty.
    pub(crate) fn derive<T, K, D>(
        &self,
        comm: u64,
        size: usize,
        key: K,
        out: &mut Arc<T>,
        derive: D,
    ) where
        T: Clone + Send + Sync + 'static,
        K: Fn(&mut ReplicaKey<'_>),
        D: FnOnce(&mut T),
    {
        let mut store = self.lock();
        let slot = store.entries.iter().position(|e| e.comm == comm);
        if let Some(i) = slot {
            let e = &mut store.entries[i];
            e.left -= 1;
            let hit = match Arc::clone(&e.value).downcast::<T>() {
                Ok(v) if matches(&e.key, &key) => Some(v),
                _ => None,
            };
            if e.left == 0 {
                store.entries.swap_remove(i);
            }
            if let Some(v) = hit {
                store.shared += 1;
                drop(store);
                *out = v;
                return;
            }
        }
        if Arc::get_mut(out).is_none() {
            store.swap_in_spare(out);
        }
        drop(store);
        derive(Arc::make_mut(out));
        if slot.is_some() {
            // A member that found the slot taken keeps nothing.
            return;
        }
        let mut words = Vec::new();
        key(&mut ReplicaKey(Mode::Record(&mut words)));
        let value = Arc::clone(out);
        let mut store = self.lock();
        store.kept += 1;
        store.entries.push(Entry { comm, key: words, left: size - 1, value });
    }

    /// The run's counters, with what is left in the store.
    pub(crate) fn stats(&self) -> ReplicaStats {
        let store = self.lock();
        ReplicaStats { kept: store.kept, shared: store.shared, left: store.entries.len() }
    }
}

/// The scratch values of one cooperative run: at most one per type, lent
/// to one member at a time (see
/// [`SpmdComm::with_scratch`](crate::SpmdComm::with_scratch)).
#[derive(Default)]
pub(crate) struct Scratch {
    slot: Mutex<Vec<Box<dyn Any + Send>>>,
}

impl Scratch {
    /// Members run one at a time and never block inside the slot, so a
    /// poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, Vec<Box<dyn Any + Send>>> {
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Run `f` on the run's value of type `T`, taken out of the slot for
    /// the call and put back after it. A member that finds no value there
    /// (the first call, or another member holds it) gets a fresh
    /// `T::default()`; one that panics inside `f` drops the value it
    /// held, so the slot never holds a value a panic left half written.
    /// Once the slot holds a value, a call allocates nothing: the value
    /// stays in its box.
    pub(crate) fn with<T: Default + Send + 'static, R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let held = {
            let mut slot = self.lock();
            let at = slot.iter().position(|v| v.is::<T>());
            at.map(|i| slot.swap_remove(i))
        };
        let mut value = match held.map(|v| v.downcast::<T>()) {
            Some(Ok(v)) => v,
            _ => Box::default(),
        };
        let out = f(&mut value);
        let mut slot = self.lock();
        // Another member's value of this type, put back first, stays.
        if !slot.iter().any(|v| v.is::<T>()) {
            slot.push(value);
        }
        out
    }

    /// How many values the slot holds.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of<'a>(words: &'a [u64], floats: &'a [f64]) -> impl Fn(&mut ReplicaKey<'_>) + 'a {
        move |k| {
            words.iter().for_each(|&w| k.word(w));
            k.f64s(floats);
        }
    }

    #[test]
    fn a_key_matches_only_its_own_words() {
        let mut kept = Vec::new();
        key_of(&[7], &[1.0, -0.0])(&mut ReplicaKey(Mode::Record(&mut kept)));
        assert!(matches(&kept, &key_of(&[7], &[1.0, -0.0])));
        // +0.0 and -0.0 compare equal as floats but differ in bits.
        assert!(!matches(&kept, &key_of(&[7], &[1.0, 0.0])));
        assert!(!matches(&kept, &key_of(&[8], &[1.0, -0.0])));
        // A prefix, or the same words cut differently, is another key.
        assert!(!matches(&kept, &key_of(&[7], &[1.0])));
        assert!(!matches(&kept, &key_of(&[7, 2], &[])));
    }

    #[test]
    fn members_share_the_first_derivation_and_the_last_drops_it() {
        let r = Replicas::default();
        let mut derived = 0;
        let mut held = Vec::new();
        for member in 0..3 {
            let mut out = Arc::new(vec![0.0; 2]);
            r.derive(1, 3, key_of(&[], &[2.0]), &mut out, |o| {
                derived += 1;
                o.iter_mut().for_each(|x| *x = 2.0 * f64::from(member + 1));
            });
            // The first member's result, on every member.
            assert_eq!(*out, [2.0, 2.0], "member {member}");
            held.push(out);
        }
        assert_eq!(derived, 1);
        // One value, held by the three members and no longer by the store.
        assert!(held.iter().all(|h| Arc::ptr_eq(h, &held[0])));
        assert_eq!(Arc::strong_count(&held[0]), 3);
        assert_eq!(r.stats(), ReplicaStats { kept: 1, shared: 2, left: 0 });
    }

    #[test]
    fn a_member_with_other_inputs_derives_for_itself() {
        let r = Replicas::default();
        // Communicator 1 has three members, communicator 2 two.
        let calls = [(1, 1.0), (2, 1.0), (1, 5.0), (1, 1.0)];
        for (i, &(comm, x)) in calls.iter().enumerate() {
            let size = if comm == 1 { 3 } else { 2 };
            let mut out = Arc::new(0.0);
            r.derive(comm, size, key_of(&[], &[x]), &mut out, |o| *o = 10.0 * x + i as f64);
            // Communicator 2 never reads communicator 1's slot, the member
            // with input 5 misses, and the last member shares the first's.
            let want = if i == 3 { 10.0 } else { 10.0 * x + i as f64 };
            assert_eq!(*out, want, "call {i}");
        }
        // Communicator 1's entry went with its last member; communicator
        // 2's still waits for its second.
        assert_eq!(r.stats(), ReplicaStats { kept: 2, shared: 1, left: 1 });
    }

    #[test]
    fn a_derivation_lands_in_a_spare_once_nobody_holds_it() {
        let r = Replicas::default();
        // Three members share the value they start from.
        let start = Arc::new(vec![0.0; 2]);
        let start_at = Arc::as_ptr(&start);
        let mut held = vec![Arc::clone(&start); 3];
        drop(start);
        let mut at = Vec::new();
        for round in 1..=3u32 {
            let x = f64::from(round);
            for out in &mut held {
                r.derive(1, 3, key_of(&[u64::from(round)], &[]), out, |o| o.fill(x));
            }
            assert!(held.iter().all(|h| **h == [x, x] && Arc::ptr_eq(h, &held[0])));
            at.push(Arc::as_ptr(&held[0]));
        }
        // Round 1 copied the shared starting value, which it retired; once
        // every member had moved on, round 2 derived into it, and round 3
        // into round 1's value.
        assert_ne!(at[0], start_at);
        assert_eq!((at[1], at[2]), (start_at, at[0]));
        assert_eq!(r.stats(), ReplicaStats { kept: 3, shared: 6, left: 0 });
    }

    #[test]
    fn members_borrow_one_scratch_value_per_type() {
        let s = Scratch::default();
        // The first borrower grows the value; later ones find it grown.
        let first = s.with(|v: &mut Vec<f64>| {
            v.resize(64, 1.0);
            v.as_ptr()
        });
        for _ in 0..3 {
            let (len, at) = s.with(|v: &mut Vec<f64>| (v.len(), v.as_ptr()));
            assert_eq!((len, at), (64, first));
        }
        // Another type gets its own value.
        assert_eq!(s.with(|v: &mut Vec<u8>| v.len()), 0);
        assert_eq!(s.held(), 2);
    }

    #[test]
    fn a_borrower_that_panics_drops_the_value() {
        let s = Scratch::default();
        s.with(|v: &mut Vec<f64>| v.push(1.0));
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.with(|v: &mut Vec<f64>| {
                v.push(2.0);
                panic!("inside the lend");
            })
        }));
        assert!(hit.is_err());
        assert_eq!(s.held(), 0);
        // The next borrower starts from a fresh value.
        assert_eq!(s.with(|v: &mut Vec<f64>| v.len()), 0);
    }

    #[test]
    fn a_miss_derives_into_its_own_value_and_leaves_the_shared_one() {
        let r = Replicas::default();
        let shared = Arc::new(1.0);
        let mut out = Arc::clone(&shared);
        r.derive(1, 2, key_of(&[], &[3.0]), &mut out, |o| *o += 2.0);
        // The deriving member's value was shared, so it derived into a copy.
        assert_eq!((*shared, *out), (1.0, 3.0));
        // The store holds the only other handle to the derived value.
        assert_eq!(Arc::strong_count(&out), 2);
    }
}
