//! A deterministic scheduled-wakeup queue.

use crate::json::{FromJson, Json, JsonError, ToJson};
use flumen_units::Cycles;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled entry: deadline plus an insertion sequence number.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    payload: T,
}

// Ordering deliberately ignores the payload: entries pop by deadline, and
// same-deadline entries pop in insertion (FIFO) order via `seq`. That makes
// pop order a pure function of the schedule calls, independent of payload
// type — the property every determinism test in the workspace leans on.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A binary-heap event queue for scheduled wakeups: DRAM reply returns,
/// phase-programming completions, reconfiguration guard times.
///
/// Pop order is fully deterministic — `(deadline, insertion order)` — so a
/// simulation driven off this queue replays bit-identically, and the
/// canonical snapshot form ([`ToJson`]) is written deadline-sorted so equal
/// states serialize to equal bytes.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to become due at cycle `at`.
    pub fn schedule(&mut self, at: Cycles, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            at: at.value(),
            seq,
            payload,
        }));
    }

    /// Pops the next entry whose deadline is `<= now`, if any. Call in a
    /// loop to drain everything due this cycle (FIFO among ties).
    #[inline]
    pub fn pop_due(&mut self, now: Cycles) -> Option<T> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at <= now.value() => {}
            _ => return None,
        }
        self.heap.pop().map(|Reverse(e)| e.payload)
    }

    /// The earliest pending deadline.
    pub fn peek_deadline(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse(e)| Cycles::new(e.at))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T: ToJson> ToJson for EventQueue<T> {
    fn to_json(&self) -> Json {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        Json::obj([
            (
                "entries",
                Json::Arr(
                    entries
                        .into_iter()
                        .map(|e| {
                            Json::Arr(vec![e.at.to_json(), e.seq.to_json(), e.payload.to_json()])
                        })
                        .collect(),
                ),
            ),
            ("next_seq", self.next_seq.to_json()),
        ])
    }
}

impl<T: FromJson> FromJson for EventQueue<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let mut heap = BinaryHeap::new();
        for entry in j.get("entries")?.as_arr()? {
            let arr = entry.as_arr()?;
            let [at, seq, payload] = arr else {
                return Err(JsonError(format!(
                    "EventQueue entry: expected [at, seq, payload], got {} elements",
                    arr.len()
                )));
            };
            heap.push(Reverse(Entry {
                at: at.as_u64()?,
                seq: seq.as_u64()?,
                payload: T::from_json(payload)?,
            }));
        }
        Ok(EventQueue {
            heap,
            next_seq: j.get("next_seq")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_deadline_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(5), "a");
        q.schedule(Cycles::new(3), "b");
        q.schedule(Cycles::new(5), "c");
        q.schedule(Cycles::new(5), "d");
        assert_eq!(q.peek_deadline(), Some(Cycles::new(3)));
        assert_eq!(q.pop_due(Cycles::new(2)), None);
        assert_eq!(q.pop_due(Cycles::new(3)), Some("b"));
        assert_eq!(q.pop_due(Cycles::new(4)), None);
        // Ties at cycle 5 drain in insertion order.
        assert_eq!(q.pop_due(Cycles::new(5)), Some("a"));
        assert_eq!(q.pop_due(Cycles::new(5)), Some("c"));
        assert_eq!(q.pop_due(Cycles::new(5)), Some("d"));
        assert_eq!(q.pop_due(Cycles::new(99)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_round_trip_preserves_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(Cycles::new(9), 90);
        q.schedule(Cycles::new(2), 20);
        q.schedule(Cycles::new(9), 91);
        let text = q.to_json().to_canonical();
        let mut back = EventQueue::<u64>::from_json(&Json::parse(&text).unwrap()).unwrap();
        // The restored queue pops identically and continues the seq space.
        assert_eq!(back.to_json().to_canonical(), text);
        assert_eq!(back.pop_due(Cycles::new(100)), Some(20));
        back.schedule(Cycles::new(9), 92); // seq 3 > existing seq 2
        assert_eq!(back.pop_due(Cycles::new(100)), Some(90));
        assert_eq!(back.pop_due(Cycles::new(100)), Some(91));
        assert_eq!(back.pop_due(Cycles::new(100)), Some(92));
    }

    #[test]
    fn len_and_deadline_order() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycles::new(7), 1u64);
        q.schedule(Cycles::new(4), 2u64);
        assert_eq!(q.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_due(Cycles::new(7))).collect();
        assert_eq!(order, vec![2, 1]);
        assert!(q.is_empty());
    }
}
