//! The one worker pool: scoped threads over a shared index.
//!
//! Sweeps, fleet pre-compilation, serve payload execution and the
//! photonic executor's tiles all fan a list of independent items across a
//! few threads and need the answers back in input order. [`par_map`] is
//! that loop, with each item isolated under `catch_unwind` so one failing
//! item never takes the others down; [`par_map_with`] is the same loop
//! with per-worker state; [`expect_all`] is the shared policy for failed
//! items, and [`dedup_positions`] the content-hash dedup that runs first.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(worker, &item)` for every item on `threads` scoped workers
/// that pull the next index from one shared counter. Returns one entry
/// per item, in input order: `Ok` with the result, or `Err` with the
/// panic message if `f` panicked on that item. Every item runs whatever
/// the others do; the order of results never depends on scheduling.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, |w| w, |&mut w, item| f(w, item))
}

/// [`par_map`] with per-worker state: each worker builds `init(worker)`
/// once and lends it to `f(&mut state, &item)` for every item it runs, so
/// buffers can be reused across items. After an item panics, its worker
/// rebuilds the state before the next item. Results, as in [`par_map`],
/// are in input order and never depend on which worker ran what, as long
/// as `f`'s result does not depend on the state it is lent.
pub fn par_map_with<T, S, R, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, items.len().max(1));
    let mut done: Vec<(usize, Result<R, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, init, f) = (&next, &init, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut state = init(w);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut state, item)));
                        if outcome.is_err() {
                            state = init(w);
                        }
                        done.push((i, outcome.map_err(|p| panic_message(&*p))));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("items are isolated, so a worker cannot panic")
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Unwraps every [`par_map`] outcome, or panics with `what` followed by
/// one `label(i): message` line per failed item.
pub fn expect_all<R>(
    outcomes: Vec<Result<R, String>>,
    what: &str,
    label: impl Fn(usize) -> String,
) -> Vec<R> {
    let mut done = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(r) => done.push(r),
            Err(msg) => failures.push(format!("{}: {msg}", label(i))),
        }
    }
    assert!(failures.is_empty(), "{what}:\n  {}", failures.join("\n  "));
    done
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Groups positions by key: one `(key, positions)` per distinct key, in
/// first-seen order, each listing every position that carried that key.
/// Executing each group once and fanning the result out to its positions
/// is how duplicate jobs share one execution.
pub fn dedup_positions<K: Ord + Clone>(
    keyed: impl IntoIterator<Item = (usize, K)>,
) -> Vec<(K, Vec<usize>)> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    let mut index: BTreeMap<K, usize> = BTreeMap::new();
    for (pos, key) in keyed {
        match index.get(&key) {
            Some(&g) => groups[g].1.push(pos),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![pos]));
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_panicking_item_leaves_the_rest_complete() {
        let items: Vec<u32> = (0..12).collect();
        let out = par_map(&items, 3, |_, &x| {
            assert!(x != 7, "item {x} is poisoned");
            x + 100
        });
        for (x, r) in items.iter().zip(&out) {
            match r {
                Ok(v) => assert_eq!(*v, x + 100),
                Err(msg) => {
                    assert_eq!(*x, 7);
                    assert!(msg.contains("item 7 is poisoned"), "{msg}");
                }
            }
        }
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
        assert!(par_map(&[] as &[u8], 4, |_, _| ()).is_empty());
    }

    #[test]
    fn worker_state_is_reused_and_rebuilt_after_a_panic() {
        let items: Vec<usize> = (0..20).collect();
        // One worker sees every item in order: its state grows across
        // items, and the panicking item 9 leaves a fresh state behind.
        let out = par_map_with(
            &items,
            1,
            |_| Vec::new(),
            |seen: &mut Vec<usize>, &x| {
                seen.push(x);
                assert!(x != 9, "item {x} is poisoned");
                seen.len()
            },
        );
        for (&x, r) in items.iter().zip(&out) {
            match x {
                9 => assert!(r.is_err()),
                _ if x < 9 => assert_eq!(r.as_ref().unwrap(), &(x + 1)),
                _ => assert_eq!(r.as_ref().unwrap(), &(x - 9)),
            }
        }
    }
}
