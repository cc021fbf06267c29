//! The persistent pool under the ways the pipeline and the server use
//! it: concurrent callers, panics on either side of the job, and nested
//! calls. None of these assertions reads the pool's process-global
//! state, so they share one binary; `thread_reuse.rs` has its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use remp_par::Parallelism;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default()
}

#[test]
fn concurrent_callers_each_get_their_results_in_order() {
    let start = Barrier::new(4);
    thread::scope(|scope| {
        for caller in 0..4u64 {
            let start = &start;
            scope.spawn(move || {
                let items: Vec<u64> = (0..97).map(|i| i + caller * 1000).collect();
                let expected: Vec<u64> = items.iter().map(|&x| x * 7 + caller).collect();
                start.wait();
                for _ in 0..200 {
                    let got = Parallelism::Fixed(3).par_map(&items, |&x| x * 7 + caller);
                    assert_eq!(got, expected, "caller {caller}");
                }
            });
        }
    });
}

#[test]
fn a_helper_panic_reaches_the_caller_and_the_pool_survives() {
    let items: Vec<u32> = (0..64).collect();
    let caller = thread::current().id();
    // Every item blocks until both participants hold one, so item 1 or
    // item 0 runs on a helper; the panic is raised on whichever of the
    // two is not the caller.
    let rendezvous = Barrier::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        Parallelism::Fixed(2).par_map(&items[..2], |&x| {
            rendezvous.wait();
            assert!(thread::current().id() == caller, "helper poisoned item {x}");
            x
        })
    }));
    let payload = result.expect_err("the helper's panic must reach the caller");
    assert!(panic_message(&*payload).contains("helper poisoned item"), "original payload kept");

    let again = Parallelism::Fixed(2).par_map(&items, |&x| x + 1);
    assert_eq!(again, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
}

#[test]
fn a_caller_panic_unwinds_only_after_every_started_item_finished() {
    let items: Vec<u32> = (0..2).collect();
    let caller = thread::current().id();
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let rendezvous = Barrier::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        Parallelism::Fixed(2).par_map(&items, |&x| {
            started.fetch_add(1, Ordering::SeqCst);
            rendezvous.wait();
            if thread::current().id() == caller {
                panic!("caller poisoned item {x}");
            }
            // The helper is still busy when the caller starts to unwind.
            thread::sleep(Duration::from_millis(200));
            finished.fetch_add(1, Ordering::SeqCst);
        })
    }));
    let payload = result.expect_err("the caller's own panic must propagate");
    assert!(panic_message(&*payload).contains("caller poisoned item"));
    assert_eq!(started.load(Ordering::SeqCst), 2, "both participants started an item");
    assert_eq!(
        finished.load(Ordering::SeqCst),
        1,
        "the helper's item must finish before the caller's unwind leaves par_map"
    );
}

#[test]
fn a_nested_par_map_runs_inside_a_helper() {
    let caller = thread::current().id();
    let rendezvous = Barrier::new(2);
    let inner: Vec<u64> = (0..40).collect();
    let outer = [1u64, 2];
    let got = Parallelism::Fixed(2).par_map(&outer, |&x| {
        rendezvous.wait();
        let on_helper = thread::current().id() != caller;
        let sum: u64 = Parallelism::Fixed(2).par_map(&inner, |&y| x * 100 + y).iter().sum();
        (on_helper, sum)
    });
    let expected: Vec<u64> = outer.iter().map(|&x| (0..40).map(|y| x * 100 + y).sum()).collect();
    assert_eq!(got.iter().map(|&(_, sum)| sum).collect::<Vec<_>>(), expected);
    assert!(got.iter().any(|&(on_helper, _)| on_helper), "one outer item ran on a helper");
}
