//! The pool's threads persist across calls. The assertions read the
//! process-global pool, so this test has a binary of its own: another
//! test asking for more threads would grow the pool under it.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread;

use remp_par::{helper_threads, Parallelism};

#[test]
fn a_thousand_calls_reuse_one_helper() {
    let items: Vec<u64> = (0..16).collect();
    let seen = Mutex::new(HashSet::new());
    for call in 0..1000u64 {
        let got = Parallelism::Fixed(2).par_map(&items, |&x| {
            seen.lock().unwrap().insert(thread::current().id());
            x + call
        });
        assert_eq!(got, items.iter().map(|&x| x + call).collect::<Vec<_>>());
    }
    let distinct = seen.into_inner().unwrap().len();
    assert!(distinct <= 2, "1,000 Fixed(2) calls ran on {distinct} threads, counting the caller");
    assert_eq!(helper_threads(), 1, "Fixed(2) needs one helper besides the caller");
}
