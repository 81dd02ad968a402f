//! The cache weigher prices what a classification really keeps resident.
//!
//! A counting global allocator (this test binary's own) tracks the live heap
//! bytes of the current thread. Each classification is computed and wrapped
//! in its `Arc` between two readings; everything the decision procedure
//! allocated along the way is freed by then, so the difference is the heap
//! the cached `Classification` retains. [`approximate_entry_weight`] must be
//! within 2× of it for every problem of the corpus and a sample of the
//! `lcl-gen` grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lcl_paths::classifier::{
    approximate_entry_weight, classify_with_options, Classification, ClassifierOptions,
};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::NormalizedLcl;

struct Counting;

thread_local! {
    /// Live heap bytes allocated (minus freed) by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The classification and the heap bytes it retains.
fn classify_measured(problem: &NormalizedLcl) -> (Arc<Classification>, usize) {
    let options = ClassifierOptions::default();
    let before = live();
    let classification = Arc::new(classify_with_options(problem, &options).expect("classifies"));
    let retained = live() - before;
    (classification, retained.max(1) as usize)
}

/// The corpus plus three problems per family and grid shape, including the
/// 3×5 and 4×5 shapes whose structures used to dominate the cache.
fn sample() -> Vec<NormalizedLcl> {
    let mut out: Vec<NormalizedLcl> = lcl_paths::problems::corpus()
        .into_iter()
        .map(|entry| entry.problem)
        .collect();
    for family in Family::ALL {
        for (inputs, outputs) in [(2, 3), (3, 5), (4, 5)] {
            for seed in 0..3 {
                let config = GenConfig::new(seed)
                    .family(family)
                    .input_labels(inputs)
                    .output_labels(outputs);
                out.push(generate(&config).expect("knobs are in range"));
            }
        }
    }
    out
}

#[test]
fn entry_weight_tracks_retained_heap_within_2x() {
    // Warm up once so lazily initialized process state is not billed to the
    // first measured classification.
    classify_measured(&lcl_paths::problems::coloring(3));
    let mut failures = Vec::new();
    for problem in sample() {
        let (classification, retained) = classify_measured(&problem);
        let weight = approximate_entry_weight(&classification) as usize;
        let ratio = weight as f64 / retained as f64;
        println!(
            "{:<40} {:>8} types {:>4}  retained {retained:>9} B  weight {weight:>9} B  ratio {ratio:.2}",
            problem.name(),
            classification.complexity().to_string(),
            classification.num_types(),
        );
        if !(0.5..=2.0).contains(&ratio) {
            failures.push(format!(
                "{}: weight {weight} vs retained {retained}",
                problem.name()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "weigher off by more than 2x: {failures:#?}"
    );
}
