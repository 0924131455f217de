//! Counting-allocator proof that the steady-state chunk loop of the
//! packed engine performs **zero heap allocations** once warm.
//!
//! The million-gate execution path promises that after the first pass
//! over a (golden chunk, fault range) workload — which populates the
//! scratch arenas, level buckets, obs memo and trace paths — repeating
//! the per-chunk loop (`eval_words_into` into a reused per-chunk golden
//! buffer, `load_chunk`, which copies nothing, `detect_packed` / `detect_traced`
//! per fault, and the levelized event walks both engines run through
//! their per-level bucket queues) never touches the allocator again. A
//! wrapping `#[global_allocator]` counts every `alloc`/`realloc`; the
//! test warms up, snapshots the counter, re-runs the loop and asserts a
//! zero delta.
//!
//! One `#[test]` only: a second concurrent test in this binary would
//! allocate behind the counter's back and poison the delta.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

use common::random_patterns;
use rescue_faults::engine::{CampaignPlan, WideScratch};
use rescue_faults::trace::{TracePlan, TraceScratch};
use rescue_faults::universe;
use rescue_netlist::{generate, renumber};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::{pack_patterns_wide_into, PackedWord, SimWord};

/// Runs the steady-state loop once: fill every golden chunk in its own
/// buffer, then walk every fault against every chunk through both
/// engines. Everything it writes lands in pre-sized buffers.
#[allow(clippy::too_many_arguments)]
fn steady_pass<Wd: SimWord>(
    c: &CompiledNetlist,
    plan: &CampaignPlan,
    tplan: &TracePlan,
    faults: &[rescue_faults::Fault],
    input_words: &[Vec<Wd>],
    golden: &mut [Vec<Wd>],
    scratch: &mut WideScratch<Wd>,
    tscratch: &mut TraceScratch<Wd>,
) -> u32 {
    let mut detected = 0u32;
    for (ci, (words, arena)) in input_words.iter().zip(golden).enumerate() {
        c.eval_words_into(words, arena).unwrap();
        scratch.load_chunk(ci as u32, arena);
        tscratch.load_chunk(ci as u32, arena);
        for &fault in faults {
            let m = plan.detect_packed(c, arena, scratch, fault).unwrap();
            let t = tplan.detect_traced(c, arena, tscratch, fault).unwrap();
            assert_eq!(m, t, "{fault}: traced engine diverged");
            if m != Wd::ZERO {
                detected += 1;
            }
        }
    }
    detected
}

#[test]
fn steady_state_chunk_loop_is_allocation_free() {
    type Wd = PackedWord<4>;
    let net = generate::random_logic(8, 400, 4, 0xA110C);
    let (lev, _) = renumber::levelized(&net);
    let c = CompiledNetlist::new(&lev);
    let faults = universe::stuck_at_universe(&lev);
    let patterns = random_patterns(8, 3 * Wd::LANES, 0xA110C);

    // Setup (allocations allowed): pack every chunk up front, allocate
    // one golden buffer per chunk, build both plans, size both scratches.
    let input_words: Vec<Vec<Wd>> = patterns
        .chunks(Wd::LANES)
        .map(|chunk| {
            let mut w = Vec::new();
            pack_patterns_wide_into(chunk, &mut w);
            w
        })
        .collect();
    let mut golden: Vec<Vec<Wd>> = input_words
        .iter()
        .map(|_| Vec::with_capacity(c.len()))
        .collect();
    let plan = CampaignPlan::build(&c, &faults);
    let tplan = TracePlan::build(&c, &faults);
    let mut scratch = WideScratch::<Wd>::new(c.len());
    let mut tscratch = TraceScratch::<Wd>::new(c.len());

    // Warm-up pass: level buckets, obs memos and trace paths grow to
    // their high-water marks here.
    let warm = steady_pass(
        &c,
        &plan,
        &tplan,
        &faults,
        &input_words,
        &mut golden,
        &mut scratch,
        &mut tscratch,
    );
    assert!(warm > 0, "workload must actually detect faults");

    // Steady state: three more passes, zero allocations.
    scratch.counters = Default::default();
    tscratch.inner.counters = Default::default();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        let again = steady_pass(
            &c,
            &plan,
            &tplan,
            &faults,
            &input_words,
            &mut golden,
            &mut scratch,
            &mut tscratch,
        );
        assert_eq!(again, warm, "steady-state pass changed verdicts");
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    // The passes must have run the bucket queue of both engines: the
    // walking engine's site walks and the tracer's stem fallbacks.
    assert!(
        scratch.counters.obs_walks > 0,
        "walking engine never walked"
    );
    assert!(
        tscratch.inner.counters.stem_fallbacks > 0,
        "tracer never fell back to a stem walk"
    );
    assert_eq!(
        delta, 0,
        "steady-state chunk loop allocated {delta} times after warm-up"
    );
}
