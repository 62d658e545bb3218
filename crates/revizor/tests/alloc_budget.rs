//! Allocation budget of a steady-state work unit.
//!
//! A worker thread evaluates its units on a resident `UnitContext`, so once
//! the context's buffers have grown, a unit allocates only what it returns
//! (the test case, analysis results and class members) and what the stages
//! build per test case.  This binary installs a counting global allocator
//! whose counters are thread-local, so the test harness's other threads do
//! not add to them, and checks the per-unit count of the `compliant_fixed`
//! targets on two paths: `UnitContext::evaluate`, which builds every
//! contract's class members, and the reduced evaluation a campaign matrix
//! runs without escalation (`ClassMembers::None`).  Each is pinned at its
//! measured count with a small margin.
//!
//! Run it in release mode: `cargo test --release -p revizor --test
//! alloc_budget -- --nocapture` prints the counts.

use revizor::campaign::{ClassMembers, SeedEval, SlateChecks, SlateSpec, UnitContext};
use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_executor::ExecutorConfig;
use rvz_model::Contract;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Add `n` to a counter.  `try_with`: the allocator also serves
/// thread-local destructors.
fn count<T: Copy + std::ops::Add<Output = T>>(
    counter: &'static std::thread::LocalKey<Cell<T>>,
    n: T,
) {
    let _ = counter.try_with(|c| c.set(c.get() + n));
}

// SAFETY: every method forwards to `System` with its own arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS, 1);
        count(&LIVE_BYTES, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS, 1);
        count(&LIVE_BYTES, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&LIVE_BYTES, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS, 1);
        count(&LIVE_BYTES, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per steady-state unit (release build, the 50 seeds below,
/// the `CampaignMatrix::new` defaults and the four CT contracts), as
/// measured: `(target, UnitContext::evaluate, reduced evaluation)`.
const MEASURED_PER_UNIT: [(u8, f64, f64); 2] = [(1, 69.0, 41.0), (4, 72.9, 41.8)];

/// Headroom over the measured counts before the budget fails.
const MARGIN: f64 = 1.05;

/// The seeds each target evaluates.
fn seeds() -> impl Iterator<Item = u64> {
    (0..50u64).map(|i| i * 7919 + 1)
}

/// The slate a `compliant_fixed` cell group evaluates.
fn spec(target: &Target) -> SlateSpec {
    SlateSpec {
        generator: CampaignMatrix::new(0).base_generator(target),
        executor: ExecutorConfig::campaign(target.mode),
        checks: SlateChecks::all(),
        contracts: Contract::table3_contracts(),
        speculation_filter: false,
    }
}

/// Evaluate every seed of group `group` on `context` as a worker thread
/// does, building the class members `members` asks for and handing each
/// batch back; returns this thread's allocations and reallocations per
/// unit.
fn evaluate_all(
    context: &mut UnitContext<rvz_uarch::SpecCpu>,
    group: usize,
    spec: &SlateSpec,
    members: ClassMembers,
) -> (f64, f64) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    for seed in seeds() {
        if let SeedEval::Measured(unit) = context.evaluate_with(group, spec, seed, members) {
            assert!(unit.outcomes.iter().all(|o| o.confirmed_violation.is_none()));
            context.recycle(unit.inputs);
        }
    }
    let units = seeds().count() as f64;
    (
        (ALLOCS.with(Cell::get) - before.0) as f64 / units,
        (REALLOCS.with(Cell::get) - before.1) as f64 / units,
    )
}

#[test]
fn steady_state_units_stay_within_their_allocation_budgets() {
    let targets = [Target::target1(), Target::target4()];
    let specs: Vec<SlateSpec> = targets.iter().map(spec).collect();
    let live_before = LIVE_BYTES.with(Cell::get);
    let mut context = UnitContext::new(targets.iter().map(Target::cpu).collect::<Arc<[_]>>());
    // The first pass grows the context's buffers; the second is the steady
    // state.
    for (group, spec) in specs.iter().enumerate() {
        evaluate_all(&mut context, group, spec, ClassMembers::All);
    }
    let resident = LIVE_BYTES.with(Cell::get) - live_before;
    println!(
        "resident context: {:.0} KiB for {} cell groups",
        resident as f64 / 1024.0,
        targets.len()
    );
    assert!(resident < 1 << 20, "a context must stay under 1 MiB: {resident} bytes");
    for (group, spec) in specs.iter().enumerate() {
        let id = targets[group].id;
        let &(_, full, reduced) =
            MEASURED_PER_UNIT.iter().find(|(t, ..)| *t == id).expect("every target is pinned");
        for (members, measured) in [(ClassMembers::All, full), (ClassMembers::None, reduced)] {
            let (allocs, reallocs) = evaluate_all(&mut context, group, spec, members);
            println!(
                "target {id}, class members {members:?}: {allocs:.1} allocations + \
                 {reallocs:.1} reallocations per steady-state unit (measured {measured:.1})"
            );
            assert!(
                allocs <= measured * MARGIN,
                "target {id}, {members:?}: {allocs:.1} allocations per unit, budget {:.1}",
                measured * MARGIN
            );
        }
    }
}
