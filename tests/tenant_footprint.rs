//! Resident heap footprint of a finished daemon tenant.
//!
//! A daemon keeps every tenant it has served, so a small tenant's live heap
//! is what the process's resident set grows by per tenant. This binary
//! installs `dls_testkit::CountingAlloc` and drives the `serve_small` tenant
//! script — create, six rounds of (submit two jobs, advance one epoch), run
//! to the end, query — on in-process K = 5 [`Tenant`]s, then divides the
//! live bytes and live blocks the finished tenants still hold by their
//! count.
//!
//! Measured on x86-64 Linux, means over the 50 seeds below:
//!
//! ```text
//!                                                   bytes   blocks
//!   before: the warm resolver cloned its model,
//!           the tenant kept a base instance         39 446    285.1
//!   after:  one model, no base instance             33 892    210.1
//!   after, checkpointed every epoch                 33 890        –
//!   later builds of the same tenant                 31 397    210.1
//!   the resolver's pair table drops its minbw copy
//!   (the LP index keeps the only one)               31 217    210.1
//!   that, checkpointed every epoch                  31 215        –
//! ```
//!
//! The budgets are the first `after` row plus ≈ 10 %. Before, a tenant
//! checkpointed every epoch held 58 242 B: each checkpoint barrier
//! schedules a refactorisation of the dense `B⁻¹`, which kept two `m × m`
//! scratch matrices for the tenant's life. The second case pins that a
//! refactorisation leaves no such scratch behind.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running on another thread would pollute them.

use dls::core::LpFormulation;
use dls::lp::standard::StandardForm;
use dls::scenario::catalog::paper_shape_instance;
use dls::scenario::JobSpec;
use dls::service::{Tenant, TenantSpec};
use dls_testkit::CountingAlloc;
use std::path::Path;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TENANTS: u64 = 50;
const CLUSTERS: usize = 5;
const PERIOD: f64 = 10.0;
const BATCHES: usize = 6;
const JOBS_PER_BATCH: usize = 2;

/// Mean live bytes per finished tenant may not exceed this.
const BYTES_BUDGET: f64 = 37_300.0;
/// Mean live heap blocks per finished tenant may not exceed this.
const BLOCKS_BUDGET: f64 = 231.0;

/// splitmix64: the jobs' random draws, without a dependency.
fn mix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64
}

/// `serve_small`'s batches: batch `b` arrives inside period `b`.
fn batches(seed: u64) -> Vec<Vec<JobSpec>> {
    let mut state = seed;
    (0..BATCHES)
        .map(|b| {
            let start = b as f64 * PERIOD;
            (0..JOBS_PER_BATCH)
                .map(|_| JobSpec {
                    arrival: start + 0.5 + mix(&mut state) * (PERIOD - 1.0),
                    origin: (mix(&mut state) * CLUSTERS as f64) as u32 % CLUSTERS as u32,
                    size: 40.0 + mix(&mut state) * 80.0,
                    weight: 1.0,
                })
                .collect()
        })
        .collect()
}

/// One finished tenant; with `checkpoints`, checkpointed after every epoch.
fn finished_tenant(seed: u64, checkpoints: Option<&Path>) -> Tenant {
    let spec = TenantSpec {
        clusters: CLUSTERS,
        seed,
        policy: "periodic".into(),
        period: PERIOD,
        engine: "incremental".into(),
        record_events: false,
    };
    let mut t = Tenant::new(&format!("t{seed}"), spec).expect("a valid spec");
    let checkpoint = |t: &mut Tenant| {
        if let Some(dir) = checkpoints {
            t.checkpoint(dir)
                .expect("the checkpoint directory is writable");
        }
    };
    for batch in batches(seed) {
        t.submit(&batch).expect("jobs are admitted");
        t.advance(1).expect("an epoch runs");
        checkpoint(&mut t);
    }
    let (_, done) = t.run_to_end().expect("the run finishes");
    assert!(done);
    checkpoint(&mut t);
    let report = t.query();
    assert_eq!(report.completed_jobs, BATCHES * JOBS_PER_BATCH);
    t
}

/// Mean live (bytes, blocks) per finished tenant over every seed.
fn per_tenant(checkpoints: Option<&Path>) -> (f64, f64) {
    let mut tenants = Vec::with_capacity(TENANTS as usize);
    let before = CountingAlloc::live();
    for seed in 1..=TENANTS {
        tenants.push(finished_tenant(seed, checkpoints));
    }
    let after = CountingAlloc::live();
    drop(tenants);
    let n = TENANTS as f64;
    (
        (after.0 - before.0) as f64 / n,
        (after.1 - before.1) as f64 / n,
    )
}

#[test]
fn a_finished_tenant_holds_its_state_once() {
    // First-use allocations (lazily built statics) are not a tenant's.
    drop(finished_tenant(0, None));

    let (bytes, blocks) = per_tenant(None);
    println!("finished tenant: {bytes:.0} B in {blocks:.1} blocks");
    assert!(
        bytes <= BYTES_BUDGET,
        "a finished tenant holds {bytes:.0} B (budget {BYTES_BUDGET})"
    );
    assert!(
        blocks <= BLOCKS_BUDGET,
        "a finished tenant holds {blocks:.1} blocks (budget {BLOCKS_BUDGET})"
    );

    let dir = std::env::temp_dir().join(format!("dls-tenant-footprint-{}", std::process::id()));
    let (ckpt_bytes, _) = per_tenant(Some(&dir));
    std::fs::remove_dir_all(&dir).expect("the checkpoint directory is removable");
    let m2: f64 = (1..=TENANTS)
        .map(|seed| {
            let f = LpFormulation::relaxation_warm(&paper_shape_instance(CLUSTERS, seed))
                .expect("the relaxation builds");
            let m = StandardForm::from_model(&f.model).expect("it lowers").m;
            (8 * m * m) as f64
        })
        .sum::<f64>()
        / TENANTS as f64;
    println!("checkpointed every epoch: {ckpt_bytes:.0} B; 8m² = {m2:.0} B");
    assert!(
        ckpt_bytes - bytes < m2,
        "checkpointing grew a tenant by {:.0} B, at least one m × m matrix ({m2:.0} B)",
        ckpt_bytes - bytes
    );
}
