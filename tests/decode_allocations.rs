//! Decoding a report frame makes a fixed, small number of heap calls.
//!
//! The client's read path decodes every server frame as a
//! `dls_service::ServerFrame`. This binary installs
//! `dls_testkit::CountingAlloc` and decodes the pinned report frame
//! (`crates/service/tests/golden/wire/report_frame.txt`: a K = 5 tenant's
//! report with 8 jobs, 73 recorded events and one fault record). The heap
//! calls it makes are the decoded value's own blocks (its strings, its
//! boxed report, and the growth steps of its vectors) and nothing per key,
//! per number or per token: keys are matched against the input, and
//! numbers and unescaped strings are read in place.
//!
//! Measured on x86-64 Linux (heap calls = `alloc` + `alloc_zeroed` +
//! `realloc`, debug and release alike): 13, of which 8 are the growth
//! steps of `per_job` and `events`, and the rest the tenant, scenario and
//! policy strings, the boxed report and the fault list.

use dls::service::ServerFrame;
use dls_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap calls of one decode of the pinned frame.
const BUDGET: usize = 13;

#[test]
fn decoding_a_report_frame_allocates_only_its_value() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/service/tests/golden/wire/report_frame.txt"
    );
    let text = std::fs::read_to_string(path).expect("golden report frame");
    let text = text.trim_end();
    // First-use allocations (lazily built statics) are not the decode's.
    drop(serde_json::from_str::<ServerFrame>(text));

    let before = CountingAlloc::thread_calls();
    let frame = serde_json::from_str::<ServerFrame>(text);
    let calls = CountingAlloc::thread_calls() - before;
    assert!(
        matches!(frame, Ok(ServerFrame::Response(_))),
        "the pinned frame decodes as a response: {frame:?}"
    );
    drop(frame);
    println!("heap calls decoding report_frame.txt: {calls}");
    assert!(
        calls <= BUDGET,
        "decoding the report frame made {calls} heap calls, budget {BUDGET}"
    );
}
