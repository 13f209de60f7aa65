//@path crates/core/src/fixture.rs
//! Waiver fixture: the same D009 pattern as the d009 fixture, but
//! suppressed by a `lint:allow` comment with a reason. Must produce
//! zero violations and exactly one tallied waiver.

// lint:hot
fn hot_step() {
    // lint:allow(D009) fixture demonstrating the waiver syntax; not a round loop
    let scratch: Vec<u32> = Vec::new();
    let _ = scratch;
}
