//@path crates/core/src/fixture.rs
//! Waiver-scoping fixture: a standalone `lint:allow` comment covers
//! exactly the next line. The second identical violation two lines
//! below is NOT covered and must still fire — one waiver, one site.

// lint:hot
fn hot_step() {
    // lint:allow(D009) fixture: this waiver covers only the next line
    let covered: Vec<u32> = Vec::new();
    let uncovered: Vec<u32> = Vec::new();
    let _ = (covered, uncovered);
}
