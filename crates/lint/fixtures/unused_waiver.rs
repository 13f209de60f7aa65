//@path crates/core/src/fixture.rs
//! Unused-waiver fixture: a well-formed `lint:allow` whose next line
//! violates nothing. Stale waivers hide the real exception surface
//! and defeat the budget ratchet, so this is fatal — must produce
//! exactly one unused-waiver finding at the comment line.

fn clean() {
    // lint:allow(D009) fixture: nothing below violates D009
    let x = 1u32;
    let _ = x;
}
