//! Shared by the brute-force property suites (`fuzz`, `three_sat`).

/// Cases per property: 200 in tier-1. CI's release job raises it
/// through proptest's `PROPTEST_CASES` variable, which an explicit
/// `ProptestConfig::with_cases` would otherwise override.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}
