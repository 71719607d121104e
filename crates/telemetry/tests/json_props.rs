//! Property test pinning the escaper and the reader to each other: any
//! string — quotes, backslashes, C0 controls, non-ASCII — survives
//! `quoted` → `parse` unchanged.

use ompx_telemetry::json::{parse, quoted, Json};
use proptest::prelude::*;

/// Code points to chars, dropping the surrogate range.
fn chars(points: &[u32]) -> impl Iterator<Item = char> + '_ {
    points.iter().filter_map(|&p| char::from_u32(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quoted_strings_parse_back_unchanged(
        // Dense over C0 controls, `"`, `\` and Latin-1 …
        low in proptest::collection::vec(0u32..0x180, 0..48),
        // … plus the whole scalar range, astral planes included.
        any in proptest::collection::vec(0u32..0x11_0000, 0..16),
    ) {
        let s: String = chars(&low).chain(chars(&any)).collect();
        prop_assert_eq!(parse(&quoted(&s)), Ok(Json::Str(s)));
    }
}
