//! Offline shim for `serde_derive`.
//!
//! The workspace uses `#[derive(Serialize, Deserialize)]` only as metadata
//! on plain-old-data structs (all JSON the project emits is written by
//! `ompx_telemetry::json`), so the derives expand to nothing. The marker traits
//! live in the sibling `serde` shim and carry blanket implementations.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
