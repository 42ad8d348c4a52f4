//! Helpers shared by the `ull-core` integration tests. Each test binary
//! compiles its own copy and uses a subset of it.
#![allow(dead_code)]

pub mod reference;
