//! Helpers shared by the `ull-tensor` integration tests. Each test binary
//! compiles its own copy and uses a subset of it.
#![allow(dead_code)]

pub mod reference;
