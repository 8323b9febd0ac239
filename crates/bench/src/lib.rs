//! Shared helpers for the figure-regeneration binaries.
#![forbid(unsafe_code)]
#![allow(missing_docs)]
pub mod support;
