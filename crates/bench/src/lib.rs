//! # apistudy-bench
//!
//! The reproduction harness: [`artifacts`] regenerates every table and
//! figure of the paper from a completed study; the `repro` binary prints
//! them; the Criterion benches measure the pipeline and per-artifact
//! regeneration cost; [`smoke`] holds what the CI smoke-gate binaries
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod smoke;

pub use artifacts::{render, Ctx, ARTIFACT_IDS};
