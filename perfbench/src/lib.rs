//! End-to-end campaign benchmark for the `dynring-campaign` crate.
//!
//! The benchmark drives the crate's public API from outside: it
//! generates campaign specs from a seed ([`workloads`]), runs them as a
//! closed batch job (one campaign at a time, `workers = nproc` threads
//! inside each), checks every output, and reports the metrics of
//! [`catalog`]. A traced run ([`bench::run`] with tracing on) records
//! spans around every layer call ([`trace`]) and reports the per-layer
//! breakdown. Single-threaded calls are spread over every CPU
//! ([`affinity`]). See `README.md` in this directory for the layer map.

pub mod affinity;
pub mod bench;
pub mod catalog;
pub mod stats;
pub mod trace;
pub mod workloads;
