//! # optipart-bench — figure harness and benchmarks
//!
//! The [`figs`] module regenerates every measured figure of the paper's §5
//! (Figs. 4–12) as text tables (and CSV when `--out` is given); the
//! `figures` binary dispatches to them.
//!
//! Each figure function takes a [`common::RunConfig`] whose `scale` shrinks
//! the paper's problem sizes to laptop scale (see DESIGN.md §4 for the
//! mapping and EXPERIMENTS.md for recorded outputs).
//!
//! The `bench` binary drives the [`kernels`] registry and records
//! [`report`]-schema `BENCH_<host>.json` files at the repo root, with
//! allocation counts from [`alloc_count`] — see DESIGN.md, *bench*.

pub mod alloc_count;
pub mod common;
pub mod figs;
pub mod kernels;
pub mod report;
