//! The five workloads.

pub mod ilp_exact;
pub mod matrix_grid;
pub mod sim_paper;
pub mod svc;
