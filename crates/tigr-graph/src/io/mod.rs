//! Graph loaders and writers.
//!
//! Supported formats:
//!
//! * [`edge_list`] — whitespace-separated `src dst [weight]` text, with
//!   `#`/`%` comments. This covers the SNAP text files the paper's
//!   datasets ship in.
//! * [`matrix_market`] — MatrixMarket coordinate format (1-indexed), used
//!   by network-repository (Sinaweibo, Twitter2010).
//! * [`dimacs`] — the DIMACS shortest-path `.gr` format of road-network
//!   benchmarks.
//! * [`binary`] — the `TIGRCSR2` sectioned artifact container (with
//!   read-only support for legacy `TIGRCSR1` files), used by the prepared
//!   graph cache.
//!
//! [`load_path`]/[`save_path`] pick the format from the file extension:
//! `.bin`/`.tigr` → binary, `.mtx` → MatrixMarket, `.gr` → DIMACS,
//! anything else → edge list.

pub mod binary;
pub mod dimacs;
pub mod edge_list;
pub mod matrix_market;

pub use binary::{
    checksums, decode_csr, encode_csr, find_section, fnv1a64, load_binary, parse_container,
    parse_section_table, read_binary, read_container, save_binary, write_binary, write_binary_v1,
    write_container, write_sections, MappedContainer, Section, SectionParts, SectionRef,
    VerifyMode, SECTION_CSR, SECTION_OVERLAY, SECTION_REV_OVERLAY, SECTION_SPEC, SECTION_TRANSFORM,
    SECTION_TRANSPOSE,
};
pub use dimacs::{load_dimacs, parse_dimacs, write_dimacs};
pub use edge_list::{load_edge_list, parse_edge_list, write_edge_list};
pub use matrix_market::{load_matrix_market, parse_matrix_market, write_matrix_market};

use std::fs::File;
use std::path::Path;

use crate::csr::Csr;
use crate::Result;

fn extension(path: &Path) -> String {
    path.extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_lowercase()
}

/// Loads a graph from `path`, choosing the parser by file extension.
///
/// # Errors
///
/// Propagates I/O and parse failures from the selected format.
pub fn load_path(path: impl AsRef<Path>) -> Result<Csr> {
    let path = path.as_ref();
    match extension(path).as_str() {
        "bin" | "tigr" => load_binary(path),
        "mtx" => load_matrix_market(path),
        "gr" => load_dimacs(path),
        _ => load_edge_list(path),
    }
}

/// Saves a graph to `path`, choosing the writer by file extension.
///
/// # Errors
///
/// Returns I/O failures from the selected writer.
pub fn save_path(g: &Csr, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    match extension(path).as_str() {
        "bin" | "tigr" => save_binary(g, path),
        "mtx" => write_matrix_market(g, File::create(path)?),
        "gr" => write_dimacs(g, File::create(path)?),
        _ => write_edge_list(g, File::create(path)?),
    }
}
