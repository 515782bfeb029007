//! Dataset representation: schemas, column-major storage, views, global
//! statistics, and CSV I/O.

pub mod csv;
pub mod dataset;
pub mod schema;
pub mod stats;

pub use csv::{read_csv, write_csv, CsvError};
pub use dataset::{
    block_partition, block_range, weighted_partition, Column, DataView, Dataset, Value,
    MISSING_DISCRETE,
};
pub use schema::{Attribute, AttributeKind, Schema};
pub use stats::{AttrStats, GlobalStats};
