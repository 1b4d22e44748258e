//! What the two bins of the benchmark share: the request streams, the
//! set-up, the reply checks, the statistics and the command line.
//! Nothing here calls below the public surface of `cr-server`,
//! `courserank`, `cr-datagen`, `cr-relation::Database` and `cr-storage`'s
//! store configuration; the calls into single layers live in the
//! `crbench-layers` bin alone.

pub mod check;
pub mod cli;
pub mod manifest;
pub mod setup;
pub mod stats;
pub mod stream;
