//! # ooo-cluster — end-to-end training-system simulations
//!
//! Combines the scheduling algorithms (`ooo-core`), the GPU model
//! (`ooo-gpusim`), the communication model (`ooo-netsim`), and the model
//! zoo (`ooo-models`) into the three experiment families of the paper's
//! evaluation:
//!
//! - [`single`] — single-GPU training under five executor engines
//!   (TensorFlow, XLA, Nimble, OOO-XLA with pre-compiled issue, OOO-XLA
//!   with pre-compiled issue + multi-stream ooo computation), including
//!   the OOM behaviour the paper reports for Nimble at large batches;
//! - [`datapar`] — synchronous data-parallel training under Horovod,
//!   BytePS, and OOO-BytePS (reverse first-k with the concave `k`-search)
//!   on the Table 2 clusters;
//! - [`pipeline`] — pipeline-parallel training under cross-layer model
//!   parallelism, GPipe, PipeDream, DAPPLE, Megatron-style interleaving,
//!   OOO-Pipe1, and OOO-Pipe2 with configurable modulo grouping;
//! - [`hybrid`] — the Section 6 combination of reverse first-k and
//!   gradient fast-forwarding;
//! - [`analysis`] — the drill-down numbers of the paper's discussion
//!   subsections (R2/R5 anatomy, the ResNet-50 synchronization budget);
//! - [`mem`] — ledger-checked memory accounting: the exact static
//!   ledger reconciled against a per-op counter instrumented into the
//!   engine simulations.
//!
//! Each engine has one run path: [`single::run`] (plus
//! [`single::run_ooo_with_sub_order`] for the sub-stream ablation),
//! [`datapar::run`] and [`datapar::run_fault_injected`] over one core
//! (the latter under a [`datapar::FaultEnv`] or a pinned `k`),
//! [`pipeline::run`], and [`hybrid::run_combined`] with its `k` search
//! [`hybrid::run_combined_best_k`]. Every report carries the record its
//! timeline is rendered from ([`single::SingleGpuReport::trace`],
//! [`datapar::DataParReport::trace`], [`pipeline::PipelineReport::result`],
//! [`hybrid::HybridReport::to_timeline`]), so tracing never re-simulates.
//! Degenerate configurations (a zero batch, GPU count or replica count)
//! are rejected with [`Error::InvalidConfig`], and debug builds re-check
//! every schedule an engine simulates with the `ooo-verify` analyzer and
//! performance advisor.

#![warn(missing_docs)]

pub mod ablation;
pub mod analysis;
mod checks;
pub mod datapar;
pub mod hybrid;
pub mod mem;
pub mod pipeline;
pub mod single;
pub mod strategy;

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Errors from the cluster engines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The configuration would not fit in GPU memory (the paper's "N/A"
    /// entries, e.g. Nimble at batch 64+).
    OutOfMemory {
        /// Bytes required.
        required: u64,
        /// Bytes available on the GPU.
        capacity: u64,
    },
    /// Underlying scheduling error.
    Core(ooo_core::Error),
    /// Underlying GPU-simulation error.
    Gpu(ooo_gpusim::Error),
    /// Structurally invalid configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::OutOfMemory { required, capacity } => {
                write!(f, "out of memory: needs {required} B, GPU has {capacity} B")
            }
            Error::Core(e) => write!(f, "scheduling error: {e}"),
            Error::Gpu(e) => write!(f, "gpu simulation error: {e}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ooo_core::Error> for Error {
    fn from(e: ooo_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<ooo_gpusim::Error> for Error {
    fn from(e: ooo_gpusim::Error) -> Self {
        Error::Gpu(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
