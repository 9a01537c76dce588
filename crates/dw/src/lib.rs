//! DW — the simulated parallel data warehouse.
//!
//! The paper's DW is "a widely-used, mature commercial parallel database
//! (row-store) with horizontal data partitioning" on 9 nodes. The properties
//! MISO depends on, reproduced here:
//!
//! 1. **Speed asymmetry.** Once data is resident, DW executes "faster by a
//!    very wide margin" — our [`cost::DwCostModel`] is orders of magnitude
//!    faster per byte than HV's, with negligible startup.
//! 2. **Expensive ingest.** Loading (transfer staging → parse → partition →
//!    index) is the dominant cost of getting data *into* DW; it's what makes
//!    up-front ETL unattractive and split-point choice critical.
//! 3. **Two table spaces.** Working sets migrated during query execution
//!    land in *temporary* table space and are discarded at query end; views
//!    migrated by the tuner land in *permanent* table space and become part
//!    of the physical design (paper §3.1).
//! 4. **A what-if interface.** The optimizer's what-if mode, which the MISO
//!    tuner probes during reorganization, prices a plan's DW side against a
//!    hypothetical design with [`cost::DwCostModel`] over size estimates,
//!    running nothing.
//! 5. **Limited spare capacity.** [`background`] models a resident reporting
//!    workload consuming a fixed share of IO or CPU, the mutual-interference
//!    setting of the paper's §5.4 (Figure 9, Table 2).

pub mod background;
pub mod cost;
pub mod store;

pub use background::{BackgroundSim, DwActivity, Resource};
pub use cost::DwCostModel;
pub use store::{DwRun, DwStore};
