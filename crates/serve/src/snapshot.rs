//! Epoch snapshots: the immutable multistore images queries execute against.
//!
//! The serving layer never lets a query read mutable tuner state. Instead it
//! publishes an [`EpochSnapshot`] — a self-contained, immutable image of the
//! HV store, DW store, view catalog, and transfer model — behind a
//! [`SnapshotCell`]. Loading a snapshot is a read-lock plus an `Arc` clone;
//! publishing a new epoch is a write-lock plus a pointer swap. A reader
//! therefore observes *either* the pre-reorg image *or* the post-reorg image,
//! never a mix: the catalog, HV residency, and DW residency travel as one
//! atomic unit.
//!
//! View batches inside the stores are `Arc`-held and HV's base logs sit
//! behind an `Arc` too (lines and parsed columns alike), so cloning a store
//! into a snapshot shares data rather than copying it: the clone cost is
//! proportional to the number of logs/views, not the number of rows or
//! lines, and a snapshot and the master it came from warm one column cache.
//! A log is copied only when the master appends to it while a snapshot
//! still reads it (`miso_hv::HvStore::append_log` is copy-on-write).

use std::sync::{Arc, RwLock};

use miso_core::{MultistoreSystem, Stores};
use miso_dw::DwStore;
use miso_hv::HvStore;
use miso_optimizer::TransferModel;
use miso_views::ViewCatalog;

/// One immutable, self-consistent image of the multistore.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotonic epoch number (0 = the image the server booted with).
    pub epoch: u64,
    /// The HV store as of this epoch (logs + opportunistic views).
    pub hv: HvStore,
    /// The DW store as of this epoch (permanent views).
    pub dw: DwStore,
    /// The view catalog as of this epoch.
    pub catalog: ViewCatalog,
    /// The inter-store transfer model.
    pub transfer: TransferModel,
}

impl EpochSnapshot {
    /// The image of `sys` as it stands, published as `epoch`. Logs and view
    /// rows are shared, not copied (see the module docs).
    pub fn of(sys: &MultistoreSystem, epoch: u64) -> Self {
        EpochSnapshot {
            epoch,
            hv: sys.hv.clone(),
            dw: sys.dw.clone(),
            catalog: sys.catalog.clone(),
            transfer: sys.transfer_model().clone(),
        }
    }

    /// A process-unique id of this image. Two snapshots taken under one
    /// epoch number — around a growth step, say — never share it: it is the
    /// HV store's [`HvStore::image`], and every snapshot holds a clone of
    /// its master's store, which a clone stamps afresh.
    pub fn id(&self) -> u64 {
        self.hv.image()
    }

    /// This image's stores, borrowed for the [`miso_core::split`] functions.
    pub fn stores(&self) -> Stores<'_> {
        Stores {
            hv: &self.hv,
            dw: &self.dw,
            catalog: &self.catalog,
            transfer: &self.transfer,
        }
    }
}

/// The single publication point: readers load, the tuner publishes.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<EpochSnapshot>>,
}

impl SnapshotCell {
    /// Wraps the boot-time image as epoch `snap.epoch`.
    pub fn new(snap: EpochSnapshot) -> Self {
        SnapshotCell {
            inner: RwLock::new(Arc::new(snap)),
        }
    }

    /// The currently published snapshot. Queries call this exactly once, at
    /// admission, and hold the `Arc` for their whole lifetime — that is what
    /// makes "drained queries finish against their admission-time snapshot"
    /// true by construction.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.inner.read().expect("snapshot lock").clone()
    }

    /// Atomically publishes a new epoch, returning the replaced snapshot.
    ///
    /// In-flight readers keep their old `Arc`; new loads see `snap`. There
    /// is no intermediate state.
    pub fn publish(&self, snap: EpochSnapshot) -> Arc<EpochSnapshot> {
        let mut slot = self.inner.write().expect("snapshot lock");
        std::mem::replace(&mut *slot, Arc::new(snap))
    }

    /// The published epoch number.
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("snapshot lock").epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            hv: HvStore::new(),
            dw: DwStore::new(),
            catalog: ViewCatalog::new(),
            transfer: TransferModel::default(),
        }
    }

    #[test]
    fn load_returns_published_epoch() {
        let cell = SnapshotCell::new(snap(0));
        assert_eq!(cell.load().epoch, 0);
        cell.publish(snap(1));
        assert_eq!(cell.load().epoch, 1);
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn inflight_reader_keeps_admission_snapshot() {
        let cell = SnapshotCell::new(snap(0));
        let held = cell.load();
        cell.publish(snap(7));
        // The old Arc is unaffected by the publish.
        assert_eq!(held.epoch, 0);
        assert_eq!(cell.load().epoch, 7);
    }
}
