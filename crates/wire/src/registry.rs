//! The multi-tenant model registry: named models over one shared
//! scheduling pool, with hot add/remove behind an `RwLock`.
//!
//! Each registered model becomes a tenant of a
//! [`circnn_serve::MultiServer`]: its own bounded queue, batching policy
//! and statistics. The name → tenant map sits behind an `RwLock` so the
//! per-request lookup on the serving hot path is a shared read; only
//! add/remove take the write lock.

use std::collections::HashMap;
use std::io;
use std::sync::RwLock;

use circnn_core::serialize::{self, SerializeError};
use circnn_core::RowSlice;
use circnn_nn::Sequential;
use circnn_serve::{
    MultiServer, Runner, SequentialModel, ServeError, ServeModel, ServeStats, TenantConfig,
    TenantHandle,
};

use crate::frame::{HealthInfo, ModelInfo, TenantHealth};

/// Longest accepted model name (fits comfortably in the wire's `u16`
/// length prefix and keeps hostile registrations bounded).
pub const MAX_NAME_LEN: usize = 256;

/// Why a registration failed.
#[derive(Debug)]
pub enum RegistryError {
    /// A model with this name is already registered.
    DuplicateName(String),
    /// The name is empty or longer than [`MAX_NAME_LEN`].
    BadName(String),
    /// The network cannot be served (a layer lacks the read-only
    /// inference path); carries the construction error message.
    Unservable(String),
    /// The scheduling pool rejected the tenant.
    Serve(ServeError),
    /// A serialized operator failed to load.
    Load(SerializeError),
}

impl core::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::DuplicateName(name) => write!(f, "model {name:?} is already registered"),
            Self::BadName(name) => write!(
                f,
                "bad model name {name:?} (must be 1..={MAX_NAME_LEN} bytes)"
            ),
            Self::Unservable(why) => write!(f, "model is not servable: {why}"),
            Self::Serve(e) => write!(f, "scheduler rejected the tenant: {e}"),
            Self::Load(e) => write!(f, "failed to load model: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ServeError> for RegistryError {
    fn from(e: ServeError) -> Self {
        Self::Serve(e)
    }
}

impl From<SerializeError> for RegistryError {
    fn from(e: SerializeError) -> Self {
        Self::Load(e)
    }
}

/// Placement of a registered row-slice tenant: which logical output rows
/// of the parent operator it produces. An `InferSegment` request must
/// name exactly this range — the check is what keeps a misrouted scatter
/// leg from being stitched into the wrong rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// First logical output row this tenant produces.
    pub row_start: usize,
    /// One past the last logical output row this tenant produces.
    pub row_end: usize,
    /// Logical row count `m` of the parent operator.
    pub full_rows: usize,
}

/// Named, hot-swappable models over one shared worker pool.
///
/// # Examples
///
/// ```
/// use circnn_core::BlockCirculantMatrix;
/// use circnn_serve::TenantConfig;
/// use circnn_tensor::init::seeded_rng;
/// use circnn_wire::ModelRegistry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = ModelRegistry::new(2)?;
/// let w = BlockCirculantMatrix::random(&mut seeded_rng(0), 32, 64, 8)?;
/// registry.add_model("fc6", w, TenantConfig::default())?;
/// let handle = registry.get("fc6").expect("just registered");
/// assert_eq!(handle.submit(vec![0.5; 64])?.wait()?.len(), 32);
/// assert!(registry.remove_model("fc6"));
/// assert!(registry.get("fc6").is_none());
/// # Ok(())
/// # }
/// ```
pub struct ModelRegistry {
    pool: MultiServer,
    tenants: RwLock<HashMap<String, TenantHandle>>,
    /// Row-range placement for tenants registered as segments
    /// ([`ModelRegistry::add_segment`]); keyed by the same names.
    segments: RwLock<HashMap<String, SegmentInfo>>,
}

impl core::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.list().len())
            .finish()
    }
}

impl ModelRegistry {
    /// Starts the shared worker pool (no models yet).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] if `workers` is zero.
    pub fn new(workers: usize) -> Result<Self, ServeError> {
        Ok(Self {
            pool: MultiServer::start(workers)?,
            tenants: RwLock::new(HashMap::new()),
            segments: RwLock::new(HashMap::new()),
        })
    }

    fn check_name(name: &str) -> Result<(), RegistryError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(RegistryError::BadName(name.to_string()));
        }
        Ok(())
    }

    /// Registers any [`ServeModel`] under `name` (hot add: serving
    /// continues for every other tenant).
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateName`] if the name is taken,
    /// [`RegistryError::BadName`] for an empty/oversized name, or the
    /// pool's own rejection.
    pub fn add_model<M: ServeModel>(
        &self,
        name: &str,
        model: M,
        cfg: TenantConfig,
    ) -> Result<(), RegistryError> {
        Self::check_name(name)?;
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            return Err(RegistryError::DuplicateName(name.to_string()));
        }
        let handle = self.pool.add_tenant(model, cfg)?;
        map.insert(name.to_string(), handle);
        Ok(())
    }

    /// Registers a whole network under `name`: requests reshape to the
    /// per-sample `input_shape` (`[n]` for MLPs, `[C, H, W]` for
    /// convnets).
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::add_model`], plus
    /// [`RegistryError::Unservable`] if a layer lacks the read-only
    /// inference path.
    pub fn add_network(
        &self,
        name: &str,
        net: Sequential,
        input_shape: &[usize],
        cfg: TenantConfig,
    ) -> Result<(), RegistryError> {
        let model = SequentialModel::with_input_shape(net, input_shape).map_err(|e| match e {
            // Unwrap the typed rejection so the registry's own
            // "model is not servable:" prefix is not doubled.
            circnn_serve::ServeError::NotServable(why) => RegistryError::Unservable(why),
            other => RegistryError::Unservable(other.to_string()),
        })?;
        self.add_model(name, model, cfg)
    }

    /// Loads a serialized block-circulant operator
    /// ([`circnn_core::serialize`] format, plain or 16-bit quantized) and
    /// registers it under `name` — the deployment path: ship defining
    /// vectors, serve `y = W·x`.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::add_model`], plus [`RegistryError::Load`] for a
    /// malformed stream.
    pub fn load_operator(
        &self,
        name: &str,
        reader: impl io::Read,
        cfg: TenantConfig,
    ) -> Result<(), RegistryError> {
        let operator = serialize::load(reader)?;
        self.add_model(name, operator, cfg)
    }

    /// Loads a quantized-spectra stream
    /// ([`circnn_core::serialize::save_quantized_spectra`] format) and
    /// registers the fixed-point operator under `name` — the low-precision
    /// deployment path: ship i16 weight spectra plus per-block-row scales,
    /// serve `y = W·x` through the integer MAC kernels.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::add_model`], plus [`RegistryError::Load`] for a
    /// malformed stream — including the typed
    /// [`circnn_core::CircError::QuantOverflow`] rejection when the
    /// stream's code formats could overflow i32 accumulation.
    pub fn load_quantized_operator(
        &self,
        name: &str,
        reader: impl io::Read,
        cfg: TenantConfig,
    ) -> Result<(), RegistryError> {
        let operator = serialize::load_quantized_spectra(reader)?;
        self.add_model(name, operator, cfg)
    }

    /// Registers a row-slice of a block-circulant operator under `name`:
    /// the slice serves like any operator tenant (`input_len = n`,
    /// `output_len = row_end − row_start`), and its placement is recorded
    /// so `InferSegment` requests can be validated against it.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::add_model`].
    pub fn add_segment(
        &self,
        name: &str,
        slice: RowSlice,
        cfg: TenantConfig,
    ) -> Result<(), RegistryError> {
        let info = SegmentInfo {
            row_start: slice.row_start,
            row_end: slice.row_end(),
            full_rows: slice.full_rows,
        };
        self.add_model(name, slice.operator, cfg)?;
        self.segments
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), info);
        Ok(())
    }

    /// Loads a serialized row-slice ([`circnn_core::serialize::save_slice`]
    /// format, or a whole-operator stream as the trivial full-range slice)
    /// and registers it under `name` — the shard-deployment path: ship a
    /// shard its slice of the defining vectors, serve its output segment.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::add_segment`], plus [`RegistryError::Load`] for
    /// a malformed stream.
    pub fn load_segment(
        &self,
        name: &str,
        reader: impl io::Read,
        cfg: TenantConfig,
    ) -> Result<(), RegistryError> {
        let slice = serialize::load_slice(reader)?;
        self.add_segment(name, slice, cfg)
    }

    /// The recorded placement of a segment tenant (`None` for tenants not
    /// registered through [`ModelRegistry::add_segment`]).
    pub fn segment(&self, name: &str) -> Option<SegmentInfo> {
        self.segments
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }

    /// Unregisters `name` (hot removal): its parked requests fail with
    /// [`ServeError::ShuttingDown`], in-flight batches complete. Returns
    /// `false` if no such model existed.
    pub fn remove_model(&self, name: &str) -> bool {
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        match map.remove(name) {
            Some(handle) => {
                drop(map);
                self.segments
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(name);
                self.pool.remove_tenant(&handle)
            }
            None => false,
        }
    }

    /// The pool's deferred wake after offers: runs one slab on the calling
    /// thread if the pool is idle, wakes the workers otherwise
    /// ([`MultiServer::serve_idle`]). Returns whether a slab ran here.
    pub fn serve_idle(&self, runner: &mut Runner) -> bool {
        self.pool.serve_idle(runner)
    }

    /// The tenant handle for `name` (a cheap clone — connections cache it
    /// per request).
    pub fn get(&self, name: &str) -> Option<TenantHandle> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Every registered model with its geometry and queue depth, sorted by
    /// name (deterministic wire output).
    pub fn list(&self) -> Vec<ModelInfo> {
        let map = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<ModelInfo> = map
            .iter()
            .map(|(name, h)| ModelInfo {
                name: name.clone(),
                input_len: h.input_len() as u32,
                output_len: h.output_len() as u32,
                pending: h.pending() as u32,
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Per-tenant statistics snapshot for `name`.
    pub fn stats(&self, name: &str) -> Option<ServeStats> {
        self.get(name).and_then(|h| h.stats().ok())
    }

    /// Server health snapshot: registry size plus every tenant's queue
    /// depth and degradation counters (shed, rejected, expired, panics),
    /// sorted by name — what an operator or load balancer polls to decide
    /// whether this server is keeping up.
    pub fn health(&self) -> HealthInfo {
        let map = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut tenants: Vec<TenantHealth> = map
            .iter()
            .map(|(name, h)| {
                // A tenant removed between iteration and the stats read
                // reports zeroed counters rather than failing the snapshot.
                let stats = h.stats().unwrap_or_default();
                TenantHealth {
                    name: name.clone(),
                    pending: h.pending() as u32,
                    shed: stats.shed,
                    rejected: stats.rejected,
                    expired: stats.expired,
                    panics: stats.panics,
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        HealthInfo {
            models: map.len() as u32,
            tenants,
        }
    }

    /// Graceful shutdown: drains every tenant queue and joins the pool
    /// workers.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_core::BlockCirculantMatrix;
    use circnn_tensor::init::seeded_rng;

    fn operator(seed: u64) -> BlockCirculantMatrix {
        BlockCirculantMatrix::random(&mut seeded_rng(seed), 16, 24, 8).expect("valid shape")
    }

    #[test]
    fn duplicate_and_bad_names_are_rejected() {
        let r = ModelRegistry::new(1).unwrap();
        r.add_model("a", operator(1), TenantConfig::default())
            .unwrap();
        assert!(matches!(
            r.add_model("a", operator(2), TenantConfig::default()),
            Err(RegistryError::DuplicateName(_))
        ));
        assert!(matches!(
            r.add_model("", operator(3), TenantConfig::default()),
            Err(RegistryError::BadName(_))
        ));
        let long = "x".repeat(MAX_NAME_LEN + 1);
        assert!(matches!(
            r.add_model(&long, operator(4), TenantConfig::default()),
            Err(RegistryError::BadName(_))
        ));
    }

    #[test]
    fn serialized_operator_round_trips_through_the_registry() {
        let w = operator(5);
        let mut bytes = Vec::new();
        serialize::save(&w, &mut bytes).unwrap();
        let r = ModelRegistry::new(1).unwrap();
        r.load_operator("fc", &bytes[..], TenantConfig::default())
            .unwrap();
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).sin()).collect();
        let served = r
            .get("fc")
            .unwrap()
            .submit(x.clone())
            .unwrap()
            .wait()
            .unwrap();
        // The serving path runs the batched engine; compare against the
        // same kernel (matvec's scalar FFT differs in the last ulp).
        let direct = w.matmat(&x, 1, &mut circnn_core::Workspace::new()).unwrap();
        assert_eq!(served, direct);
        assert!(matches!(
            r.load_operator("bad", &b"NOPE"[..], TenantConfig::default()),
            Err(RegistryError::Load(_))
        ));
    }

    #[test]
    fn quantized_spectra_stream_serves_through_the_registry() {
        use circnn_core::{CircError, QuantConfig, QuantizedOperator};
        let w = operator(8);
        let qop = QuantizedOperator::from_operator(&w, QuantConfig::default()).unwrap();
        let bound = qop.error_bound();
        let mut bytes = Vec::new();
        serialize::save_quantized_spectra(&qop, &mut bytes).unwrap();
        let r = ModelRegistry::new(1).unwrap();
        r.load_quantized_operator("fc-q", &bytes[..], TenantConfig::default())
            .unwrap();
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).sin()).collect();
        let served = r
            .get("fc-q")
            .unwrap()
            .submit(x.clone())
            .unwrap()
            .wait()
            .unwrap();
        let golden = w.matmat(&x, 1, &mut circnn_core::Workspace::new()).unwrap();
        for (a, b) in served.iter().zip(&golden) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
        // An overflow-capable stream must fail typed, not register.
        let fmt_off = 4 + 2 + 2 + 24;
        bytes[fmt_off..fmt_off + 4].copy_from_slice(&16u32.to_le_bytes());
        bytes[fmt_off + 8..fmt_off + 12].copy_from_slice(&16u32.to_le_bytes());
        assert!(matches!(
            r.load_quantized_operator("fc-q2", &bytes[..], TenantConfig::default()),
            Err(RegistryError::Load(SerializeError::Invalid(
                CircError::QuantOverflow { .. }
            )))
        ));
        // The f32 loader must not accept spectra streams.
        let mut good = Vec::new();
        serialize::save_quantized_spectra(&qop, &mut good).unwrap();
        assert!(matches!(
            r.load_operator("fc-q3", &good[..], TenantConfig::default()),
            Err(RegistryError::Load(SerializeError::UnsupportedVersion(3)))
        ));
    }

    #[test]
    fn listing_reports_sorted_geometry() {
        let r = ModelRegistry::new(1).unwrap();
        r.add_model("zeta", operator(6), TenantConfig::default())
            .unwrap();
        r.add_model("alpha", operator(7), TenantConfig::default())
            .unwrap();
        let list = r.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "alpha");
        assert_eq!(list[1].name, "zeta");
        assert_eq!(list[0].input_len, 24);
        assert_eq!(list[0].output_len, 16);
    }
}
