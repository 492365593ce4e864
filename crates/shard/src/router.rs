//! The scatter-gather router: one logical serving surface over a
//! cluster of [`circnn_wire::EventServer`] shards.
//!
//! Two tenant kinds route differently:
//!
//! * **Sharded** operators — the request's input is broadcast to every
//!   shard as an `InferSegment` call (the shard holds a row-slice of the
//!   weight spectra), and the per-row segments are stitched back into
//!   the full `[batch, m]` output. Row-slicing is bitwise-exact, so the
//!   stitched reply is identical to a single process serving the whole
//!   operator.
//! * **Forwarded** tenants — small stateless networks registered in
//!   full on every replica. The whole request goes to one replica chosen
//!   by consistent hashing over the tenant name ([`HashRing`]), walking
//!   the ring on failure.
//!
//! ## Failure model
//!
//! Every shard call runs under the request's **remaining** deadline
//! budget (the budget the front-end received, minus time already spent).
//! A replica failure fails over to the next replica only when retrying
//! elsewhere could help: transport errors, plus the remote's typed
//! capacity/lifecycle rejections (`QueueFull`, `Overloaded`,
//! `ShuttingDown`, `Internal`). Deterministic rejections (`BadInput`,
//! `UnknownModel`, `DeadlineExceeded`, …) return immediately — every
//! replica would answer the same. A request either returns the complete
//! bitwise-exact output or one typed error; a partially-stitched reply
//! cannot exist (any failed leg fails the whole gather).
//!
//! Readiness: [`ShardRouter::poll_health_once`] (or a background
//! [`HealthPoller`]) probes every replica with a bounded `Health` round
//! trip and gates routing order — healthy replicas are tried first, but
//! unhealthy ones are still tried last, so a stale poll can degrade
//! latency, never availability.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use circnn_serve::ServeStats;
use circnn_wire::{
    ClientConfig, ErrorCode, HealthInfo, ModelInfo, TenantHealth, WireClient, WireError,
    MAX_NAME_LEN,
};

use crate::pool::Replica;
use crate::topology::{ClusterSpec, HashRing};

/// Router knobs: the per-shard client policy plus pool and probe bounds.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Timeout/retry policy of every router→shard connection. The retry
    /// budget here is *per replica*; cross-replica failover is the
    /// router's own layer on top.
    pub client: ClientConfig,
    /// Bound on one readiness probe ([`WireClient::probe_health`]).
    pub probe_timeout: Duration,
    /// Idle connections pooled per replica (excess connections close).
    pub max_idle_per_replica: usize,
}

impl Default for RouterConfig {
    /// 2 s connect / 10 s read / 10 s write, one in-client retry, 500 ms
    /// probes, 4 pooled connections per replica.
    fn default() -> Self {
        Self {
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(2)),
                read_timeout: Some(Duration::from_secs(10)),
                write_timeout: Some(Duration::from_secs(10)),
                retries: 1,
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(100),
                ..ClientConfig::default()
            },
            probe_timeout: Duration::from_millis(500),
            max_idle_per_replica: 4,
        }
    }
}

/// Why building the router or registering a model failed.
#[derive(Debug)]
pub enum ShardError {
    /// The cluster has no shards, or a shard has no replicas.
    EmptyTopology(&'static str),
    /// The name is empty or longer than the wire's `MAX_NAME_LEN`.
    BadName(String),
    /// A model with this name is already registered on the router.
    DuplicateName(String),
    /// The segment table does not match the cluster (wrong count, gap,
    /// overlap, or empty segment).
    BadSegments(String),
}

impl core::fmt::Display for ShardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyTopology(why) => write!(f, "empty topology: {why}"),
            Self::BadName(name) => write!(
                f,
                "bad model name {name:?} (must be 1..={MAX_NAME_LEN} bytes)"
            ),
            Self::DuplicateName(name) => write!(f, "model {name:?} is already registered"),
            Self::BadSegments(why) => write!(f, "bad segment table: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One routed tenant.
#[derive(Debug, Clone)]
enum Tenant {
    /// Scatter-gather over every shard's registered row segment.
    Sharded {
        input_len: usize,
        output_len: usize,
        /// `(row_start, row_end)` served by shard `i`.
        segments: Vec<(usize, usize)>,
    },
    /// Whole-request forwarding to a ring-chosen replica.
    Forwarded { input_len: usize, output_len: usize },
}

impl Tenant {
    fn geometry(&self) -> (usize, usize) {
        match *self {
            Tenant::Sharded {
                input_len,
                output_len,
                ..
            }
            | Tenant::Forwarded {
                input_len,
                output_len,
            } => (input_len, output_len),
        }
    }
}

/// A typed local rejection, shaped like a remote one so every caller —
/// in-process or through [`crate::RouterServer`] — matches on the same
/// [`ErrorCode`]s.
fn typed(code: ErrorCode, message: String) -> WireError {
    WireError::Remote { code, message }
}

/// Whether failing over to another replica could change the outcome.
fn failover_worthy(e: &WireError) -> bool {
    match e {
        // Capacity/lifecycle rejections are per-replica conditions.
        WireError::Remote { code, .. } => matches!(
            code,
            ErrorCode::QueueFull
                | ErrorCode::Overloaded
                | ErrorCode::ShuttingDown
                | ErrorCode::Internal
        ),
        // Everything else is transport-level: the replica, not the
        // request, is the problem.
        _ => true,
    }
}

/// The request's time accounting: calls always carry the **remaining**
/// budget, and an exhausted budget fails typed before another socket
/// round trip is spent on it.
struct Deadline {
    start: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    fn begin(budget: Option<Duration>) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    fn remaining(&self) -> Result<Option<Duration>, WireError> {
        match self.budget {
            None => Ok(None),
            Some(b) => match b.checked_sub(self.start.elapsed()) {
                Some(rem) if !rem.is_zero() => Ok(Some(rem)),
                _ => Err(typed(
                    ErrorCode::DeadlineExceeded,
                    "deadline budget exhausted before a shard call could start".to_string(),
                )),
            },
        }
    }
}

/// The sharded serving tier's brain: tenant table, replica pools, ring
/// and failover policy. Front it with a [`crate::RouterServer`] to speak
/// the wire protocol, or call [`ShardRouter::infer`] in-process.
pub struct ShardRouter {
    /// `shards[s][r]` is replica `r` of shard `s`.
    shards: Vec<Vec<Replica>>,
    ring: HashRing,
    tenants: RwLock<HashMap<String, Tenant>>,
    cfg: RouterConfig,
}

impl core::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field(
                "models",
                &self.tenants.read().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

impl ShardRouter {
    /// Builds a router over `cluster` (no models yet).
    ///
    /// # Errors
    ///
    /// [`ShardError::EmptyTopology`] when the cluster has no shards or a
    /// shard has no replicas.
    pub fn new(cluster: &ClusterSpec, cfg: RouterConfig) -> Result<Self, ShardError> {
        if cluster.shards.is_empty() {
            return Err(ShardError::EmptyTopology("cluster has no shards"));
        }
        if cluster.shards.iter().any(|s| s.replicas.is_empty()) {
            return Err(ShardError::EmptyTopology("a shard has no replicas"));
        }
        let ring = HashRing::new(cluster);
        let shards = cluster
            .shards
            .iter()
            .map(|s| s.replicas.iter().map(|&addr| Replica::new(addr)).collect())
            .collect();
        Ok(Self {
            shards,
            ring,
            tenants: RwLock::new(HashMap::new()),
            cfg,
        })
    }

    /// Number of shards (row ranges) in the cluster.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn check_name(&self, name: &str) -> Result<(), ShardError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(ShardError::BadName(name.to_string()));
        }
        if self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(name)
        {
            return Err(ShardError::DuplicateName(name.to_string()));
        }
        Ok(())
    }

    /// Registers a **sharded** operator: shard `i` must hold a segment
    /// tenant named `name` covering `segments[i]`
    /// ([`circnn_wire::ModelRegistry::add_segment`]). The table must
    /// cover `0..m` contiguously with one non-empty range per shard
    /// (build it with [`crate::topology::segment_ranges`]).
    ///
    /// # Errors
    ///
    /// [`ShardError::BadSegments`] for a table that does not match the
    /// cluster, plus name errors as [`ShardError::BadName`] /
    /// [`ShardError::DuplicateName`].
    pub fn add_sharded_model(
        &self,
        name: &str,
        input_len: usize,
        segments: &[(usize, usize)],
    ) -> Result<(), ShardError> {
        self.check_name(name)?;
        if segments.len() != self.shards.len() {
            return Err(ShardError::BadSegments(format!(
                "{} segments for {} shards",
                segments.len(),
                self.shards.len()
            )));
        }
        let mut expect = 0;
        for &(start, end) in segments {
            if start != expect || end <= start {
                return Err(ShardError::BadSegments(format!(
                    "segment {start}..{end} breaks contiguous coverage at row {expect}"
                )));
            }
            expect = end;
        }
        self.tenants
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                name.to_string(),
                Tenant::Sharded {
                    input_len,
                    output_len: expect,
                    segments: segments.to_vec(),
                },
            );
        Ok(())
    }

    /// Registers a **forwarded** tenant: every replica must hold the
    /// whole model under `name`; requests go to the ring-chosen replica.
    ///
    /// # Errors
    ///
    /// Name errors as [`ShardError::BadName`] /
    /// [`ShardError::DuplicateName`].
    pub fn add_forwarded_model(
        &self,
        name: &str,
        input_len: usize,
        output_len: usize,
    ) -> Result<(), ShardError> {
        self.check_name(name)?;
        self.tenants
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                name.to_string(),
                Tenant::Forwarded {
                    input_len,
                    output_len,
                },
            );
        Ok(())
    }

    /// Unregisters `name` from the router (the shards keep their
    /// tenants). Returns `false` if no such model existed.
    pub fn remove_model(&self, name: &str) -> bool {
        self.tenants
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some()
    }

    /// The router's catalog, sorted by name. Queue depths live on the
    /// shards, so `pending` is reported as 0 here.
    pub fn list(&self) -> Vec<ModelInfo> {
        let map = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<ModelInfo> = map
            .iter()
            .map(|(name, t)| {
                let (input_len, output_len) = t.geometry();
                ModelInfo {
                    name: name.clone(),
                    input_len: input_len as u32,
                    output_len: output_len as u32,
                    pending: 0,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Tries the replicas in readiness order (healthy first, unhealthy
    /// as a last resort), failing over per [`failover_worthy`]. A
    /// connection that saw any failure is dropped, never pooled.
    fn route<T>(
        &self,
        replicas: &[&Replica],
        deadline: &Deadline,
        mut op: impl FnMut(&mut WireClient, Option<Duration>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut order: Vec<&Replica> = Vec::with_capacity(replicas.len());
        order.extend(replicas.iter().copied().filter(|r| r.is_healthy()));
        order.extend(replicas.iter().copied().filter(|r| !r.is_healthy()));
        let mut last: Option<WireError> = None;
        for replica in order {
            let budget = deadline.remaining()?;
            let mut client = match replica.checkout(&self.cfg.client) {
                Ok(client) => client,
                Err(e) => {
                    replica.mark(false);
                    last = Some(e);
                    continue;
                }
            };
            match op(&mut client, budget) {
                Ok(value) => {
                    replica.mark(true);
                    replica.checkin(client, self.cfg.max_idle_per_replica);
                    return Ok(value);
                }
                Err(e) => {
                    // Only transport failures impugn the replica; a typed
                    // rejection came from a live, well-behaved server.
                    if !matches!(e, WireError::Remote { .. }) {
                        replica.mark(false);
                    }
                    if !failover_worthy(&e) {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            typed(
                ErrorCode::Internal,
                "no replica is configured for this shard".to_string(),
            )
        }))
    }

    /// The ring-ordered replica list for a forwarded key.
    fn ring_replicas(&self, key: &str) -> Vec<&Replica> {
        self.ring
            .walk(key)
            .into_iter()
            .map(|(s, r)| &self.shards[s][r])
            .collect()
    }

    /// One inference through the cluster (no deadline).
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::infer_batch`].
    pub fn infer(&self, model: &str, input: &[f32]) -> Result<Vec<f32>, WireError> {
        self.infer_deadline(model, input, None)
    }

    /// One inference through the cluster under an optional deadline
    /// budget.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::infer_batch`].
    pub fn infer_deadline(
        &self,
        model: &str,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<Vec<f32>, WireError> {
        self.infer_batch(model, 1, input, budget)
    }

    /// A batched inference through the cluster: `input` is row-major
    /// `[batch, n]`, the reply row-major `[batch, m]` — **bit-identical**
    /// to the same model served by one process. Sharded tenants
    /// scatter-gather; forwarded tenants go whole to the ring-chosen
    /// replica.
    ///
    /// # Errors
    ///
    /// Typed [`WireError::Remote`] rejections (unknown model, bad input,
    /// exhausted deadline, shard capacity), or the last transport error
    /// once every replica of some shard failed. Never a partial output.
    pub fn infer_batch(
        &self,
        model: &str,
        batch: usize,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<Vec<f32>, WireError> {
        let deadline = Deadline::begin(budget);
        let Some(tenant) = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(model)
            .cloned()
        else {
            return Err(typed(
                ErrorCode::UnknownModel,
                format!("no model named {model:?} is registered on the router"),
            ));
        };
        let (n, m) = tenant.geometry();
        if batch == 0 || input.len() != batch * n {
            return Err(typed(
                ErrorCode::BadInput,
                format!(
                    "batch of {batch} rows needs {} values, got {}",
                    batch * n,
                    input.len()
                ),
            ));
        }
        match tenant {
            Tenant::Forwarded { .. } => self.route(&self.ring_replicas(model), &deadline, {
                |client, budget| {
                    if batch == 1 {
                        client.infer_deadline(model, input, budget)
                    } else {
                        client.infer_batch(model, batch, input, budget)
                    }
                }
            }),
            Tenant::Sharded { segments, .. } => {
                self.scatter_gather(model, batch, m, input, &segments, &deadline)
            }
        }
    }

    /// Fans the shared input out to every shard's segment and stitches
    /// the gathered segments into `[batch, m]`. All or nothing: any
    /// leg's failure fails the request with that leg's typed error.
    ///
    /// Threadless: every leg is **pipelined** — phase one sends one
    /// `InferSegment` per shard over a pooled connection (the shards
    /// compute concurrently), phase two collects the replies in leg
    /// order. No scatter threads are spawned; a router fronted by the
    /// event loop fans out to any number of shards from one I/O thread.
    /// A leg whose pipelined attempt fails falls back to the synchronous
    /// routed path (healthy replicas first, the failed one — now marked
    /// unhealthy — last).
    fn scatter_gather(
        &self,
        model: &str,
        batch: usize,
        m: usize,
        input: &[f32],
        segments: &[(usize, usize)],
        deadline: &Deadline,
    ) -> Result<Vec<f32>, WireError> {
        // Phase 1: scatter. One in-flight segment call per shard.
        let budget = deadline.remaining()?;
        let mut sent: Vec<Option<(usize, WireClient)>> = Vec::with_capacity(segments.len());
        for (s, &(row_start, row_end)) in segments.iter().enumerate() {
            let replicas = &self.shards[s];
            let mut order: Vec<usize> = Vec::with_capacity(replicas.len());
            order.extend((0..replicas.len()).filter(|&r| replicas[r].is_healthy()));
            order.extend((0..replicas.len()).filter(|&r| !replicas[r].is_healthy()));
            let mut leg = None;
            for r in order {
                let replica = &replicas[r];
                let Ok(mut client) = replica.checkout(&self.cfg.client) else {
                    replica.mark(false);
                    continue;
                };
                match client.send_infer_segment(model, row_start, row_end, batch, input, budget) {
                    Ok(()) => {
                        leg = Some((r, client));
                        break;
                    }
                    // The send never reached a reply; the connection is
                    // dropped and phase 2 retries this leg elsewhere.
                    Err(_) => replica.mark(false),
                }
            }
            sent.push(leg);
        }
        // Phase 2: gather in leg order, stitching rows into place. The
        // client verified each echoed range and length, so the stitch
        // cannot misattribute rows.
        let mut out = vec![0.0f32; batch * m];
        for (s, &(row_start, row_end)) in segments.iter().enumerate() {
            let seg = match sent[s].take() {
                Some((r, mut client)) => {
                    let replica = &self.shards[s][r];
                    match client.recv_infer_segment() {
                        Ok(seg) => {
                            replica.mark(true);
                            replica.checkin(client, self.cfg.max_idle_per_replica);
                            Ok(seg)
                        }
                        Err(e) => {
                            // Only transport failures impugn the replica.
                            if !matches!(e, WireError::Remote { .. }) {
                                replica.mark(false);
                            }
                            if failover_worthy(&e) {
                                self.retry_segment(
                                    s, model, row_start, row_end, batch, input, deadline,
                                )
                            } else {
                                Err(e)
                            }
                        }
                    }
                }
                None => self.retry_segment(s, model, row_start, row_end, batch, input, deadline),
            }?;
            let rows = row_end - row_start;
            for b in 0..batch {
                out[b * m + row_start..b * m + row_end]
                    .copy_from_slice(&seg[b * rows..(b + 1) * rows]);
            }
        }
        Ok(out)
    }

    /// Synchronous fallback for one failed scatter leg: a full routed
    /// round trip over the shard's replicas under the remaining budget.
    #[allow(clippy::too_many_arguments)]
    fn retry_segment(
        &self,
        s: usize,
        model: &str,
        row_start: usize,
        row_end: usize,
        batch: usize,
        input: &[f32],
        deadline: &Deadline,
    ) -> Result<Vec<f32>, WireError> {
        let replicas: Vec<&Replica> = self.shards[s].iter().collect();
        self.route(&replicas, deadline, |client, budget| {
            client.infer_segment(model, row_start, row_end, batch, input, budget)
        })
    }

    /// One replica's serving statistics for `model` (the ring-chosen
    /// home replica's view — per-replica counters do not aggregate
    /// meaningfully across a cluster).
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::infer_batch`].
    pub fn stats(&self, model: &str) -> Result<ServeStats, WireError> {
        if !self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(model)
        {
            return Err(typed(
                ErrorCode::UnknownModel,
                format!("no model named {model:?} is registered on the router"),
            ));
        }
        let deadline = Deadline::begin(None);
        self.route(&self.ring_replicas(model), &deadline, |client, _| {
            client.stats(model)
        })
    }

    /// Probes every replica once with a bounded `Health` round trip,
    /// refreshing the readiness flags that order routing. Returns the
    /// number of routable (healthy) replicas.
    pub fn poll_health_once(&self) -> usize {
        self.probe_all().0
    }

    /// A cluster-wide health snapshot: probes every replica (updating
    /// readiness), and merges the per-tenant degradation counters of the
    /// replicas that answered. `models` counts the router's own catalog.
    pub fn cluster_health(&self) -> HealthInfo {
        let (_, tenants) = self.probe_all();
        HealthInfo {
            models: self.tenants.read().unwrap_or_else(|e| e.into_inner()).len() as u32,
            tenants,
        }
    }

    fn probe_all(&self) -> (usize, Vec<TenantHealth>) {
        let mut healthy = 0;
        let mut merged: BTreeMap<String, TenantHealth> = BTreeMap::new();
        for shard in &self.shards {
            for replica in shard {
                let probed = replica.checkout(&self.cfg.client).and_then(|mut client| {
                    let health = client.probe_health(self.cfg.probe_timeout)?;
                    replica.checkin(client, self.cfg.max_idle_per_replica);
                    Ok(health)
                });
                match probed {
                    Ok(health) => {
                        replica.mark(true);
                        healthy += 1;
                        for t in health.tenants {
                            let entry = merged.entry(t.name.clone()).or_insert(TenantHealth {
                                name: t.name.clone(),
                                pending: 0,
                                shed: 0,
                                rejected: 0,
                                expired: 0,
                                panics: 0,
                            });
                            entry.pending += t.pending;
                            entry.shed += t.shed;
                            entry.rejected += t.rejected;
                            entry.expired += t.expired;
                            entry.panics += t.panics;
                        }
                    }
                    Err(_) => replica.mark(false),
                }
            }
        }
        (healthy, merged.into_values().collect())
    }

    /// Drops every pooled idle connection (shutdown hygiene; pools
    /// refill lazily on the next request).
    pub fn drain_pools(&self) {
        for shard in &self.shards {
            for replica in shard {
                replica.drain();
            }
        }
    }
}

/// A background readiness poller: probes the whole cluster every
/// `interval` until stopped (or dropped).
pub struct HealthPoller {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl core::fmt::Debug for HealthPoller {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HealthPoller").finish()
    }
}

impl HealthPoller {
    /// Stops the poller and joins its thread.
    pub fn stop(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HealthPoller {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Spawns a [`HealthPoller`] over `router`, probing every `interval`.
pub fn spawn_health_poller(router: Arc<ShardRouter>, interval: Duration) -> HealthPoller {
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("circnn-shard-health".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    router.poll_health_once();
                    // Sleep in short slices so stop() returns promptly.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop.load(Ordering::SeqCst) {
                        let slice = (interval - slept).min(Duration::from_millis(50));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .expect("spawning the health poller thread")
    };
    HealthPoller {
        stop,
        handle: Some(handle),
    }
}
