//! The replica scheduler: iteration-level batch formation plus memory
//! management (paper §4.5, middle tier).
//!
//! Each call to [`ReplicaScheduler::next_batch`] forms the next iteration's
//! batch according to the configured policy. The paper notes all five
//! policies fit in under 150 lines each on top of the memory-manager API —
//! the same holds here.
//!
//! In-flight bookkeeping: slices handed out in a batch mark their request
//! in-flight until [`ReplicaScheduler::complete_batch`] is called, so with
//! pipeline parallelism several disjoint batches can execute concurrently
//! without double-scheduling a request.
//!
//! # Hot-loop design
//!
//! `next_batch` runs once per simulated iteration — hundreds of thousands of
//! times per run, millions of times per search — so its steady state is
//! allocation-free and scan-free:
//!
//! * The running set is **phase-partitioned** into two intrusive
//!   doubly-linked lists ([`Self::prefilling`] / [`Self::decoding`]) threaded
//!   through `TrackedRequest::{prev, next}` and ordered by an admission
//!   sequence number, which reproduces the seed's single admission-ordered
//!   `running` vector exactly (the differential proptest in
//!   `tests/formation_equivalence.rs` pins this). Admit, finish and preempt
//!   are O(1) unlinks instead of `retain`/`rposition` scans.
//! * Per-call slot snapshots go through one reusable scratch buffer; batch
//!   slice vectors are pooled and round-trip through
//!   [`ReplicaScheduler::recycle_batch`].
//! * LightLLM's projected-KV admission bound is a counter maintained on
//!   admit/finish/preempt instead of a per-call re-sum over the running set.
//! * Requests live in a [`SlotSlab`] under replica-local handles that are
//!   recycled on finish, and the block manager is keyed by the same handles.
//!   Replica state is therefore sized by the peak number of live requests,
//!   not by the trace — which keeps the sharded engine's per-window
//!   checkpoints cheap — and every formed slice carries its handle
//!   ([`RequestSlice::slot`]), so completion indexes instead of looking ids
//!   up. Trace ids are hashed once per request, into a live-id set that
//!   rejects duplicates; only cold paths (crash eviction, drain,
//!   [`request`] by id) map between ids and handles.
//!
//! [`request`]: ReplicaScheduler::request

use crate::config::{BatchPolicyKind, SchedulerConfig};
use crate::memory::BlockManager;
use crate::request::{Request, RequestId, RequestPhase, TrackedRequest};
use crate::slab::{Slot, SlotSlab, NO_SLOT};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use vidur_model::batch::{BatchComposition, RequestSlice};

/// What happened to a request when a batch completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionEvent {
    /// The request.
    pub id: RequestId,
    /// The request's prefill finished in this batch (TTFT point).
    pub prefill_completed: bool,
    /// One output token was produced in this batch.
    pub produced_token: bool,
    /// The request produced its last token and left the replica.
    pub finished: bool,
}

/// Iteration-level replica scheduler with paged KV memory management.
///
/// # Example
///
/// ```
/// use vidur_core::time::SimTime;
/// use vidur_scheduler::{BatchPolicyKind, ReplicaScheduler, Request, SchedulerConfig};
///
/// let config = SchedulerConfig::new(BatchPolicyKind::Vllm, 8);
/// let mut sched = ReplicaScheduler::new(config, 1_000, 16);
/// sched.add_request(Request::new(0, SimTime::ZERO, 100, 5));
/// let batch = sched.next_batch().expect("prefill batch");
/// assert_eq!(batch.total_query_tokens(), 100);
/// let events = sched.complete_batch(&batch);
/// assert!(events[0].prefill_completed);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaScheduler {
    config: SchedulerConfig,
    /// KV accounting, keyed by request slot.
    blocks: BlockManager,
    /// Live requests (waiting, parked, or running) under recycled handles.
    requests: SlotSlab<TrackedRequest>,
    /// Trace ids of the live requests (duplicate detection only).
    live_ids: HashSet<RequestId>,
    waiting: VecDeque<Slot>,
    /// Admitted requests still prefilling, in admission order.
    prefilling: PhaseList,
    /// Admitted requests in decode phase, in admission order.
    decoding: PhaseList,
    /// Next admission sequence number (re-assigned on re-admission, so list
    /// order always matches the seed's admission-ordered `running` vector).
    admit_seq: u64,
    /// Σ `spec.total_tokens()` over the running set (LightLLM's projected
    /// KV footprint), maintained incrementally on admit/finish/preempt.
    projected_tokens: u64,
    /// Latched once any request arrives with a non-zero priority class.
    /// While `false` the waiting queue degenerates to plain FIFO and the
    /// preemption victim walk keeps its early-exit fast path, so
    /// single-priority runs pay nothing for the tier machinery.
    priority_in_use: bool,
    /// Per-tenant KV block quotas (index = tenant id; tenants at or beyond
    /// the list are unlimited). Empty = quotas disabled; every quota branch
    /// below is gated on non-emptiness, so the default hot loop is
    /// untouched.
    tenant_quota_blocks: Vec<u64>,
    /// Blocks currently held per tenant on this replica. Maintained only
    /// while quotas are enabled.
    tenant_held_blocks: Vec<u64>,
    /// Requests parked because admitting them would put their tenant over
    /// quota. They re-enter the front of their priority tier once the
    /// tenant's holdings drop (see
    /// [`ReplicaScheduler::apply_quota_parking`]).
    quota_parked: VecDeque<Slot>,
    /// Per-tenant admission denials (waiting → parked transitions).
    quota_denied: Vec<u64>,
    /// Reusable buffers for the park/unpark pre-pass.
    park_scratch: Vec<Slot>,
    quota_extra_scratch: Vec<u64>,
    /// Reusable slot-snapshot buffer for batch formation passes.
    ids_scratch: Vec<Slot>,
    /// Recycled slice storage for formed batches (see
    /// [`ReplicaScheduler::recycle_batch`]).
    slice_pool: Vec<Vec<RequestSlice>>,
    preemptions: u64,
    completed: u64,
    /// Set while the replica is gracefully draining: every admission path
    /// (policy admission loops and the prefetched-KV pass) refuses to move
    /// work from waiting into running, so in-flight batches finish and the
    /// queue can be migrated. See [`ReplicaScheduler::drain_queued`].
    admissions_closed: bool,
    /// Admissions that hit the prefix cache (each re-admission after a
    /// preemption that hits again counts again — it genuinely skips work).
    prefix_hit_requests: u64,
    /// Prefill tokens skipped by prefix-cache hits.
    prefix_tokens_saved: u64,
    /// Per-tenant hit counts (index = tenant id; grows on demand).
    tenant_prefix_hits: Vec<u64>,
    /// Per-tenant tokens saved (index = tenant id; grows on demand).
    tenant_prefix_saved: Vec<u64>,
}

/// An intrusive doubly-linked list over [`TrackedRequest`]s, ordered by
/// admission sequence. Links live in the requests themselves, so unlink is
/// O(1) and iteration allocates nothing.
#[derive(Debug, Clone, Copy)]
struct PhaseList {
    head: Slot,
    tail: Slot,
    len: usize,
}

impl PhaseList {
    const fn new() -> Self {
        PhaseList {
            head: NO_SLOT,
            tail: NO_SLOT,
            len: 0,
        }
    }

    /// Inserts `slot` keeping the list sorted by `admit_seq`. Appending is the
    /// overwhelmingly common case (new admissions get the highest sequence;
    /// prefill→decode transitions almost always happen in admission order) —
    /// the backward walk only pays when pipeline parallelism lets a
    /// later-admitted request finish its chunked prefill first.
    fn insert_ordered(&mut self, requests: &mut SlotSlab<TrackedRequest>, slot: Slot) {
        let seq = requests[slot].admit_seq;
        let mut after = self.tail;
        while after != NO_SLOT && requests[after].admit_seq > seq {
            after = requests[after].prev;
        }
        let before = if after == NO_SLOT {
            self.head
        } else {
            requests[after].next
        };
        {
            let r = &mut requests[slot];
            r.prev = after;
            r.next = before;
        }
        if after == NO_SLOT {
            self.head = slot;
        } else {
            requests[after].next = slot;
        }
        if before == NO_SLOT {
            self.tail = slot;
        } else {
            requests[before].prev = slot;
        }
        self.len += 1;
    }

    /// Unlinks `slot` in O(1) via its intrusive links.
    fn unlink(&mut self, requests: &mut SlotSlab<TrackedRequest>, slot: Slot) {
        let (prev, next) = {
            let r = &requests[slot];
            (r.prev, r.next)
        };
        if prev == NO_SLOT {
            self.head = next;
        } else {
            requests[prev].next = next;
        }
        if next == NO_SLOT {
            self.tail = prev;
        } else {
            requests[next].prev = prev;
        }
        let r = &mut requests[slot];
        r.prev = NO_SLOT;
        r.next = NO_SLOT;
        self.len -= 1;
    }
}

impl ReplicaScheduler {
    /// Creates a scheduler over `total_blocks` KV blocks of `block_size`
    /// tokens.
    pub fn new(config: SchedulerConfig, total_blocks: u64, block_size: u32) -> Self {
        ReplicaScheduler {
            blocks: BlockManager::new(total_blocks, block_size, config.watermark_frac),
            config,
            requests: SlotSlab::new(),
            live_ids: HashSet::new(),
            waiting: VecDeque::new(),
            prefilling: PhaseList::new(),
            decoding: PhaseList::new(),
            admit_seq: 0,
            projected_tokens: 0,
            priority_in_use: false,
            tenant_quota_blocks: Vec::new(),
            tenant_held_blocks: Vec::new(),
            quota_parked: VecDeque::new(),
            quota_denied: Vec::new(),
            park_scratch: Vec::new(),
            quota_extra_scratch: Vec::new(),
            ids_scratch: Vec::new(),
            slice_pool: Vec::new(),
            preemptions: 0,
            completed: 0,
            admissions_closed: false,
            prefix_hit_requests: 0,
            prefix_tokens_saved: 0,
            tenant_prefix_hits: Vec::new(),
            tenant_prefix_saved: Vec::new(),
        }
    }

    /// Arms the prefix-cache tier on this replica's block manager: requests
    /// sharing a prefix id borrow reference-counted cached prefix blocks,
    /// and a cache hit skips the cached prefill tokens at admission. Leaving
    /// the tier disarmed is byte-identical to a build without it.
    ///
    /// # Panics
    ///
    /// Panics if any request was already added (a mid-run arm would let
    /// earlier admissions miss entries that later releases dereference).
    pub fn arm_prefix_cache(&mut self) {
        assert!(
            self.requests.is_empty(),
            "prefix cache must be armed before any request is added"
        );
        self.blocks.arm_prefix_cache();
    }

    /// Admissions that hit the prefix cache so far.
    pub fn prefix_hit_requests(&self) -> u64 {
        self.prefix_hit_requests
    }

    /// Prefill tokens skipped by prefix-cache hits so far.
    pub fn prefix_tokens_saved(&self) -> u64 {
        self.prefix_tokens_saved
    }

    /// Per-tenant prefix-hit counts (index = tenant id; may be shorter than
    /// the tenant count — missing entries are zero).
    pub fn tenant_prefix_hits(&self) -> &[u64] {
        &self.tenant_prefix_hits
    }

    /// Per-tenant prefill tokens saved (index = tenant id; may be shorter
    /// than the tenant count — missing entries are zero).
    pub fn tenant_prefix_saved(&self) -> &[u64] {
        &self.tenant_prefix_saved
    }

    /// Arms per-tenant KV block quotas: `quota_blocks[t]` caps the blocks
    /// tenant `t` may hold on this replica *through admission* (decode
    /// growth of already-admitted work is never quota-blocked, mirroring
    /// the watermark philosophy). Tenants at or beyond the slice are
    /// unlimited. A request whose solo admission need already exceeds its
    /// tenant's quota is exempt — otherwise the quota could never admit it
    /// and the queue would deadlock.
    ///
    /// # Panics
    ///
    /// Panics if any request was already added: per-tenant holdings are
    /// only tracked while quotas are armed, so arming mid-run would
    /// under-count pre-existing reservations (and underflow when they
    /// release).
    pub fn set_tenant_quotas(&mut self, quota_blocks: &[u64]) {
        assert!(
            self.requests.is_empty(),
            "tenant quotas must be armed before any request is added"
        );
        self.tenant_quota_blocks = quota_blocks.to_vec();
    }

    /// Per-tenant quota denial counts so far (index = tenant id; empty when
    /// quotas are disabled or nothing was denied yet).
    pub fn quota_denied(&self) -> &[u64] {
        &self.quota_denied
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The KV block manager (read access for metrics).
    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Enqueues an arriving request at the back of its priority tier.
    ///
    /// # Panics
    ///
    /// Panics if a request with the same id is still live here (a finished
    /// or evicted id may return).
    pub fn add_request(&mut self, req: Request) {
        self.track(TrackedRequest::new(req));
    }

    /// Stores a new live request under a fresh slot and queues it.
    fn track(&mut self, tracked: TrackedRequest) {
        let id = tracked.spec.id;
        assert!(self.live_ids.insert(id), "duplicate request id {id}");
        self.priority_in_use |= tracked.spec.priority != 0;
        let slot = self.requests.insert(tracked);
        self.enqueue_waiting_back(slot);
    }

    /// Enqueues a request whose prompt was prefilled on *another* replica
    /// and whose KV-cache has been transferred here (prefill/decode
    /// disaggregation, à la Splitwise/DistServe — paper §2.2). The request
    /// enters the waiting queue already in the decode phase with
    /// `already_decoded` output tokens produced remotely.
    ///
    /// # Panics
    ///
    /// Panics on duplicate live ids or if `already_decoded` is not in
    /// `1..=decode_tokens` (the prefill node produces the first token).
    pub fn add_remote_prefilled(&mut self, req: Request, already_decoded: u64) {
        assert!(
            already_decoded >= 1 && already_decoded <= req.decode_tokens,
            "remote prefill must have produced 1..=decode_tokens tokens"
        );
        let mut tracked = TrackedRequest::new(req);
        tracked.prefilled = req.prefill_tokens;
        tracked.decoded = already_decoded;
        self.track(tracked);
    }

    /// Inserts `slot` at the **back of its priority tier** in the waiting
    /// queue: after every request of its class or a more urgent one, before
    /// the first request of a less urgent class. The queue is always sorted
    /// by (priority, enqueue order), so the scan from the back is O(1)
    /// whenever the new request's class is the least urgent present — the
    /// overwhelmingly common case, and always true in single-priority runs.
    fn enqueue_waiting_back(&mut self, slot: Slot) {
        if !self.priority_in_use {
            self.waiting.push_back(slot);
            return;
        }
        let p = self.requests[slot].spec.priority;
        let pos = self
            .waiting
            .iter()
            .rposition(|&w| self.requests[w].spec.priority <= p)
            .map_or(0, |i| i + 1);
        self.waiting.insert(pos, slot);
    }

    /// Inserts `slot` at the **front of its priority tier** — the preemption
    /// requeue position: a restarted victim goes back ahead of its own
    /// class but never ahead of a more urgent one.
    fn enqueue_waiting_front(&mut self, slot: Slot) {
        if !self.priority_in_use {
            self.waiting.push_front(slot);
            return;
        }
        let p = self.requests[slot].spec.priority;
        let pos = self
            .waiting
            .iter()
            .position(|&w| self.requests[w].spec.priority >= p)
            .unwrap_or(self.waiting.len());
        self.waiting.insert(pos, slot);
    }

    // ---- per-tenant KV quotas -------------------------------------------

    /// The tenant's quota, or `u64::MAX` when unlimited.
    fn quota_of(&self, tenant: u32) -> u64 {
        self.tenant_quota_blocks
            .get(tenant as usize)
            .copied()
            .unwrap_or(u64::MAX)
    }

    /// Blocks tenant `tenant` currently holds on this replica.
    fn tenant_held(&self, tenant: u32) -> u64 {
        self.tenant_held_blocks
            .get(tenant as usize)
            .copied()
            .unwrap_or(0)
    }

    fn add_tenant_held(&mut self, tenant: u32, delta: i64) {
        let idx = tenant as usize;
        if idx >= self.tenant_held_blocks.len() {
            self.tenant_held_blocks.resize(idx + 1, 0);
        }
        let held = &mut self.tenant_held_blocks[idx];
        *held = held
            .checked_add_signed(delta)
            .expect("tenant block accounting underflow");
    }

    fn bump_quota_denied(&mut self, tenant: u32) {
        let idx = tenant as usize;
        if idx >= self.quota_denied.len() {
            self.quota_denied.resize(idx + 1, 0);
        }
        self.quota_denied[idx] += 1;
    }

    /// Whether admitting `slot` with a reservation for `tokens` keeps its
    /// tenant within quota. Solo-infeasible requests (need > quota outright)
    /// are exempt — see [`ReplicaScheduler::set_tenant_quotas`].
    fn within_quota(&self, slot: Slot, tokens: u64) -> bool {
        if self.tenant_quota_blocks.is_empty() {
            return true;
        }
        let tenant = self.requests[slot].spec.tenant;
        let quota = self.quota_of(tenant);
        if quota == u64::MAX {
            return true;
        }
        let need = self.blocks.blocks_for(tokens);
        if need > quota {
            return true;
        }
        self.tenant_held(tenant) + need <= quota
    }

    /// The blocks-worth of tokens the admission path will reserve for `slot`:
    /// the transferred KV plus one token for remote-prefilled requests, the
    /// full footprint for FasterTransformer cohorts, the prompt otherwise.
    fn admission_tokens_for(&self, slot: Slot) -> u64 {
        let r = &self.requests[slot];
        if r.remaining_prefill() == 0 {
            return r.cached_tokens() + 1;
        }
        match self.config.policy {
            BatchPolicyKind::FasterTransformer => r.spec.total_tokens(),
            _ => r.spec.prefill_tokens,
        }
    }

    /// The quota unpark pre-pass, run at the top of every `next_batch`
    /// while quotas are armed: parked requests whose tenant is back under
    /// quota rejoin the front of their priority tier (in original order,
    /// bounded by what actually fits so one release never floods the queue
    /// with requests that would immediately re-park).
    fn apply_quota_parking(&mut self) {
        if self.tenant_quota_blocks.is_empty() || self.quota_parked.is_empty() {
            return;
        }
        self.quota_extra_scratch.clear();
        self.quota_extra_scratch
            .resize(self.tenant_quota_blocks.len(), 0);
        let mut unpark = std::mem::take(&mut self.park_scratch);
        unpark.clear();
        for &slot in &self.quota_parked {
            let tenant = self.requests[slot].spec.tenant;
            let quota = self.quota_of(tenant);
            let need = self.blocks.blocks_for(self.admission_tokens_for(slot));
            let extra = self
                .quota_extra_scratch
                .get(tenant as usize)
                .copied()
                .unwrap_or(0);
            if need > quota || self.tenant_held(tenant) + extra + need <= quota {
                unpark.push(slot);
                if let Some(e) = self.quota_extra_scratch.get_mut(tenant as usize) {
                    *e += need;
                }
            }
        }
        for &slot in &unpark {
            let pos = self
                .quota_parked
                .iter()
                .position(|&p| p == slot)
                .expect("parked");
            self.quota_parked.remove(pos);
        }
        // Front-of-tier inserts prepend within the tier, so walk the batch
        // backwards to restore original order.
        for &slot in unpark.iter().rev() {
            self.enqueue_waiting_front(slot);
        }
        self.park_scratch = unpark;
    }

    /// Parks consecutive quota-blocked requests at the waiting front so the
    /// next admissible request surfaces — an over-quota tenant's backlog
    /// must not head-of-line-block other tenants. Called by every admission
    /// loop before it reads the front; no-op while quotas are disarmed.
    fn park_quota_blocked_front(&mut self) {
        if self.tenant_quota_blocks.is_empty() {
            return;
        }
        while let Some(&slot) = self.waiting.front() {
            if self.within_quota(slot, self.admission_tokens_for(slot)) {
                break;
            }
            self.waiting.pop_front();
            self.quota_parked.push_back(slot);
            let tenant = self.requests[slot].spec.tenant;
            self.bump_quota_denied(tenant);
        }
    }

    /// [`BlockManager::try_reserve`] plus per-tenant holding accounting
    /// (admission path).
    fn reserve_blocks(&mut self, slot: Slot, tokens: u64) -> bool {
        if self.tenant_quota_blocks.is_empty() {
            return self.blocks.try_reserve(slot.into(), tokens);
        }
        let before = self.blocks.held_by(slot.into());
        let ok = self.blocks.try_reserve(slot.into(), tokens);
        if ok {
            let delta = self.blocks.held_by(slot.into()) - before;
            let tenant = self.requests[slot].spec.tenant;
            self.add_tenant_held(tenant, delta as i64);
        }
        ok
    }

    /// [`BlockManager::try_reserve_prefixed`] plus per-tenant holding
    /// accounting (the policy admission path): reserves for `tokens`,
    /// borrowing cached prefix blocks on a hit, and returns the prefill
    /// tokens the hit skips (0 on a miss or for prefix-free requests).
    /// Tenants are charged only for the blocks the request itself owns —
    /// shared prefix blocks belong to the cache tier.
    fn reserve_blocks_prefixed(&mut self, slot: Slot, tokens: u64) -> Option<u64> {
        let spec = self.requests[slot].spec;
        if self.tenant_quota_blocks.is_empty() {
            return self.blocks.try_reserve_prefixed(
                slot.into(),
                tokens,
                spec.prefix_id,
                spec.prefill_tokens,
                spec.prefix_len,
            );
        }
        let before = self.blocks.held_by(slot.into());
        let hit = self.blocks.try_reserve_prefixed(
            slot.into(),
            tokens,
            spec.prefix_id,
            spec.prefill_tokens,
            spec.prefix_len,
        )?;
        let delta = self.blocks.held_by(slot.into()) as i64 - before as i64;
        self.add_tenant_held(spec.tenant, delta);
        Some(hit)
    }

    /// [`BlockManager::try_grow`] plus per-tenant holding accounting
    /// (decode-growth path; never quota-blocked).
    fn grow_blocks(&mut self, slot: Slot, tokens: u64) -> bool {
        if self.tenant_quota_blocks.is_empty() {
            return self.blocks.try_grow(slot.into(), tokens);
        }
        let before = self.blocks.held_by(slot.into());
        let ok = self.blocks.try_grow(slot.into(), tokens);
        if ok {
            let delta = self.blocks.held_by(slot.into()) - before;
            let tenant = self.requests[slot].spec.tenant;
            self.add_tenant_held(tenant, delta as i64);
        }
        ok
    }

    /// [`BlockManager::release`] plus per-tenant holding accounting.
    fn release_blocks(&mut self, slot: Slot) {
        if !self.tenant_quota_blocks.is_empty() {
            let held = self.blocks.held_by(slot.into());
            if held > 0 {
                let tenant = self.requests[slot].spec.tenant;
                self.add_tenant_held(tenant, -(held as i64));
            }
        }
        self.blocks.release(slot.into());
    }

    /// Admits waiting requests that need **no** prefill (their KV arrived
    /// from a prefill replica) straight into the running set. Called by
    /// every policy before batch formation; FIFO order is preserved.
    fn admit_prefetched(&mut self) {
        if self.admissions_closed {
            return;
        }
        while self.num_running() < self.config.max_batch_size {
            self.park_quota_blocked_front();
            let Some(&slot) = self.waiting.front() else {
                break;
            };
            let r = &self.requests[slot];
            if r.remaining_prefill() > 0 {
                break;
            }
            // Reserve the transferred KV plus room for the next token.
            let need = r.cached_tokens() + 1;
            if !self.reserve_blocks(slot, need) {
                break;
            }
            self.waiting.pop_front();
            self.enter_running(slot, RequestPhase::Decoding);
        }
    }

    /// Moves `slot` (already dequeued from `waiting`) into the running set
    /// under `phase`, assigning its admission sequence and maintaining the
    /// phase lists and the projected-KV counter.
    fn enter_running(&mut self, slot: Slot, phase: RequestPhase) {
        let seq = self.admit_seq;
        self.admit_seq += 1;
        let total = {
            let r = &mut self.requests[slot];
            r.phase = phase;
            r.admit_seq = seq;
            r.spec.total_tokens()
        };
        self.projected_tokens += total;
        let list = match phase {
            RequestPhase::Prefilling => &mut self.prefilling,
            RequestPhase::Decoding => &mut self.decoding,
            _ => unreachable!("requests enter running as Prefilling or Decoding"),
        };
        list.insert_ordered(&mut self.requests, slot);
    }

    /// Removes `slot` from its phase list and the projected-KV counter (the
    /// shared half of finishing and preempting).
    fn leave_running(&mut self, slot: Slot) {
        let (phase, total) = {
            let r = &self.requests[slot];
            (r.phase, r.spec.total_tokens())
        };
        let list = match phase {
            RequestPhase::Prefilling => &mut self.prefilling,
            RequestPhase::Decoding => &mut self.decoding,
            _ => unreachable!("only running requests leave the running set"),
        };
        list.unlink(&mut self.requests, slot);
        self.projected_tokens -= total;
    }

    /// Requests waiting for admission.
    pub fn num_waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Requests admitted and unfinished.
    pub fn num_running(&self) -> usize {
        self.prefilling.len + self.decoding.len
    }

    /// All unfinished requests on this replica (waiting, quota-parked, or
    /// running).
    pub fn outstanding(&self) -> usize {
        self.waiting.len() + self.quota_parked.len() + self.num_running()
    }

    /// Total preemption-restarts so far (the paper's vLLM restart metric).
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Requests fully completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Read access to a live request by trace id (for metrics/debugging;
    /// a linear scan over the live set).
    pub fn request(&self, id: RequestId) -> Option<&TrackedRequest> {
        self.requests.find(|r| r.spec.id == id).map(|(_, r)| r)
    }

    /// Request slots materialized so far: the peak number of requests live
    /// on this replica at once, however long the trace.
    pub fn slot_capacity(&self) -> usize {
        self.requests.capacity()
    }

    /// The slot holding `slice`'s request: the handle stamped at formation,
    /// or — for a slice this scheduler did not form — a scan by id.
    fn slot_of(&self, slice: &RequestSlice) -> Slot {
        let id = slice.request_id;
        if self
            .requests
            .get(slice.slot)
            .is_some_and(|r| r.spec.id == id)
        {
            return slice.slot;
        }
        match self.requests.find(|r| r.spec.id == id) {
            Some((slot, _)) => slot,
            None => panic!("batch completion for unknown request {id}"),
        }
    }

    /// Forms the next batch, or `None` when nothing can run (idle or all
    /// in-flight). Slice storage comes from the recycle pool, so the steady
    /// state allocates nothing.
    pub fn next_batch(&mut self) -> Option<BatchComposition> {
        self.apply_quota_parking();
        self.admit_prefetched();
        let mut slices = self.slice_pool.pop().unwrap_or_default();
        debug_assert!(slices.is_empty());
        match self.config.policy {
            BatchPolicyKind::Vllm => self.vllm_batch(&mut slices),
            BatchPolicyKind::OrcaPlus => self.orca_batch(&mut slices),
            BatchPolicyKind::SarathiServe { chunk_size } => {
                self.sarathi_batch(chunk_size, &mut slices)
            }
            BatchPolicyKind::FasterTransformer => self.ft_batch(&mut slices),
            BatchPolicyKind::LightLlm => self.lightllm_batch(&mut slices),
        }
        if slices.is_empty() {
            self.slice_pool.push(slices);
            None
        } else {
            Some(BatchComposition::new(slices))
        }
    }

    /// Returns a retired batch's slice storage to the formation pool so the
    /// next [`ReplicaScheduler::next_batch`] call is allocation-free.
    /// Optional: dropping a batch instead merely costs a reallocation later.
    pub fn recycle_batch(&mut self, batch: BatchComposition) {
        let mut storage = batch.into_slices();
        storage.clear();
        self.slice_pool.push(storage);
    }

    /// Applies the effects of a finished batch, returning per-request events.
    ///
    /// Allocates the event vector; drivers on the hot path should use
    /// [`ReplicaScheduler::complete_batch_into`] with a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if the batch references unknown requests (a driver bug).
    pub fn complete_batch(&mut self, batch: &BatchComposition) -> Vec<CompletionEvent> {
        let mut events = Vec::with_capacity(batch.num_requests());
        self.complete_batch_into(batch, &mut events);
        events
    }

    /// Applies the effects of a finished batch, writing per-request events
    /// into `events` (cleared first). Steady-state allocation-free when the
    /// buffer's capacity has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if the batch references unknown requests (a driver bug).
    pub fn complete_batch_into(
        &mut self,
        batch: &BatchComposition,
        events: &mut Vec<CompletionEvent>,
    ) {
        events.clear();
        for slice in batch.slices() {
            let slot = self.slot_of(slice);
            let req = &mut self.requests[slot];
            req.inflight_tokens = 0;
            let mut ev = CompletionEvent {
                id: slice.request_id,
                prefill_completed: false,
                produced_token: false,
                finished: false,
            };
            if slice.is_prefill {
                req.prefilled += slice.query_tokens;
                debug_assert!(req.prefilled <= req.spec.prefill_tokens);
                if req.prefill_complete() {
                    if req.decoded == 0 {
                        // The prefill iteration yields the first output token.
                        req.decoded = 1;
                        ev.prefill_completed = true;
                        ev.produced_token = true;
                    }
                    self.promote_to_decode(slot);
                    if self.requests[slot].finished() {
                        ev.finished = true;
                        self.finish(slot);
                    }
                }
            } else {
                req.decoded += 1;
                debug_assert!(req.decoded <= req.spec.decode_tokens);
                ev.produced_token = true;
                if req.finished() {
                    ev.finished = true;
                    self.finish(slot);
                }
            }
            events.push(ev);
        }
    }

    /// Moves a request whose prefill just completed from the prefilling list
    /// to the decoding list (same admission sequence, so admission order is
    /// preserved across the phase transition).
    fn promote_to_decode(&mut self, slot: Slot) {
        self.prefilling.unlink(&mut self.requests, slot);
        self.requests[slot].phase = RequestPhase::Decoding;
        self.decoding.insert_ordered(&mut self.requests, slot);
    }

    fn finish(&mut self, slot: Slot) {
        self.release_blocks(slot);
        self.leave_running(slot);
        self.untrack(slot);
        self.completed += 1;
    }

    /// Admits the front waiting request, reserving `reserve_tokens` of KV
    /// capacity. Returns the slot on success.
    ///
    /// Requests that need no prefill (remote-prefilled KV) are refused here:
    /// they are [`admit_prefetched`](Self::admit_prefetched)'s job. Without
    /// this guard, a preemption that frees memory *between* the prefetch
    /// pass and the policy admission loop would re-prefill already-cached
    /// work, pushing `prefilled` past the prompt length and underflowing
    /// `remaining_prefill` (a latent seed bug, reachable in disaggregated
    /// decode pools under memory pressure).
    fn admit_front(&mut self, reserve_tokens: u64) -> Option<Slot> {
        if self.admissions_closed {
            return None;
        }
        let &slot = self.waiting.front()?;
        if self.requests[slot].remaining_prefill() == 0 {
            return None;
        }
        // Backstop only: every in-tree policy loop parks quota-blocked
        // fronts (with the same token amount) immediately before calling
        // this, so the check cannot fire today — it guards future callers
        // that admit without the pre-park.
        if !self.within_quota(slot, reserve_tokens) {
            return None;
        }
        let hit = self.reserve_blocks_prefixed(slot, reserve_tokens)?;
        self.waiting.pop_front();
        if hit > 0 {
            let tenant = {
                let r = &mut self.requests[slot];
                debug_assert!(hit < r.spec.prefill_tokens, "a hit leaves prefill work");
                r.prefilled = hit;
                r.spec.tenant
            };
            self.bump_prefix_stats(tenant, hit);
        }
        self.enter_running(slot, RequestPhase::Prefilling);
        Some(slot)
    }

    /// Accounts one prefix-cache hit of `hit` skipped tokens for `tenant`.
    fn bump_prefix_stats(&mut self, tenant: u32, hit: u64) {
        self.prefix_hit_requests += 1;
        self.prefix_tokens_saved += hit;
        let idx = tenant as usize;
        if idx >= self.tenant_prefix_hits.len() {
            self.tenant_prefix_hits.resize(idx + 1, 0);
            self.tenant_prefix_saved.resize(idx + 1, 0);
        }
        self.tenant_prefix_hits[idx] += 1;
        self.tenant_prefix_saved[idx] += hit;
    }

    /// Evicts a running request (vLLM recompute-restart): releases its KV,
    /// resets its prefill progress, and requeues it at the front of its
    /// priority tier in the waiting queue.
    fn evict(&mut self, slot: Slot) {
        self.leave_running(slot);
        self.release_blocks(slot);
        let req = &mut self.requests[slot];
        req.restart();
        self.enqueue_waiting_front(slot);
        self.preemptions += 1;
    }

    // ---- crash eviction and graceful drain -------------------------------

    /// Crash eviction: removes **every** request from the replica — waiting,
    /// quota-parked, and running — releasing all KV blocks, and appends their
    /// ids to `out` in deterministic order (waiting FIFO, then quota-parked
    /// FIFO, then the prefilling and decoding lists in admission order).
    /// The caller re-routes the evicted work to surviving replicas; prefill
    /// progress is lost (vLLM recompute semantics), which
    /// [`TrackedRequest::restart`] would also do — here the tracked state is
    /// dropped entirely because the request leaves the replica.
    ///
    /// Does **not** count toward [`ReplicaScheduler::preemptions`]: crash
    /// evictions are accounted separately by the cluster driver.
    pub fn evict_all(&mut self, out: &mut Vec<RequestId>) {
        while let Some(slot) = self.waiting.pop_front() {
            self.release_blocks(slot);
            out.push(self.untrack(slot));
        }
        while let Some(slot) = self.quota_parked.pop_front() {
            self.release_blocks(slot);
            out.push(self.untrack(slot));
        }
        for list in [self.prefilling, self.decoding] {
            let mut cur = list.head;
            while cur != NO_SLOT {
                let next = self.requests[cur].next;
                self.leave_running(cur);
                self.release_blocks(cur);
                out.push(self.untrack(cur));
                cur = next;
            }
        }
        debug_assert!(
            self.requests.is_empty(),
            "crash eviction must clear the slab"
        );
        debug_assert_eq!(self.projected_tokens, 0);
        // A crash loses the replica's cached prefixes too: with every
        // request released, all entries are unreferenced and reclaimable.
        self.blocks.evict_cached_prefixes();
        debug_assert_eq!(self.blocks.used_blocks(), 0, "all KV reclaimed");
        debug_assert!(
            self.tenant_held_blocks.iter().all(|&h| h == 0),
            "tenant holdings must zero out on crash"
        );
    }

    /// Graceful drain: closes admissions (in-flight and running work keeps
    /// executing to completion) and removes everything that has **not**
    /// started — the waiting queue and the quota-parked set — appending the
    /// ids to `out` (waiting FIFO first, then parked FIFO) for the caller to
    /// re-route. Queued work holds no KV blocks, so nothing is released.
    pub fn drain_queued(&mut self, out: &mut Vec<RequestId>) {
        self.admissions_closed = true;
        while let Some(slot) = self.waiting.pop_front() {
            debug_assert_eq!(
                self.blocks.held_by(slot.into()),
                0,
                "queued work holds no KV"
            );
            out.push(self.untrack(slot));
        }
        while let Some(slot) = self.quota_parked.pop_front() {
            debug_assert_eq!(
                self.blocks.held_by(slot.into()),
                0,
                "parked work holds no KV"
            );
            out.push(self.untrack(slot));
        }
    }

    /// Frees `slot` for reuse, returning the request's trace id.
    fn untrack(&mut self, slot: Slot) -> RequestId {
        let id = self.requests.remove(slot).expect("tracked").spec.id;
        self.live_ids.remove(&id);
        id
    }

    /// Reopens admissions after a drain was cancelled or the replica came
    /// back from warm-up.
    pub fn reopen_admissions(&mut self) {
        self.admissions_closed = false;
    }

    /// Whether a graceful drain has closed admissions.
    pub fn admissions_closed(&self) -> bool {
        self.admissions_closed
    }

    /// Preempts (recompute-restarts) one running request that is not in
    /// flight and not `protect`: the **least urgent** (numerically highest)
    /// priority class first, and within that class the most recently
    /// admitted. Returns `true` if a victim was evicted.
    ///
    /// With a single priority class the victim is simply the most recently
    /// admitted eligible request, so the walk merges the two phase lists
    /// tail-first by admission sequence — the same order as the seed's
    /// `rposition` over its single admission-ordered vector — and stops at
    /// the first eligible request. Mixed priorities disable the early exit:
    /// the merged walk continues and keeps the best (priority, admit_seq)
    /// victim seen.
    fn preempt_one(&mut self, protect: Slot) -> bool {
        let mut dec = self.decoding.tail;
        let mut pre = self.prefilling.tail;
        let mut victim = NO_SLOT;
        let mut victim_key = (0u8, 0u64);
        loop {
            let pick_decode = if dec == NO_SLOT && pre == NO_SLOT {
                break;
            } else if pre == NO_SLOT {
                true
            } else if dec == NO_SLOT {
                false
            } else {
                self.requests[dec].admit_seq > self.requests[pre].admit_seq
            };
            let slot = if pick_decode { dec } else { pre };
            let r = &self.requests[slot];
            if slot != protect && r.inflight_tokens == 0 {
                let key = (r.spec.priority, r.admit_seq);
                if victim == NO_SLOT || key > victim_key {
                    victim = slot;
                    victim_key = key;
                }
                // Uniform priority: the first eligible request in the
                // merged tail-first walk is the final answer.
                if !self.priority_in_use {
                    break;
                }
            }
            if pick_decode {
                dec = r.prev;
            } else {
                pre = r.prev;
            }
        }
        if victim == NO_SLOT {
            return false;
        }
        self.evict(victim);
        true
    }

    /// Grows `slot`'s KV reservation for one appended token, preempting other
    /// requests if necessary (vLLM recompute). If no victim remains, `slot`
    /// itself is preempted and `false` is returned.
    fn grow_or_preempt(&mut self, slot: Slot) -> bool {
        let target = self.requests[slot].cached_tokens() + 1;
        loop {
            if self.grow_blocks(slot, target) {
                return true;
            }
            if !self.preempt_one(slot) {
                // Last resort: preempt the request itself.
                self.evict(slot);
                return false;
            }
        }
    }

    fn mark_inflight(&mut self, slot: Slot, tokens: u64) {
        self.requests[slot].inflight_tokens = tokens;
    }

    /// Snapshots the slots of `list` that pass `keep` into the scratch buffer
    /// and returns it (swap it back when done). Snapshotting lets formation
    /// passes mutate the lists (growth-driven preemption) mid-iteration.
    fn snapshot_ids(
        &mut self,
        list: &PhaseList,
        keep: impl Fn(&TrackedRequest) -> bool,
    ) -> Vec<Slot> {
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        let mut cur = list.head;
        while cur != NO_SLOT {
            let r = &self.requests[cur];
            if keep(r) {
                ids.push(cur);
            }
            cur = r.next;
        }
        ids
    }

    /// Builds decode slices for up to `limit` schedulable decode requests,
    /// handling memory growth with preemption.
    fn collect_decodes(&mut self, limit: usize, slices: &mut Vec<RequestSlice>) {
        let decoding = self.decoding;
        let ids = self.snapshot_ids(&decoding, |r| r.inflight_tokens == 0 && !r.finished());
        for &slot in &ids {
            if slices.len() >= limit {
                break;
            }
            // The request may have been preempted (back to Waiting) by an
            // earlier growth in this same pass.
            if self.requests[slot].phase != RequestPhase::Decoding {
                continue;
            }
            if !self.grow_or_preempt(slot) {
                continue;
            }
            let r = &self.requests[slot];
            slices.push(RequestSlice::decode(r.spec.id, r.cached_tokens()).in_slot(slot));
            self.mark_inflight(slot, 1);
        }
        self.ids_scratch = ids;
    }

    // ---- vLLM: prefill-prioritizing -------------------------------------

    fn vllm_batch(&mut self, slices: &mut Vec<RequestSlice>) {
        let budget = self.config.token_budget();
        let mut tokens = 0u64;
        // Eagerly admit waiting prompts as a prefill-only batch.
        while self.num_running() < self.config.max_batch_size {
            self.park_quota_blocked_front();
            let Some(&slot) = self.waiting.front() else {
                break;
            };
            let prompt = self.requests[slot].spec.prefill_tokens;
            if tokens + prompt > budget {
                break;
            }
            if self.admit_front(prompt).is_none() {
                break;
            }
            // Re-read after admission: a prefix-cache hit set `prefilled`,
            // so only the un-cached prompt tail is computed (with no hit
            // this is exactly the `prefill(slot, prompt, 0)` slice of old).
            let r = &self.requests[slot];
            let take = r.remaining_prefill();
            slices.push(RequestSlice::prefill(r.spec.id, take, r.prefilled).in_slot(slot));
            self.mark_inflight(slot, take);
            tokens += prompt;
        }
        if !slices.is_empty() {
            return;
        }
        // Otherwise resume decodes for everything running.
        self.collect_decodes(self.config.max_batch_size, slices);
    }

    // ---- Orca+: mixed iteration-level batching ---------------------------

    fn orca_batch(&mut self, slices: &mut Vec<RequestSlice>) {
        let budget = self.config.token_budget();
        self.collect_decodes(self.config.max_batch_size, slices);
        let mut tokens = slices.len() as u64;
        while self.num_running() < self.config.max_batch_size
            && slices.len() < self.config.max_batch_size
        {
            self.park_quota_blocked_front();
            let Some(&slot) = self.waiting.front() else {
                break;
            };
            let prompt = self.requests[slot].spec.prefill_tokens;
            if tokens + prompt > budget {
                break;
            }
            if self.admit_front(prompt).is_none() {
                break;
            }
            // Post-admission re-read: prefix-cache hits shrink the slice.
            let r = &self.requests[slot];
            let take = r.remaining_prefill();
            slices.push(RequestSlice::prefill(r.spec.id, take, r.prefilled).in_slot(slot));
            self.mark_inflight(slot, take);
            tokens += prompt;
        }
    }

    // ---- Sarathi-Serve: chunked prefills under a token budget ------------

    fn sarathi_batch(&mut self, chunk_size: u64, slices: &mut Vec<RequestSlice>) {
        self.collect_decodes(self.config.max_batch_size, slices);
        let mut budget = chunk_size.saturating_sub(slices.len() as u64);
        // Continue partially-prefilled running requests first.
        let prefilling = self.prefilling;
        let partial = self.snapshot_ids(&prefilling, |r| r.inflight_tokens == 0);
        for &slot in &partial {
            if budget == 0 || slices.len() >= self.config.max_batch_size {
                break;
            }
            let r = &self.requests[slot];
            let take = r.remaining_prefill().min(budget);
            if take == 0 {
                continue;
            }
            slices.push(RequestSlice::prefill(r.spec.id, take, r.prefilled).in_slot(slot));
            self.mark_inflight(slot, take);
            budget -= take;
        }
        self.ids_scratch = partial;
        // Admit new requests with the remaining budget.
        while budget > 0
            && self.num_running() < self.config.max_batch_size
            && slices.len() < self.config.max_batch_size
        {
            self.park_quota_blocked_front();
            let Some(&front) = self.waiting.front() else {
                break;
            };
            let prompt = self.requests[front].spec.prefill_tokens;
            let Some(slot) = self.admit_front(prompt) else {
                break;
            };
            // Post-admission re-read: a prefix-cache hit starts the chunked
            // prefill at `prefilled` instead of 0.
            let r = &self.requests[slot];
            let take = r.remaining_prefill().min(budget);
            slices.push(RequestSlice::prefill(r.spec.id, take, r.prefilled).in_slot(slot));
            self.mark_inflight(slot, take);
            budget -= take;
        }
    }

    // ---- FasterTransformer: cohort (request-level) batching ---------------

    fn ft_batch(&mut self, slices: &mut Vec<RequestSlice>) {
        let budget = self.config.token_budget();
        if self.num_running() == 0 {
            // Admit a fresh cohort, preallocating each request's full KV
            // footprint (FT reserves max sequence length up front).
            while self.num_running() < self.config.max_batch_size {
                self.park_quota_blocked_front();
                let Some(&slot) = self.waiting.front() else {
                    break;
                };
                let total = self.requests[slot].spec.total_tokens();
                if self.admit_front(total).is_none() {
                    break;
                }
                let _ = slot;
            }
        }
        // Prefill phase: process cohort prompts (token budget may spread
        // them over several iterations).
        let mut tokens = 0u64;
        let prefilling = self.prefilling;
        let pending = self.snapshot_ids(&prefilling, |r| r.inflight_tokens == 0);
        for &slot in &pending {
            // `remaining_prefill` equals the full prompt unless a prefix-
            // cache hit pre-filled the shared head at cohort admission.
            let r = &self.requests[slot];
            let take = r.remaining_prefill();
            if tokens + take > budget && tokens > 0 {
                break;
            }
            slices.push(RequestSlice::prefill(r.spec.id, take, r.prefilled).in_slot(slot));
            self.mark_inflight(slot, take);
            tokens += take;
        }
        self.ids_scratch = pending;
        if !slices.is_empty() {
            return;
        }
        // Decode phase: everyone decodes until the whole cohort finishes
        // (no new admissions in between — decode prioritizing).
        self.collect_decodes(self.config.max_batch_size, slices);
    }

    // ---- LightLLM: token-level admission control --------------------------

    fn lightllm_batch(&mut self, slices: &mut Vec<RequestSlice>) {
        let budget = self.config.token_budget();
        let capacity_tokens = self.blocks.total_blocks() * self.blocks.block_size() as u64;
        self.collect_decodes(self.config.max_batch_size, slices);
        let mut tokens = slices.len() as u64;
        // Projected KV footprint of everything running, at completion —
        // maintained incrementally on admit/finish/preempt rather than
        // re-summed over the running set per call.
        let mut projected = self.projected_tokens;
        while self.num_running() < self.config.max_batch_size
            && slices.len() < self.config.max_batch_size
        {
            self.park_quota_blocked_front();
            let Some(&slot) = self.waiting.front() else {
                break;
            };
            let spec = self.requests[slot].spec;
            if tokens + spec.prefill_tokens > budget {
                break;
            }
            // Token-level admission: only admit if the projected total KV
            // footprint stays within capacity, avoiding future preemptions.
            if projected + spec.total_tokens() > capacity_tokens {
                break;
            }
            if self.admit_front(spec.prefill_tokens).is_none() {
                break;
            }
            // Post-admission re-read: prefix-cache hits shrink the slice.
            let r = &self.requests[slot];
            let take = r.remaining_prefill();
            slices.push(RequestSlice::prefill(r.spec.id, take, r.prefilled).in_slot(slot));
            self.mark_inflight(slot, take);
            tokens += spec.prefill_tokens;
            projected += spec.total_tokens();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_core::time::SimTime;

    fn sched(policy: BatchPolicyKind, blocks: u64) -> ReplicaScheduler {
        ReplicaScheduler::new(SchedulerConfig::new(policy, 8), blocks, 16)
    }

    fn req(id: RequestId, prefill: u64, decode: u64) -> Request {
        Request::new(id, SimTime::ZERO, prefill, decode)
    }

    /// Drives the scheduler until all requests finish; returns batch count.
    fn run_to_completion(s: &mut ReplicaScheduler, max_iters: usize) -> usize {
        let mut iters = 0;
        while s.outstanding() > 0 {
            let batch = s.next_batch().expect("progress");
            s.complete_batch(&batch);
            iters += 1;
            assert!(iters <= max_iters, "no convergence after {max_iters} iters");
        }
        iters
    }

    #[test]
    fn vllm_prefill_prioritizes() {
        let mut s = sched(BatchPolicyKind::Vllm, 10_000);
        s.add_request(req(0, 100, 3));
        s.add_request(req(1, 200, 3));
        let b = s.next_batch().unwrap();
        // Both prompts batched together, no decodes.
        assert_eq!(b.num_prefill(), 2);
        assert_eq!(b.total_query_tokens(), 300);
        s.complete_batch(&b);
        // Now a new arrival pauses decodes again.
        s.add_request(req(2, 50, 2));
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_prefill(), 1);
        assert_eq!(b2.num_decode(), 0);
    }

    #[test]
    fn vllm_decode_batch_after_prefills() {
        let mut s = sched(BatchPolicyKind::Vllm, 10_000);
        s.add_request(req(0, 100, 5));
        let b = s.next_batch().unwrap();
        let ev = s.complete_batch(&b);
        assert!(ev[0].prefill_completed && ev[0].produced_token && !ev[0].finished);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_decode(), 1);
        assert_eq!(b2.slices()[0].cached_tokens, 101);
    }

    #[test]
    fn vllm_respects_token_budget() {
        let mut s = sched(BatchPolicyKind::Vllm, 100_000);
        s.add_request(req(0, 3000, 2));
        s.add_request(req(1, 2000, 2));
        let b = s.next_batch().unwrap();
        // 3000 + 2000 > 4096: only the first fits.
        assert_eq!(b.num_prefill(), 1);
        assert_eq!(b.total_query_tokens(), 3000);
    }

    #[test]
    fn orca_mixes_prefill_and_decode() {
        let mut s = sched(BatchPolicyKind::OrcaPlus, 10_000);
        s.add_request(req(0, 100, 5));
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        s.add_request(req(1, 50, 2));
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_decode(), 1, "ongoing decode continues");
        assert_eq!(b2.num_prefill(), 1, "new prompt joins the same batch");
    }

    #[test]
    fn sarathi_chunks_long_prompts() {
        let mut s = ReplicaScheduler::new(
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 8),
            10_000,
            16,
        );
        s.add_request(req(0, 2000, 3));
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.total_query_tokens(), 512);
        assert!(b1.slices()[0].is_prefill);
        s.complete_batch(&b1);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.total_query_tokens(), 512);
        assert_eq!(b2.slices()[0].cached_tokens, 512, "chunk continues history");
        // Total prefill spread over ceil(2000/512) = 4 iterations.
        s.complete_batch(&b2);
        let b3 = s.next_batch().unwrap();
        s.complete_batch(&b3);
        let b4 = s.next_batch().unwrap();
        assert_eq!(b4.total_query_tokens(), 2000 - 3 * 512);
        let ev = s.complete_batch(&b4);
        assert!(ev[0].prefill_completed);
    }

    #[test]
    fn sarathi_never_pauses_decodes() {
        let mut s = ReplicaScheduler::new(
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 256 }, 8),
            10_000,
            16,
        );
        s.add_request(req(0, 100, 10));
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        // A long prompt arrives while request 0 decodes.
        s.add_request(req(1, 1000, 2));
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_decode(), 1, "decode rides along");
        assert_eq!(b2.num_prefill(), 1);
        // Chunk shrinks by the decode token: 256 - 1 = 255.
        let prefill_tokens: u64 = b2
            .slices()
            .iter()
            .filter(|sl| sl.is_prefill)
            .map(|sl| sl.query_tokens)
            .sum();
        assert_eq!(prefill_tokens, 255);
    }

    #[test]
    fn ft_runs_cohort_to_completion() {
        let mut s = sched(BatchPolicyKind::FasterTransformer, 10_000);
        s.add_request(req(0, 100, 3));
        s.add_request(req(1, 100, 5));
        let b = s.next_batch().unwrap();
        assert_eq!(b.num_prefill(), 2);
        s.complete_batch(&b);
        // Arrival mid-cohort must NOT be admitted.
        s.add_request(req(2, 10, 1));
        for _ in 0..4 {
            let b = s.next_batch().unwrap();
            assert!(
                b.slices().iter().all(|sl| sl.request_id != 2),
                "no admission mid-cohort"
            );
            s.complete_batch(&b);
        }
        // Cohort (0, 1) done; now 2 is admitted.
        assert_eq!(s.completed(), 2);
        let b = s.next_batch().unwrap();
        assert_eq!(b.slices()[0].request_id, 2);
    }

    #[test]
    fn lightllm_token_admission_blocks_oversize() {
        // Capacity: 100 blocks * 16 = 1600 tokens.
        let mut s = sched(BatchPolicyKind::LightLlm, 100);
        s.add_request(req(0, 500, 500)); // projected 1000
        s.add_request(req(1, 500, 500)); // projected 2000 > 1600 => deferred
        let b = s.next_batch().unwrap();
        assert_eq!(b.num_prefill(), 1);
        assert_eq!(s.num_waiting(), 1, "second request deferred");
    }

    #[test]
    fn preemption_on_memory_pressure() {
        // Tiny memory: 8 blocks * 16 = 128 tokens; the two requests need
        // 140 tokens at peak, so decode growth must preempt one of them.
        let mut s = sched(BatchPolicyKind::Vllm, 8);
        s.add_request(req(0, 40, 30));
        s.add_request(req(1, 40, 30));
        let mut saw_preemption = false;
        for _ in 0..400 {
            if s.outstanding() == 0 {
                break;
            }
            if let Some(b) = s.next_batch() {
                s.complete_batch(&b);
            }
            if s.preemptions() > 0 {
                saw_preemption = true;
            }
        }
        assert!(saw_preemption, "expected vLLM recompute preemption");
        assert_eq!(s.completed(), 2, "both requests still finish");
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn all_policies_complete_all_requests() {
        for policy in [
            BatchPolicyKind::Vllm,
            BatchPolicyKind::OrcaPlus,
            BatchPolicyKind::SarathiServe { chunk_size: 512 },
            BatchPolicyKind::FasterTransformer,
            BatchPolicyKind::LightLlm,
        ] {
            let mut s = sched(policy, 10_000);
            for i in 0..20 {
                s.add_request(req(i, 50 + i * 13, 1 + i % 7));
            }
            let iters = run_to_completion(&mut s, 10_000);
            assert!(iters > 0);
            assert_eq!(s.completed(), 20, "{policy}");
            assert_eq!(s.blocks().used_blocks(), 0, "{policy}: all KV released");
        }
    }

    #[test]
    fn inflight_requests_not_double_scheduled() {
        let mut s = sched(BatchPolicyKind::OrcaPlus, 10_000);
        s.add_request(req(0, 100, 5));
        let b1 = s.next_batch().unwrap();
        // Without completing b1, the next batch must not contain request 0.
        assert!(s.next_batch().is_none());
        s.complete_batch(&b1);
        assert!(s.next_batch().is_some());
    }

    #[test]
    fn single_token_decode_finishes_at_prefill() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.add_request(req(0, 64, 1));
        let b = s.next_batch().unwrap();
        let ev = s.complete_batch(&b);
        assert!(ev[0].prefill_completed && ev[0].finished);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn priority_tiers_reorder_admission() {
        let mut s =
            ReplicaScheduler::new(SchedulerConfig::new(BatchPolicyKind::Vllm, 1), 10_000, 16);
        s.add_request(req(0, 100, 2).with_priority(2));
        s.add_request(req(1, 100, 2).with_priority(0));
        let b = s.next_batch().unwrap();
        assert_eq!(b.slices()[0].request_id, 1, "urgent class admits first");
    }

    #[test]
    fn priority_fifo_within_tier() {
        let mut s =
            ReplicaScheduler::new(SchedulerConfig::new(BatchPolicyKind::Vllm, 1), 10_000, 16);
        s.add_request(req(0, 100, 2).with_priority(1));
        s.add_request(req(1, 100, 2).with_priority(1));
        let b = s.next_batch().unwrap();
        assert_eq!(b.slices()[0].request_id, 0, "same class stays FIFO");
    }

    #[test]
    fn preemption_prefers_low_priority_victims() {
        // 10 blocks × 16 = 160 tokens. Admission order (pinned by
        // sequential prefill batches): r0 prio 0 (3 blocks), r1 prio 2,
        // r2 prio 1, r3 prio 0 (2 blocks each) — 9 blocks held, 1 free.
        // First decode pass: r0's growth takes the last block, r1's growth
        // OOMs with r0 already in-flight, so the eligible victims are r2
        // (priority 1) and r3 (priority 0). The seed would evict r3 — the
        // latest admission — but priority-aware selection must take the
        // less urgent r2.
        let mut s = sched(BatchPolicyKind::Vllm, 10);
        for (id, priority, prefill) in [(0u64, 0u8, 48u64), (1, 2, 32), (2, 1, 32), (3, 0, 32)] {
            s.add_request(req(id, prefill, 30).with_priority(priority));
            let b = s.next_batch().unwrap();
            assert_eq!(b.slices()[0].request_id, id);
            s.complete_batch(&b);
        }
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        assert_eq!(s.preemptions(), 1, "growth must have preempted once");
        assert_eq!(s.request(2).unwrap().restarts, 1, "r2 is the victim");
        assert_eq!(s.request(3).unwrap().restarts, 0, "urgent r3 survives");
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn duplicate_ids_rejected() {
        let mut s = sched(BatchPolicyKind::Vllm, 100);
        s.add_request(req(0, 10, 1));
        s.add_request(req(0, 10, 1));
    }

    #[test]
    fn remote_prefilled_requests_decode_without_prefill() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.add_remote_prefilled(req(0, 500, 10), 1);
        let b = s.next_batch().expect("decode batch");
        assert_eq!(b.num_prefill(), 0, "no prefill work for transferred KV");
        assert_eq!(b.num_decode(), 1);
        assert_eq!(b.slices()[0].cached_tokens, 501, "prompt + first token");
        let ev = s.complete_batch(&b);
        assert!(ev[0].produced_token && !ev[0].prefill_completed);
        // 10 output tokens total, 1 produced remotely: 9 decode iterations.
        let mut iters = 1;
        while s.outstanding() > 0 {
            let b = s.next_batch().unwrap();
            s.complete_batch(&b);
            iters += 1;
        }
        assert_eq!(iters, 9);
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn remote_prefilled_respects_memory() {
        // 4 blocks * 16 = 64 tokens; a 500-token transferred KV can't fit.
        let mut s = sched(BatchPolicyKind::Vllm, 4);
        s.add_remote_prefilled(req(0, 500, 5), 1);
        assert!(s.next_batch().is_none(), "must wait for memory");
        assert_eq!(s.num_waiting(), 1);
    }

    #[test]
    #[should_panic(expected = "remote prefill")]
    fn remote_prefilled_needs_first_token() {
        let mut s = sched(BatchPolicyKind::Vllm, 100);
        s.add_remote_prefilled(req(0, 10, 5), 0);
    }

    #[test]
    fn quota_parks_over_quota_tenant_without_blocking_others() {
        // 1000 blocks; tenant 0 capped at 8 blocks (128 tokens). Its second
        // request must park while tenant 1 behind it still admits.
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.set_tenant_quotas(&[8]);
        s.add_request(req(0, 100, 50).with_tenant(0)); // 7 blocks
        s.add_request(req(1, 100, 50).with_tenant(0)); // would exceed 8
        s.add_request(req(2, 100, 5).with_tenant(1)); // unlimited tenant
        let b = s.next_batch().unwrap();
        let admitted: Vec<u64> = b.slices().iter().map(|sl| sl.request_id).collect();
        assert_eq!(admitted, vec![0, 2], "request 1 parked, not blocking 2");
        assert_eq!(s.quota_denied(), &[1], "one denial for tenant 0");
        assert_eq!(s.outstanding(), 3, "parked requests stay outstanding");
        s.complete_batch(&b);
        // Drain tenant 0's first request; its blocks free and 1 unparks.
        let mut guard = 0;
        while s.outstanding() > 0 {
            if let Some(b) = s.next_batch() {
                s.complete_batch(&b);
            }
            guard += 1;
            assert!(guard < 1_000, "quota parking must not deadlock");
        }
        assert_eq!(s.completed(), 3);
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn quota_solo_infeasible_request_is_exempt() {
        // Quota 2 blocks but the request alone needs 7: exempt, or the
        // queue would deadlock.
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.set_tenant_quotas(&[2]);
        s.add_request(req(0, 100, 5).with_tenant(0));
        let b = s.next_batch().expect("exempt request admits");
        assert_eq!(b.slices()[0].request_id, 0);
        s.complete_batch(&b);
        while s.outstanding() > 0 {
            let b = s.next_batch().unwrap();
            s.complete_batch(&b);
        }
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn quota_disabled_is_transparent() {
        let drive = |quotas: bool| {
            let mut s = sched(BatchPolicyKind::Vllm, 50);
            if quotas {
                // Quota at full capacity: never binds.
                s.set_tenant_quotas(&[50]);
            }
            for i in 0..10 {
                s.add_request(req(i, 40 + i * 11, 10 + i % 5).with_tenant(0));
            }
            let mut batches = Vec::new();
            let mut guard = 0;
            while s.outstanding() > 0 {
                guard += 1;
                assert!(guard < 10_000);
                if let Some(b) = s.next_batch() {
                    batches.push(b.slices().to_vec());
                    s.complete_batch(&b);
                }
            }
            (batches, s.preemptions())
        };
        assert_eq!(drive(false), drive(true), "full-capacity quota is a no-op");
    }

    #[test]
    fn quota_respects_tenant_isolation_under_pressure() {
        // 20 blocks split 10/10 between two tenants; each floods. Neither
        // tenant's holdings may exceed its quota at admission time.
        let mut s = sched(BatchPolicyKind::Vllm, 20);
        s.set_tenant_quotas(&[10, 10]);
        for i in 0..6 {
            s.add_request(req(i, 40, 10).with_tenant((i % 2) as u32));
        }
        let mut guard = 0;
        while s.outstanding() > 0 {
            guard += 1;
            assert!(guard < 10_000, "no deadlock");
            if let Some(b) = s.next_batch() {
                s.complete_batch(&b);
            }
        }
        assert_eq!(s.completed(), 6);
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn evict_all_reclaims_kv_and_orders_deterministically() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.set_tenant_quotas(&[8, u64::MAX]);
        s.add_request(req(0, 100, 50).with_tenant(0)); // admits (7 blocks)
        s.add_request(req(1, 100, 50).with_tenant(0)); // parks (over quota)
        s.add_request(req(2, 100, 5).with_tenant(1)); // admits
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        s.add_request(req(3, 40, 2).with_tenant(1)); // still waiting
        let b2 = s.next_batch().unwrap(); // admits 3, decodes 0 and 2
        s.complete_batch(&b2);
        assert!(s.blocks().used_blocks() > 0);
        let mut out = Vec::new();
        s.evict_all(&mut out);
        // Order: waiting FIFO, parked FIFO, then running in admission order.
        assert_eq!(out, vec![1, 0, 2, 3]);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.blocks().used_blocks(), 0, "all KV reclaimed");
        assert_eq!(s.preemptions(), 0, "crash eviction is not a preemption");
        // The replica accepts the same ids again after eviction (re-route
        // back to a recovered replica) and quota bookkeeping still works.
        s.add_request(req(0, 100, 2).with_tenant(0));
        let b3 = s.next_batch().expect("fresh admission after eviction");
        assert_eq!(b3.slices()[0].request_id, 0);
        s.complete_batch(&b3);
        while s.outstanding() > 0 {
            let b = s.next_batch().unwrap();
            s.complete_batch(&b);
        }
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn drain_queued_closes_admissions_but_finishes_running_work() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.add_request(req(0, 100, 3));
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        s.add_request(req(1, 50, 2));
        s.add_request(req(2, 50, 2));
        let mut out = Vec::new();
        s.drain_queued(&mut out);
        assert_eq!(out, vec![1, 2], "queued work migrates in FIFO order");
        assert!(s.admissions_closed());
        // Running request 0 still decodes to completion.
        while s.outstanding() > 0 {
            let b = s.next_batch().expect("running work keeps executing");
            assert!(b.slices().iter().all(|sl| sl.request_id == 0));
            s.complete_batch(&b);
        }
        assert_eq!(s.completed(), 1);
        // New arrivals queue but are not admitted while draining.
        s.add_request(req(3, 40, 1));
        assert!(s.next_batch().is_none(), "admissions are closed");
        s.reopen_admissions();
        assert!(s.next_batch().is_some(), "admissions reopen after warm-up");
    }

    #[test]
    fn batch_size_limit_respected() {
        let mut s = ReplicaScheduler::new(
            SchedulerConfig::new(BatchPolicyKind::OrcaPlus, 4),
            100_000,
            16,
        );
        for i in 0..10 {
            s.add_request(req(i, 10, 5));
        }
        let b = s.next_batch().unwrap();
        assert!(b.num_requests() <= 4);
    }
}
