//! `HermesSwitch`: the logical-table facade over a shadow/main TCAM pair.
//!
//! This is the paper's architecture (Fig. 3) end to end: control-plane
//! actions enter through the Gate Keeper, insertions are partitioned
//! (Algorithm 1) and placed in the small shadow slice, the Rule Manager
//! migrates rules into the main slice before the shadow overflows, and
//! packet lookups traverse shadow-then-main so the pair behaves exactly
//! like one monolithic table.
//!
//! ## Correctness invariant
//!
//! At *every* TCAM-operation boundary — including mid-migration — a lookup
//! against the shadow/main pair returns the same action as a monolithic
//! table holding the logical rules, except for packets covered only by
//! overlapping same-priority rules with different actions (behaviour
//! OpenFlow leaves undefined for a single table too). The integration
//! tests run this oracle in lockstep.
//!
//! Two mechanisms maintain the invariant beyond Algorithm 1 itself:
//!
//! * **Re-partitioning** (Fig. 6): deleting a main rule that shadow rules
//!   were cut against re-cuts those rules; symmetrically, inserting a
//!   higher-priority rule *directly into the main table* (rate-limit
//!   overflow, fragmentation bypass) re-cuts any overlapping lower-priority
//!   shadow rules.
//! * **Make-before-break migration** (§5.2): each migrated rule is written
//!   to the main table *before* its shadow pieces are removed, and rules
//!   migrate in ascending priority order, so no intermediate state can
//!   drop or misroute a packet.

use crate::config::{HermesConfig, MigrationMode, MigrationTrigger};
use crate::gatekeeper::{GateKeeper, Route};
use crate::manager::{MigrationReport, RuleManager};
use crate::partition::partition_new_rule_bounded;
use crate::recovery::{AuditReport, RecoveryState, RecoveryStats};
use crate::resync::{plan_slice, IntentOp, IntentStore, ResyncMode, ResyncReport, ResyncStats};
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;
use hermes_tcam::{
    BatchOpReport, CrashKind, CrashSpec, FaultPlan, FaultStats, LookupResult, MissBehavior,
    OpReport, SimDuration, SimTime, SwitchModel, TcamDevice, TcamError, TcamOp,
};
use std::collections::{BTreeMap, BTreeSet};

/// Slice index of the shadow table.
pub const SHADOW: usize = 0;
/// Slice index of the main table.
pub const MAIN: usize = 1;

/// Physical piece ids live above this bit so they can never collide with
/// controller-assigned logical ids.
const PHYS_BASE: u64 = 1 << 62;

/// Errors surfaced to the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HermesError {
    /// A rule with this id is already installed.
    Duplicate(RuleId),
    /// No rule with this id is installed.
    NotFound(RuleId),
    /// The TCAM is out of space.
    DeviceFull,
    /// The requested guarantee is below the switch's fixed per-operation
    /// cost — no shadow size can honour it.
    InfeasibleGuarantee,
    /// Logical rule ids must stay below 2^62 (the physical-id space).
    IdOutOfRange(RuleId),
    /// The device rejected the op even after retries (transient channel
    /// faults that outlasted the retry budget).
    Device(TcamError),
}

impl std::fmt::Display for HermesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HermesError::Duplicate(id) => write!(f, "rule {id} already installed"),
            HermesError::NotFound(id) => write!(f, "rule {id} not installed"),
            HermesError::DeviceFull => write!(f, "TCAM full"),
            HermesError::InfeasibleGuarantee => write!(f, "guarantee below switch base cost"),
            HermesError::IdOutOfRange(id) => write!(f, "rule id {id} out of range"),
            HermesError::Device(e) => write!(f, "device failure: {e}"),
        }
    }
}

impl std::error::Error for HermesError {}

/// What happened to a submitted control-plane action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportDetail {
    /// An insertion.
    Insert {
        /// Where the Gate Keeper routed it.
        route: Route,
        /// TCAM entries written (partition pieces, or 1 in the main table).
        pieces: usize,
        /// Whether the rule was entitled to the guarantee.
        guaranteed: bool,
        /// Whether an entitled rule missed its guarantee.
        violated: bool,
    },
    /// A deletion.
    Delete {
        /// TCAM entries removed.
        pieces_removed: usize,
        /// Shadow rules re-partitioned because of this deletion (Fig. 6).
        repartitioned: usize,
    },
    /// A modification.
    Modify {
        /// Whether it was applied in place (no priority change).
        in_place: bool,
    },
}

/// The controller-visible outcome of one control-plane action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionReport {
    /// Total simulated latency until the action took effect.
    pub latency: SimDuration,
    /// Action-specific detail.
    pub detail: ReportDetail,
}

impl ActionReport {
    /// Convenience: whether this was a guaranteed insert that missed its
    /// bound.
    pub fn violated(&self) -> bool {
        matches!(self.detail, ReportDetail::Insert { violated: true, .. })
    }

    /// Convenience: the route for insert reports.
    pub fn route(&self) -> Option<Route> {
        match self.detail {
            ReportDetail::Insert { route, .. } => Some(route),
            _ => None,
        }
    }
}

/// Lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HermesStats {
    /// Insert actions accepted.
    pub inserts: u64,
    /// Inserts serviced from the shadow table.
    pub shadow_inserts: u64,
    /// Inserts serviced from the main table (any reason).
    pub main_inserts: u64,
    /// Inserts that installed nothing (Fig. 5(a) redundancy).
    pub redundant_inserts: u64,
    /// Guaranteed inserts that missed the bound.
    pub violations: u64,
    /// Total shadow entries written (partition pieces).
    pub pieces_written: u64,
    /// Inserts whose rule was actually cut (pieces != original).
    pub rules_cut: u64,
    /// Delete actions.
    pub deletes: u64,
    /// Modify actions.
    pub modifies: u64,
    /// Shadow rules re-partitioned due to main-table churn.
    pub repartitions: u64,
    /// Migration passes.
    pub migrations: u64,
    /// Logical rules migrated shadow→main.
    pub rules_migrated: u64,
}

impl HermesStats {
    /// Running estimate of TCAM entries per logical shadow insert — the
    /// `r_p` of Equation 2.
    pub fn expected_partitions(&self) -> f64 {
        if self.shadow_inserts == 0 {
            1.0
        } else {
            (self.pieces_written as f64 / self.shadow_inserts as f64).max(1.0)
        }
    }
}

/// Installed partition pieces of one shadow rule: physical id and key.
type Pieces = Vec<(RuleId, TernaryKey)>;

/// A logical rule resident in the shadow table.
#[derive(Clone, Debug)]
struct ShadowEntry {
    original: Rule,
    /// Partition pieces (empty for redundant rules).
    pieces: Pieces,
    /// Main rules it was cut against.
    cut_against: Vec<RuleId>,
}

/// A rule the planner placed in the shadow table: partition cut, nothing
/// written yet.
#[derive(Clone, Debug)]
struct PlannedShadow {
    rule: Rule,
    /// Partition keys in write order (empty for a redundant rule).
    keys: Vec<TernaryKey>,
    cut_against: Vec<RuleId>,
    intact: bool,
    guaranteed: bool,
    /// Physical ids, allocated when the plan joins a batched transaction.
    /// Empty on the per-op path, which allocates each id at its write.
    ids: Vec<RuleId>,
}

/// The planner's verdict for one admitted rule.
enum InsertPlan {
    /// Land in the main table. `early` marks a divert made before
    /// Algorithm 1 produced a partition (Gate Keeper pre-route or a
    /// fragmentation blow-up): the per-op path returns straight after
    /// such a landing, without its inline migration check.
    Main {
        route: Route,
        guaranteed: bool,
        early: bool,
    },
    /// Wholly subsumed by higher-priority main rules (Fig. 5(a)).
    Redundant(PlannedShadow),
    Shadow(PlannedShadow),
}

/// Maps a device rejection to the controller-visible error.
fn device_error(e: TcamError) -> HermesError {
    match e {
        TcamError::Full => HermesError::DeviceFull,
        e => HermesError::Device(e),
    }
}

/// The Hermes agent for one switch.
#[derive(Debug)]
pub struct HermesSwitch {
    device: TcamDevice,
    config: HermesConfig,
    gate: GateKeeper,
    manager: RuleManager,
    /// Logical rules resident in the main table, with original priorities.
    main_index: OverlapIndex,
    /// Logical rules resident in the shadow table.
    shadow: BTreeMap<RuleId, ShadowEntry>,
    /// Shadow insertion order (FIFO semantics + migration order).
    shadow_order: Vec<RuleId>,
    /// main rule id → shadow rules cut against it (the reverse of `M`).
    blockers: BTreeMap<RuleId, Vec<RuleId>>,
    /// Priority histogram over all logical rules (for the low-priority
    /// bypass check).
    prio_counts: BTreeMap<u32, usize>,
    next_phys: u64,
    stats: HermesStats,
    /// Retry/journal/degraded-mode state (see [`crate::recovery`]).
    recovery: RecoveryState,
    /// Durable checkpoint + journal of the installed-rule intent — what a
    /// crashed device is rebuilt from (see [`crate::resync`]).
    intent: IntentStore,
    /// Crash/resync health counters.
    resync_stats: ResyncStats,
    /// An unresolved crash window is open: the device lost its control
    /// session (and possibly state) and resync has not yet completed.
    crash_pending: bool,
    /// When the open crash window was detected (guarantee-gap metric).
    crash_detected_at: Option<SimTime>,
    /// High-water mark of `now` across public entry points; used to stamp
    /// degraded-mode episodes from internal paths that take no clock.
    clock: SimTime,
}

impl HermesSwitch {
    /// Builds a Hermes agent on the given switch model.
    ///
    /// The shadow slice is sized as the largest table whose *worst-case*
    /// insertion latency meets the guarantee (or `config.shadow_size` when
    /// overridden); the main slice gets the remainder of the TCAM.
    pub fn new(model: SwitchModel, config: HermesConfig) -> Result<Self, HermesError> {
        let shadow_size = match config.shadow_size {
            Some(s) => s.min(model.capacity / 2),
            None => model
                .max_table_for_guarantee(config.guarantee)
                .ok_or(HermesError::InfeasibleGuarantee)?
                .clamp(1, model.capacity / 2),
        };
        if shadow_size == 0 {
            return Err(HermesError::InfeasibleGuarantee);
        }
        let main_size = model.capacity - shadow_size;
        let device = TcamDevice::carved(
            model,
            &[
                ("shadow", shadow_size, MissBehavior::GotoNextSlice),
                ("main", main_size, MissBehavior::ToController),
            ],
        );
        // Admission rate from Equation 2, λ = S_ST / (r_p · t_m), reading
        // t_m as the time to drain the full shadow (S_ST rules at the
        // per-rule migration cost — the only reading with consistent
        // units): λ = 1 / (r_p · per_rule_migration_time). Initial
        // estimates: r_p = 1, migration cost at half main occupancy. The
        // token bucket's burst is the shadow capacity itself.
        let per_rule = device.model().mean_update_latency(main_size / 2).as_secs();
        let derived = if per_rule > 0.0 {
            1.0 / per_rule
        } else {
            f64::INFINITY
        };
        let rate = config.rate_limit.unwrap_or(derived);
        let mut gate = GateKeeper::new(
            config.predicate.clone(),
            if rate.is_finite() {
                Some((rate, shadow_size as f64))
            } else {
                None
            },
            config.max_partitions,
        );
        gate.set_low_priority_bypass(config.low_priority_bypass);
        let manager = RuleManager::new(config.trigger);
        let recovery = RecoveryState::new(config.retry, config.degraded_threshold);
        let intent = IntentStore::new(config.resync.checkpoint_interval);
        Ok(HermesSwitch {
            device,
            config,
            gate,
            manager,
            main_index: OverlapIndex::new(),
            shadow: BTreeMap::new(),
            shadow_order: Vec::new(),
            blockers: BTreeMap::new(),
            prio_counts: BTreeMap::new(),
            next_phys: PHYS_BASE,
            stats: HermesStats::default(),
            recovery,
            intent,
            resync_stats: ResyncStats::default(),
            crash_pending: false,
            crash_detected_at: None,
            clock: SimTime::ZERO,
        })
    }

    /// The agent's configuration.
    pub fn config(&self) -> &HermesConfig {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> HermesStats {
        self.stats
    }

    /// Shadow-slice capacity (the TCAM overhead Hermes pays).
    pub fn shadow_capacity(&self) -> usize {
        self.device.slice(SHADOW).table.capacity()
    }

    /// Current shadow occupancy in entries.
    pub fn shadow_len(&self) -> usize {
        self.device.slice(SHADOW).table.len()
    }

    /// Current main-table occupancy in entries.
    pub fn main_len(&self) -> usize {
        self.device.slice(MAIN).table.len()
    }

    /// Number of logical rules installed (shadow + main).
    pub fn logical_len(&self) -> usize {
        self.shadow.len() + self.main_index.len()
    }

    /// TCAM overhead as a fraction of total capacity (`QoSOverheads`, §7).
    pub fn overhead_fraction(&self) -> f64 {
        self.shadow_capacity() as f64 / self.device.model().capacity as f64
    }

    /// The maximum *sustained* guaranteed insertion rate λ (Equation 2,
    /// `λ = S_ST / (r_p · t_m)` with `t_m` the time to drain the full
    /// shadow): rules cannot enter the shadow faster than migration can
    /// move them out, so λ = 1 / (r_p · per-rule migration cost). Bursts
    /// up to the shadow capacity on top of this are absorbed by the
    /// token bucket.
    pub fn max_supported_rate(&self) -> f64 {
        let per_rule = self
            .device
            .model()
            .mean_update_latency(
                self.main_len()
                    .max(self.device.slice(MAIN).table.capacity() / 2),
            )
            .as_secs();
        if per_rule <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / (self.stats.expected_partitions() * per_rule)
    }

    /// Borrow the underlying device (telemetry/tests).
    pub fn device(&self) -> &TcamDevice {
        &self.device
    }

    /// Installs (or clears) a fault-injection plan on the device's control
    /// channel (chaos testing).
    pub fn install_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.device.set_fault_plan(plan);
    }

    /// Injected-fault counters, when a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.device.fault_stats()
    }

    /// Recovery-subsystem health counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.stats
    }

    /// Crash/resync-subsystem health counters.
    pub fn resync_stats(&self) -> ResyncStats {
        self.resync_stats
    }

    /// Whether the switch is inside a crash window: the control session
    /// is down, or it crashed and resync has not yet completed. The
    /// guarantee is suspended until [`resync`](Self::resync) finishes.
    pub fn is_down(&self) -> bool {
        self.crash_pending || !self.device.is_connected()
    }

    /// Rules in the durable intent store (must equal the logical
    /// shadow + main population).
    pub fn intent_len(&self) -> usize {
        self.intent.len()
    }

    /// Intent-journal entries not yet folded into the checkpoint.
    pub fn intent_journal_depth(&self) -> usize {
        self.intent.journal_depth()
    }

    /// Injects a crash-class fault directly (netsim switch-down windows
    /// and chaos tests): the device drops its control session and loses
    /// state per `kind`, and the controller books the crash immediately.
    pub fn inject_crash(
        &mut self,
        kind: CrashKind,
        survivor_seed: u64,
        reconnect_denials: u32,
        now: SimTime,
    ) {
        self.clock = self.clock.max(now);
        self.device.force_crash(CrashSpec {
            kind,
            survivor_seed,
            reconnect_denials,
        });
        self.note_crash();
    }

    /// Books a newly-detected crash: opens the crash window, stamps the
    /// detection time for the guarantee-gap metric, and forces the Gate
    /// Keeper into degraded mode so admissions queue instead of hammering
    /// the dead session.
    fn note_crash(&mut self) {
        if self.crash_pending {
            return;
        }
        self.crash_pending = true;
        self.crash_detected_at = Some(self.clock);
        self.resync_stats.crashes_detected += 1;
        hermes_telemetry::counter("resync.crashes_detected", 1);
        self.recovery.enter_degraded(self.clock);
    }

    /// Whether the Gate Keeper is currently in degraded mode (queuing
    /// admissions because the control channel looks dead).
    pub fn is_degraded(&self) -> bool {
        self.recovery.is_degraded()
    }

    /// Admissions queued by degraded mode, awaiting the channel's return.
    pub fn deferred_len(&self) -> usize {
        self.recovery.deferred.len()
    }

    /// Total simulated time spent in degraded mode so far (including a
    /// still-open episode, measured against the given clock).
    pub fn degraded_time(&self, now: SimTime) -> SimDuration {
        SimDuration::from_nanos(self.recovery.degraded_ns_total(now.max(self.clock)))
    }

    /// All logical rules currently installed, in no particular order.
    pub fn logical_rules(&self) -> Vec<Rule> {
        let mut out: Vec<Rule> = self.main_index.iter().collect();
        out.extend(self.shadow.values().map(|e| e.original));
        out.extend(self.recovery.deferred.iter().copied());
        out
    }

    /// Whether a logical rule is installed (including admissions queued by
    /// degraded mode — they are accepted, just not yet placed).
    pub fn contains(&self, id: RuleId) -> bool {
        self.shadow.contains_key(&id)
            || self.main_index.contains(id)
            || self.recovery.deferred.iter().any(|r| r.id == id)
    }

    /// Whether the durable intent store intends the given rule — the view
    /// a post-crash resync would rebuild. The fleet's transaction layer
    /// checks this after a rollback: a retracted rule must not be
    /// resurrected by the next resync.
    pub fn intent_contains(&self, id: RuleId) -> bool {
        self.intent.contains(id)
    }

    /// Rolls back a set of staged rules (the fleet's two-phase abort
    /// path): each present rule is deleted through the normal path — the
    /// delete journal absorbs device faults, the intent retraction keeps
    /// resync from resurrecting it — and absent ids are skipped silently
    /// (a crash may already have taken the entry). Returns the number of
    /// rules actually retracted.
    pub fn rollback_batch(&mut self, ids: &[RuleId], now: SimTime) -> usize {
        let mut retracted = 0;
        for id in ids {
            if !self.contains(*id) {
                continue;
            }
            if self.delete(*id, now).is_ok() {
                retracted += 1;
            }
        }
        retracted
    }

    /// Looks up a logical rule.
    pub fn get(&self, id: RuleId) -> Option<Rule> {
        self.shadow
            .get(&id)
            .map(|e| e.original)
            .or_else(|| self.main_index.get(id))
            .or_else(|| self.recovery.deferred.iter().find(|r| r.id == id).copied())
    }

    fn alloc_phys(&mut self) -> RuleId {
        let id = RuleId(self.next_phys);
        self.next_phys += 1;
        id
    }

    fn lowest_live_priority(&self) -> Option<Priority> {
        self.prio_counts.keys().next().map(|&p| Priority(p))
    }

    fn prio_add(&mut self, p: Priority) {
        *self.prio_counts.entry(p.0).or_insert(0) += 1;
    }

    fn prio_remove(&mut self, p: Priority) {
        if let Some(c) = self.prio_counts.get_mut(&p.0) {
            *c -= 1;
            if *c == 0 {
                self.prio_counts.remove(&p.0);
            }
        }
    }

    fn register_blockers(&mut self, rule: RuleId, cut_against: &[RuleId]) {
        for b in cut_against {
            self.blockers.entry(*b).or_default().push(rule);
        }
    }

    fn unregister_blockers(&mut self, rule: RuleId, cut_against: &[RuleId]) {
        for b in cut_against {
            if let Some(v) = self.blockers.get_mut(b) {
                v.retain(|r| *r != rule);
                if v.is_empty() {
                    self.blockers.remove(b);
                }
            }
        }
    }

    /// One device op with retry: transient failures back off exponentially
    /// (with jitter) up to the policy's attempt budget, and the backoff
    /// time is charged into the returned report's latency — a retried
    /// insert can still honestly violate its guarantee. Success resets the
    /// degraded-mode failure streak; exhaustion extends it.
    // INVARIANT: intent-neutral chokepoint — every public caller records
    // the matching IntentOp itself before or after the physical write.
    fn dev_apply(&mut self, slice: usize, action: &ControlAction) -> Result<OpReport, TcamError> {
        let (mut rep, penalty) = self.with_retry(|device| device.apply(slice, action))?;
        rep.latency += penalty;
        Ok(rep)
    }

    /// One batched device transaction with retry, as
    /// [`dev_apply`](Self::dev_apply). The device batch is atomic — a
    /// rejected transaction applied nothing — so retrying the identical
    /// op sequence is always safe.
    // INVARIANT: intent-neutral chokepoint — every public caller records
    // the matching IntentOp itself before or after the physical write.
    fn dev_apply_batch(
        &mut self,
        slice: usize,
        ops: &[TcamOp],
    ) -> Result<BatchOpReport, TcamError> {
        let (mut rep, penalty) = self.with_retry(|device| device.apply_batch(slice, ops))?;
        rep.latency += penalty;
        Ok(rep)
    }

    /// The retry loop behind [`dev_apply`](Self::dev_apply) and
    /// [`dev_apply_batch`](Self::dev_apply_batch). Returns the device's
    /// report with the backoff time spent before it succeeded.
    fn with_retry<R>(
        &mut self,
        mut op: impl FnMut(&mut TcamDevice) -> Result<R, TcamError>,
    ) -> Result<(R, SimDuration), TcamError> {
        let mut penalty = SimDuration::ZERO;
        let mut attempt = 1u32;
        loop {
            match op(&mut self.device) {
                Ok(rep) => {
                    self.recovery.on_success(self.clock);
                    return Ok((rep, penalty));
                }
                Err(e) if e.is_transient() => {
                    self.recovery.stats.transient_failures += 1;
                    if attempt >= self.recovery.policy.max_attempts {
                        self.recovery.on_permanent_failure(self.clock);
                        return Err(e);
                    }
                    self.recovery.stats.retries += 1;
                    penalty += self.recovery.backoff(attempt);
                    attempt += 1;
                }
                // State errors (full / not-found / duplicate): retrying
                // cannot change the answer; the caller picks the fallback.
                // A lost control session opens the crash window instead of
                // burning retries — the resync engine owns recovery.
                Err(e) => {
                    if matches!(e, TcamError::Disconnected) {
                        self.note_crash();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Insert with stale-duplicate self-healing. The caller's bookkeeping
    /// says the id is free, so a device `Duplicate` can only mean a
    /// silently-dropped delete left a stale entry behind — replace it.
    /// Also purges any journaled delete for the id, which would otherwise
    /// replay later and destroy the legitimate new entry.
    fn dev_insert(&mut self, slice: usize, rule: Rule) -> Result<OpReport, TcamError> {
        self.recovery
            .pending_gc
            .retain(|(s, p)| *s != slice || *p != rule.id);
        match self.dev_apply(slice, &ControlAction::Insert(rule)) {
            Err(TcamError::Duplicate(id)) => {
                let penalty = match self.dev_apply(slice, &ControlAction::Delete(id)) {
                    Ok(rep) => rep.latency,
                    Err(_) => SimDuration::ZERO,
                };
                self.recovery.stats.actions_fixed += 1;
                self.dev_apply(slice, &ControlAction::Insert(rule))
                    .map(|mut rep| {
                        rep.latency += penalty;
                        rep
                    })
            }
            r => r,
        }
    }

    /// Best-effort physical delete. `NotFound` counts as success (the
    /// install was silently dropped, so there is nothing to remove);
    /// retry exhaustion journals the delete for idempotent replay so the
    /// entry can never be stranded.
    fn dev_delete_or_journal(&mut self, slice: usize, pid: RuleId) -> SimDuration {
        match self.dev_apply(slice, &ControlAction::Delete(pid)) {
            Ok(rep) => rep.latency,
            Err(TcamError::NotFound(_)) => SimDuration::ZERO,
            Err(_) => {
                self.recovery.pending_gc.push((slice, pid));
                SimDuration::ZERO
            }
        }
    }

    /// Replays the journal of failed physical deletes. Idempotent: an
    /// entry already gone is simply dropped. Returns how many journal
    /// entries were cleared and the device time spent.
    fn replay_journal(&mut self) -> (usize, SimDuration) {
        if self.recovery.pending_gc.is_empty() {
            return (0, SimDuration::ZERO);
        }
        let pending = std::mem::take(&mut self.recovery.pending_gc);
        let mut cleared = 0;
        let mut latency = SimDuration::ZERO;
        for (slice, pid) in pending {
            match self.dev_apply(slice, &ControlAction::Delete(pid)) {
                Ok(rep) => {
                    latency += rep.latency;
                    cleared += 1;
                    self.recovery.stats.journal_replays += 1;
                }
                Err(TcamError::NotFound(_)) => {
                    cleared += 1;
                    self.recovery.stats.journal_replays += 1;
                }
                Err(_) => self.recovery.pending_gc.push((slice, pid)),
            }
        }
        (cleared, latency)
    }

    /// Submits a control-plane action (the OpenFlow `flow-mod` surface).
    pub fn submit(
        &mut self,
        action: &ControlAction,
        now: SimTime,
    ) -> Result<ActionReport, HermesError> {
        match action {
            ControlAction::Insert(rule) => self.insert(*rule, now),
            ControlAction::Delete(id) => self.delete(*id, now),
            ControlAction::Modify {
                id,
                action,
                priority,
            } => self.modify(*id, *action, *priority, now),
        }
    }

    /// Inserts a rule.
    ///
    /// While the Gate Keeper is in degraded mode (the control channel has
    /// repeatedly timed out) the admission is queued instead of hammering
    /// the dead channel, reported as [`Route::Deferred`]; queued rules are
    /// applied by the next tick or audit once the channel recovers.
    pub fn insert(&mut self, rule: Rule, now: SimTime) -> Result<ActionReport, HermesError> {
        self.clock = self.clock.max(now);
        if let Some(settled) = self.screen(rule, &mut BTreeSet::new()) {
            return settled;
        }
        self.insert_live(rule, now)
    }

    /// Admission checks shared by [`insert`](Self::insert) and
    /// [`admit_batch`](Self::admit_batch): the id range, duplicates
    /// (against the installed rules and the ids in `seen`, which this
    /// extends) and degraded-mode deferral. Returns the rule's outcome
    /// when it is settled here, `None` when it proceeds to the live path.
    fn screen(
        &mut self,
        rule: Rule,
        seen: &mut BTreeSet<RuleId>,
    ) -> Option<Result<ActionReport, HermesError>> {
        if rule.id.0 >= PHYS_BASE {
            return Some(Err(HermesError::IdOutOfRange(rule.id)));
        }
        if self.contains(rule.id) || !seen.insert(rule.id) {
            return Some(Err(HermesError::Duplicate(rule.id)));
        }
        if !self.recovery.is_degraded() {
            return None;
        }
        let guaranteed = self.gate.qualifies(&rule);
        self.recovery.defer(rule);
        Route::Deferred.record();
        Some(Ok(ActionReport {
            latency: SimDuration::from_us(10.0),
            detail: ReportDetail::Insert {
                route: Route::Deferred,
                pieces: 0,
                guaranteed,
                // Deferral is surfaced through the health counters, not
                // the violation count: during an outage there is no
                // latency to measure against the bound.
                violated: false,
            },
        }))
    }

    /// The live insert path (Gate Keeper healthy). Factored out so the
    /// degraded-mode queue can drain through the exact same logic.
    fn insert_live(&mut self, rule: Rule, now: SimTime) -> Result<ActionReport, HermesError> {
        let lowest = self.lowest_live_priority();
        let report = match self.plan_insert(rule, now, lowest, 0) {
            InsertPlan::Main {
                route,
                guaranteed,
                early,
            } => {
                let report = self.insert_to_main(rule, route, guaranteed);
                if early {
                    return report;
                }
                report
            }
            InsertPlan::Redundant(p) => Ok(self.commit_redundant(p)),
            // A failed shadow write returns before the trigger check too.
            InsertPlan::Shadow(p) => Ok(self.install_shadow_rule(p)?),
        };
        self.maybe_migrate_inline(now);
        report
    }

    /// The routing decision for one admitted rule (Fig. 3): the Gate
    /// Keeper's pre-route, Algorithm 1 against the main table, the
    /// post-route capacity check and the worst-case-sum divert. `lowest`
    /// is the live-priority floor for the §4.2 bypass; `pending` counts
    /// shadow pieces planned but not yet written (a batched transaction
    /// in flight), which the capacity and guarantee estimates must treat
    /// as already installed.
    fn plan_insert(
        &mut self,
        rule: Rule,
        now: SimTime,
        lowest: Option<Priority>,
        pending: usize,
    ) -> InsertPlan {
        self.stats.inserts += 1;
        self.manager.record_arrival();
        let guaranteed = self.gate.qualifies(&rule);
        let main = |route, early| InsertPlan::Main {
            route,
            guaranteed,
            early,
        };
        if let Some(route) = self.gate.pre_route(&rule, now, lowest) {
            return main(route, true);
        }

        // Algorithm 1 against the main table, with a fragmentation budget:
        // rules that would explode into partitions go straight to the main
        // table (§4.2's footnote), detected early to keep insertion cheap.
        // The budget equals the Gate Keeper's own partition cap — anything
        // beyond it would be diverted by post_route anyway.
        let limit = self.config.max_partitions;
        let Ok(outcome) = partition_new_rule_bounded(&rule, &self.main_index, limit) else {
            return main(Route::MainTooFragmented, true);
        };
        let n = outcome.pieces.len();
        let shadow_free = self
            .device
            .slice(SHADOW)
            .table
            .free()
            .saturating_sub(pending);
        let mut route = self.gate.post_route(n, shadow_free);

        // A partitioned rule writes several shadow entries and the
        // guarantee covers their *sum*: divert to the main table when even
        // the worst-case cumulative cost cannot fit the bound. (Heavily
        // partitioned rules are exactly the ones §4.2 argues belong in the
        // main table.)
        if route == Route::Shadow && n > 1 {
            let occ = self.shadow_len() + pending;
            let model = self.device.model();
            let est: SimDuration = (0..n).map(|j| model.worst_insert_latency(occ + j)).sum();
            if est > self.config.guarantee {
                route = Route::MainTooFragmented;
            }
        }

        let plan = PlannedShadow {
            intact: outcome.is_intact(&rule.key),
            rule,
            keys: outcome.pieces,
            cut_against: outcome.cut_against,
            guaranteed,
            ids: Vec::new(),
        };
        match route {
            Route::Redundant => InsertPlan::Redundant(plan),
            Route::Shadow => InsertPlan::Shadow(plan),
            route => main(route, false),
        }
    }

    /// Hermes-SIMPLE checks its threshold after every admission; the
    /// predictive manager additionally gets an emergency check so a burst
    /// arriving between ticks cannot silently fill the shadow (the
    /// threshold baseline deliberately has no such safety net — that
    /// naivety is exactly what §8.5 measures).
    fn maybe_migrate_inline(&mut self, now: SimTime) {
        let emergency = matches!(self.config.trigger, MigrationTrigger::Predictive { .. })
            && self.shadow_len() as f64 >= 0.9 * self.shadow_capacity() as f64;
        if (self
            .manager
            .wants_migration_inline(self.shadow_len(), self.shadow_capacity())
            || emergency)
            && !self.manager.is_busy(now)
        {
            self.migrate(now);
        }
    }

    /// Installs a rule directly in the main table, then re-cuts any
    /// lower-priority shadow rules it now overlaps (the symmetric case of
    /// Fig. 6 — required to keep the shadow-first lookup correct).
    fn insert_to_main(
        &mut self,
        rule: Rule,
        route: Route,
        guaranteed: bool,
    ) -> Result<ActionReport, HermesError> {
        route.record();
        let rep = self.dev_insert(MAIN, rule).map_err(device_error)?;
        self.main_index.insert(rule);
        self.prio_add(rule.priority);
        self.intent.record(IntentOp::Install(rule));
        self.stats.main_inserts += 1;

        let latency = rep.latency + self.recut_below(rule);

        // Main-table routes are outside the guarantee contract except for
        // MainShadowFull: over-rate traffic is explicitly best-effort
        // ("Hermes uses the main table to service the additional commands
        // over the approved rate"), and the low-priority / fragmentation
        // bypasses are Hermes's own optimizations that stay cheap. Only a
        // shadow-table overflow breaks a promise.
        let violated = guaranteed && route.breaks_guarantee();
        if violated {
            self.stats.violations += 1;
        }
        Ok(ActionReport {
            latency,
            detail: ReportDetail::Insert {
                route,
                pieces: 1,
                guaranteed,
                violated,
            },
        })
    }

    /// Inserts a whole slice of rules as a batched control-plane pipeline:
    /// the same planner as [`insert`](Self::insert), with every run of
    /// consecutive shadow-bound rules pushed through a *single* device
    /// transaction (one handshake, one coalesced shift plan). Returns one
    /// outcome per rule, in submission order.
    ///
    /// Semantics match [`insert`](Self::insert) called once per rule, with
    /// three documented deviations inherent to batching:
    ///
    /// * the whole slice is screened (ids, duplicates — within the slice
    ///   too — and degraded-mode deferral) before any rule is placed;
    /// * the §4.2 bypass sees a pre-batch `lowest_live_priority` snapshot,
    ///   and the token bucket the batch's single arrival instant;
    /// * the shared transaction's latency is split evenly across the
    ///   batch's shadow-bound rules, and the migration trigger is
    ///   evaluated once after the batch rather than after every rule.
    ///
    /// Correctness is *not* relaxed: a rule routed to the main table mid-
    /// batch first flushes the pending shadow transaction, so the Fig. 6
    /// re-cut always runs against fully installed pieces and the
    /// shadow-first lookup invariant holds at every device-op boundary.
    pub fn admit_batch(
        &mut self,
        rules: &[Rule],
        now: SimTime,
    ) -> Vec<Result<ActionReport, HermesError>> {
        self.clock = self.clock.max(now);
        let mut results = vec![None; rules.len()];
        let mut seen = BTreeSet::new();
        let mut admitted = Vec::with_capacity(rules.len());
        for (i, rule) in rules.iter().enumerate() {
            match self.screen(*rule, &mut seen) {
                Some(settled) => results[i] = Some(settled),
                None => admitted.push(i),
            }
        }

        // Consecutive shadow-bound plans accumulate into one pending
        // transaction (`ops` holds one insert per planned piece); any
        // main-table landing flushes it first (see the doc comment).
        let lowest = self.lowest_live_priority();
        let mut pending: Vec<(usize, PlannedShadow)> = Vec::new();
        let mut ops: Vec<TcamOp> = Vec::new();
        for i in admitted {
            let rule = rules[i];
            match self.plan_insert(rule, now, lowest, ops.len()) {
                InsertPlan::Main {
                    route, guaranteed, ..
                } => {
                    self.flush_shadow_batch(&mut pending, &mut ops, &mut results);
                    results[i] = Some(self.insert_to_main(rule, route, guaranteed));
                }
                InsertPlan::Redundant(p) => results[i] = Some(Ok(self.commit_redundant(p))),
                InsertPlan::Shadow(mut p) => {
                    p.ids = p.keys.iter().map(|_| self.alloc_phys()).collect();
                    ops.extend(p.ids.iter().zip(&p.keys).map(|(id, key)| {
                        TcamOp::Insert(Rule {
                            id: *id,
                            key: *key,
                            ..rule
                        })
                    }));
                    pending.push((i, p));
                }
            }
        }
        self.flush_shadow_batch(&mut pending, &mut ops, &mut results);
        self.maybe_migrate_inline(now);
        results
            .into_iter()
            .map(|r| r.expect("INVARIANT: every submitted rule is screened or planned"))
            .collect()
    }

    /// Writes one pending shadow transaction and completes each planned
    /// rule's bookkeeping. The shared handshake's latency is split evenly
    /// across the batch; if the transaction is rejected whole, each rule
    /// falls back to its own per-piece install so one unplaceable rule
    /// cannot sink its batch-mates.
    fn flush_shadow_batch(
        &mut self,
        pending: &mut Vec<(usize, PlannedShadow)>,
        ops: &mut Vec<TcamOp>,
        results: &mut [Option<Result<ActionReport, HermesError>>],
    ) {
        if pending.is_empty() {
            return;
        }
        let planned = std::mem::take(pending);
        let ops = std::mem::take(ops);
        match self.dev_apply_batch(SHADOW, &ops) {
            Ok(rep) => {
                let share = rep.latency.mul_f64(1.0 / planned.len() as f64);
                for (i, p) in planned {
                    let pieces = p.ids.iter().copied().zip(p.keys.iter().copied()).collect();
                    results[i] = Some(Ok(self.commit_shadow_rule(p, pieces, share)));
                }
            }
            Err(_) => {
                for (i, p) in planned {
                    results[i] = Some(self.install_shadow_rule(p));
                }
            }
        }
    }

    /// The per-op shadow install: writes the planned pieces one device op
    /// at a time (rolling back on failure) and commits the rule.
    fn install_shadow_rule(&mut self, p: PlannedShadow) -> Result<ActionReport, HermesError> {
        let (pieces, latency) = self
            .write_pieces(p.rule, &p.keys, &p.ids)
            .map_err(|(e, _)| device_error(e))?;
        Ok(self.commit_shadow_rule(p, pieces, latency))
    }

    /// Writes shadow pieces of `template` one device op at a time, in key
    /// order. Each piece takes its physical id from `ids` when one was
    /// preallocated, otherwise a fresh id allocated just before its write
    /// — so a failed install consumes ids only up to the failing piece.
    /// On the first failure the pieces already written are deleted again
    /// (a refused delete goes to the GC journal), so no piece of an
    /// unacknowledged write can match; the error comes back with the time
    /// spent, rollback included.
    fn write_pieces(
        &mut self,
        template: Rule,
        keys: &[TernaryKey],
        ids: &[RuleId],
    ) -> Result<(Pieces, SimDuration), (TcamError, SimDuration)> {
        let mut latency = SimDuration::ZERO;
        let mut written = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let pid = match ids.get(i) {
                Some(id) => *id,
                None => self.alloc_phys(),
            };
            let phys = Rule {
                id: pid,
                key: *key,
                ..template
            };
            match self.dev_apply(SHADOW, &ControlAction::Insert(phys)) {
                Ok(rep) => {
                    latency += rep.latency;
                    written.push((pid, *key));
                }
                Err(e) => {
                    for (pid, _) in &written {
                        latency += self.dev_delete_or_journal(SHADOW, *pid);
                    }
                    self.recovery.stats.rollbacks += 1;
                    return Err((e, latency));
                }
            }
        }
        Ok((written, latency))
    }

    /// Books a logical rule as shadow-resident with the given physical
    /// pieces (none for a redundant rule) and records its intent.
    // INVARIANT: the pieces are already on the device — intent is recorded
    // here so the checkpoint sees exactly the rules whose pieces landed.
    fn place_in_shadow(&mut self, rule: Rule, pieces: Pieces, cut_against: Vec<RuleId>) {
        self.register_blockers(rule.id, &cut_against);
        self.shadow.insert(
            rule.id,
            ShadowEntry {
                original: rule,
                pieces,
                cut_against,
            },
        );
        self.shadow_order.push(rule.id);
        self.prio_add(rule.priority);
        self.intent.record(IntentOp::Install(rule));
    }

    /// Bookkeeping for a redundant rule: logically installed, nothing
    /// written (Fig. 5(a)), charged only agent processing time.
    fn commit_redundant(&mut self, p: PlannedShadow) -> ActionReport {
        self.stats.redundant_inserts += 1;
        self.place_in_shadow(p.rule, Vec::new(), p.cut_against);
        Route::Redundant.record();
        ActionReport {
            latency: SimDuration::from_us(10.0),
            detail: ReportDetail::Insert {
                route: Route::Redundant,
                pieces: 0,
                guaranteed: p.guaranteed,
                violated: false,
            },
        }
    }

    /// Bookkeeping for one shadow rule whose pieces are physically
    /// installed, by a batched transaction or by the per-op writes.
    fn commit_shadow_rule(
        &mut self,
        p: PlannedShadow,
        pieces: Pieces,
        latency: SimDuration,
    ) -> ActionReport {
        let n = pieces.len();
        self.stats.shadow_inserts += 1;
        self.stats.pieces_written += n as u64;
        if !p.intact {
            self.stats.rules_cut += 1;
        }
        let violated = p.guaranteed && latency > self.config.guarantee;
        if violated {
            self.stats.violations += 1;
        }
        self.place_in_shadow(p.rule, pieces, p.cut_against);
        Route::Shadow.record();
        hermes_telemetry::observe("gatekeeper.shadow_insert_ns", latency.as_nanos());
        ActionReport {
            latency,
            detail: ReportDetail::Insert {
                route: Route::Shadow,
                pieces: n,
                guaranteed: p.guaranteed,
                violated,
            },
        }
    }

    /// Narrows every shadow-resident rule of *strictly lower* priority
    /// whose *installed pieces* overlap a rule that just landed in the
    /// main table. Without this, the shadow-first lookup would let those
    /// rules wrongly win inside the new rule's region (the symmetric case
    /// of the Fig. 4(b) violation).
    ///
    /// This is incremental: the pieces already avoid every older
    /// higher-priority main rule, so only a cut against the *new* rule is
    /// needed — not a full re-partition.
    fn recut_below(&mut self, new_main: Rule) -> SimDuration {
        let mut affected: Vec<RuleId> = self
            .shadow
            .values()
            .filter(|e| {
                e.original.priority < new_main.priority
                    && e.pieces.iter().any(|(_, k)| k.overlaps(&new_main.key))
            })
            .map(|e| e.original.id)
            .collect();
        // The op sequence must be deterministic (fault plans and latencies
        // depend on it). BTreeMap iteration is already RuleId-sorted; the
        // explicit sort documents the requirement and keeps it true even
        // if the container changes again.
        affected.sort_unstable_by_key(|id| id.0);
        let mut latency = SimDuration::ZERO;
        for id in affected {
            latency += self.narrow_shadow_rule(id, new_main);
        }
        latency
    }

    /// Cuts the overlapping pieces of one shadow rule against a single new
    /// main-table key (make-before-break). Falls back to evicting the rule
    /// to the main table if the shadow cannot hold the replacements.
    fn narrow_shadow_rule(&mut self, id: RuleId, against: Rule) -> SimDuration {
        let entry = match self.shadow.get(&id) {
            Some(e) => e.clone(),
            None => return SimDuration::ZERO,
        };
        let mut kept: Pieces = Vec::with_capacity(entry.pieces.len());
        let mut doomed: Vec<RuleId> = Vec::new();
        let mut replacements: Vec<TernaryKey> = Vec::new();
        for (pid, key) in &entry.pieces {
            if key.overlaps(&against.key) {
                doomed.push(*pid);
                replacements.extend(key.difference(&against.key));
            } else {
                kept.push((*pid, *key));
            }
        }
        if doomed.is_empty() {
            // A recursive eviction triggered by an earlier rule in this
            // recut pass may have already narrowed this rule.
            return SimDuration::ZERO;
        }
        let replacements = hermes_rules::merge::minimize_keys(replacements);
        if kept.len() + replacements.len() > self.config.max_partitions {
            return self.evict_shadow_rule_to_main(&entry);
        }
        let (new_ids, mut latency) = match self.write_pieces(entry.original, &replacements, &[]) {
            Ok(done) => done,
            // The partial narrow is rolled back: fall back to the main
            // table (correct, unguaranteed).
            Err((_, latency)) => return latency + self.evict_shadow_rule_to_main(&entry),
        };
        for pid in &doomed {
            latency += self.dev_delete_or_journal(SHADOW, *pid);
        }
        kept.extend(new_ids);
        // The rule now also depends on the new main rule for its shape —
        // registered by identity (two main rules may share a key).
        if let Some(e) = self.shadow.get_mut(&id) {
            e.pieces = kept;
            if !e.cut_against.contains(&against.id) {
                e.cut_against.push(against.id);
            }
        }
        self.register_blockers(id, &[against.id]);
        self.stats.repartitions += 1;
        latency
    }

    /// Recomputes the partition of a shadow-resident rule against the
    /// current main table, replacing its pieces. Returns the TCAM time
    /// spent.
    fn repartition_shadow_rule(&mut self, id: RuleId) -> SimDuration {
        let entry = match self.shadow.get(&id) {
            Some(e) => e.clone(),
            None => return SimDuration::ZERO,
        };
        let limit = self.config.max_partitions;
        let outcome = match partition_new_rule_bounded(&entry.original, &self.main_index, limit) {
            Ok(o) => o,
            // Fragmentation blow-up on re-partition: move the rule to the
            // main table instead (correct, unguaranteed), mirroring the
            // insert-time bypass.
            Err(_) => return self.evict_shadow_rule_to_main(&entry),
        };
        // Install the new pieces first (make-before-break), then remove the
        // old ones, so the rule's coverage never drops below its target.
        let (new_ids, mut latency) = match self.write_pieces(entry.original, &outcome.pieces, &[]) {
            Ok(done) => done,
            // Shadow full (or channel dead) mid-repartition: the new
            // pieces are rolled back; fall back to the main table.
            Err((_, latency)) => return latency + self.evict_shadow_rule_to_main(&entry),
        };
        for (pid, _) in &entry.pieces {
            latency += self.dev_delete_or_journal(SHADOW, *pid);
        }
        self.unregister_blockers(id, &entry.cut_against);
        self.register_blockers(id, &outcome.cut_against);
        if let Some(e) = self.shadow.get_mut(&id) {
            e.pieces = new_ids;
            e.cut_against = outcome.cut_against;
        }
        self.stats.repartitions += 1;
        latency
    }

    /// Moves a shadow-resident logical rule into the main table: deletes
    /// its shadow pieces, installs the original in the main slice and
    /// re-cuts any lower-priority shadow rules it now overlaps. Correct
    /// (TCAM priority resolution takes over) but unguaranteed.
    fn evict_shadow_rule_to_main(&mut self, entry: &ShadowEntry) -> SimDuration {
        let id = entry.original.id;
        let mut latency = SimDuration::ZERO;
        for (pid, _) in &entry.pieces {
            latency += self.dev_delete_or_journal(SHADOW, *pid);
        }
        self.unregister_blockers(id, &entry.cut_against);
        self.shadow.remove(&id);
        self.shadow_order.retain(|r| *r != id);
        // The rule is main-resident by *intent* from here on, whether or
        // not the write lands right now: on a channel failure the audit
        // re-installs it from `main_index` instead of the rule being lost.
        if let Ok(rep) = self.dev_insert(MAIN, entry.original) {
            latency += rep.latency;
        }
        self.main_index.insert(entry.original);
        // The rule is now a main rule: lower-priority shadow rules
        // overlapping it must be re-cut, exactly as on any other
        // main-table insertion.
        latency += self.recut_below(entry.original);
        self.stats.repartitions += 1;
        latency
    }

    /// Deletes a logical rule.
    pub fn delete(&mut self, id: RuleId, now: SimTime) -> Result<ActionReport, HermesError> {
        self.clock = self.clock.max(now);
        self.stats.deletes += 1;
        // A rule still queued by degraded mode is logically installed but
        // physically nowhere: deleting it is pure bookkeeping.
        if let Some(pos) = self.recovery.deferred.iter().position(|r| r.id == id) {
            self.recovery.deferred.remove(pos);
            self.recovery.stats.deferred_dropped += 1;
            return Ok(ActionReport {
                latency: SimDuration::from_us(10.0),
                detail: ReportDetail::Delete {
                    pieces_removed: 0,
                    repartitioned: 0,
                },
            });
        }
        if let Some(entry) = self.shadow.remove(&id) {
            let mut latency = SimDuration::ZERO;
            for (pid, _) in &entry.pieces {
                latency += self.dev_delete_or_journal(SHADOW, *pid);
            }
            if entry.pieces.is_empty() {
                latency += SimDuration::from_us(10.0); // agent bookkeeping only
            }
            self.unregister_blockers(id, &entry.cut_against);
            self.shadow_order.retain(|r| *r != id);
            self.prio_remove(entry.original.priority);
            self.intent.record(IntentOp::Remove(id));
            return Ok(ActionReport {
                latency,
                detail: ReportDetail::Delete {
                    pieces_removed: entry.pieces.len(),
                    repartitioned: 0,
                },
            });
        }
        if let Some(rule) = self.main_index.remove(id) {
            // Journaled on failure; NotFound means the original install
            // was silently dropped, so the entry is already gone.
            let mut latency = self.dev_delete_or_journal(MAIN, id);
            self.prio_remove(rule.priority);
            self.intent.record(IntentOp::Remove(id));
            // Fig. 6: un-partition every shadow rule that was cut against
            // the deleted rule.
            let dependents = self.blockers.remove(&id).unwrap_or_default();
            let repartitioned = dependents.len();
            for dep in dependents {
                latency += self.repartition_shadow_rule(dep);
            }
            return Ok(ActionReport {
                latency,
                detail: ReportDetail::Delete {
                    pieces_removed: 1,
                    repartitioned,
                },
            });
        }
        self.stats.deletes -= 1;
        Err(HermesError::NotFound(id))
    }

    /// Modifies a logical rule. Priority changes become delete+insert
    /// (§4.1); action-only changes are applied in place.
    pub fn modify(
        &mut self,
        id: RuleId,
        action: Option<Action>,
        priority: Option<Priority>,
        now: SimTime,
    ) -> Result<ActionReport, HermesError> {
        self.clock = self.clock.max(now);
        let current = self.get(id).ok_or(HermesError::NotFound(id))?;
        // A rule still queued by degraded mode is modified in the queue.
        if let Some(queued) = self.recovery.deferred.iter_mut().find(|r| r.id == id) {
            if let Some(a) = action {
                queued.action = a;
            }
            let in_place = match priority {
                Some(p) if p != queued.priority => {
                    queued.priority = p;
                    false
                }
                _ => true,
            };
            self.stats.modifies += 1;
            return Ok(ActionReport {
                latency: SimDuration::from_us(10.0),
                detail: ReportDetail::Modify { in_place },
            });
        }
        if let Some(new_prio) = priority {
            if new_prio != current.priority {
                // The delete+insert legs are one modify, successful or
                // not: their own counters are restored on either exit.
                let legs = (self.stats.deletes, self.stats.inserts);
                let del = self.delete(id, now)?;
                let mut rule = current;
                rule.priority = new_prio;
                if let Some(a) = action {
                    rule.action = a;
                }
                let ins = match self.insert(rule, now) {
                    Ok(rep) => rep,
                    Err(e) => {
                        // Atomicity under faults: the delete leg already
                        // landed, so a failed re-insert must not lose the
                        // rule — a failed modify means "old rule still
                        // stands". Restore the original; if the channel is
                        // still refusing writes, park it in the degraded
                        // queue, where it stays logically present and
                        // flushes on recovery.
                        if self.insert(current, now).is_err()
                            && !self.recovery.deferred.iter().any(|r| r.id == id)
                        {
                            self.recovery.defer(current);
                        }
                        (self.stats.deletes, self.stats.inserts) = legs;
                        return Err(e);
                    }
                };
                (self.stats.deletes, self.stats.inserts) = legs;
                self.stats.modifies += 1;
                return Ok(ActionReport {
                    latency: del.latency + ins.latency,
                    detail: ReportDetail::Modify { in_place: false },
                });
            }
        }
        let Some(new_action) = action else {
            // Nothing to change.
            self.stats.modifies += 1;
            return Ok(ActionReport {
                latency: SimDuration::from_us(10.0),
                detail: ReportDetail::Modify { in_place: true },
            });
        };
        self.stats.modifies += 1;
        let mut latency = SimDuration::ZERO;
        if let Some(entry) = self.shadow.get_mut(&id) {
            entry.original.action = new_action;
            let pieces = entry.pieces.clone();
            for (pid, _) in pieces {
                // Bookkeeping already carries the new action; a device
                // failure here (or a silently-dropped piece, surfacing as
                // NotFound) leaves action drift for the audit to repair.
                if let Ok(rep) = self.dev_apply(
                    SHADOW,
                    &ControlAction::Modify {
                        id: pid,
                        action: Some(new_action),
                        priority: None,
                    },
                ) {
                    latency += rep.latency;
                }
            }
        } else {
            // INVARIANT: `current` came from get(), the deferred and
            // shadow branches returned above, so the rule is main-resident.
            let mut rule = self.main_index.get(id).expect("checked contains");
            rule.action = new_action;
            self.main_index.insert(rule); // replace
            if let Ok(rep) = self.dev_apply(
                MAIN,
                &ControlAction::Modify {
                    id,
                    action: Some(new_action),
                    priority: None,
                },
            ) {
                latency += rep.latency;
            }
        }
        self.intent.record(IntentOp::Modify {
            id,
            action: new_action,
        });
        Ok(ActionReport {
            latency,
            detail: ReportDetail::Modify { in_place: true },
        })
    }

    /// Periodic Rule Manager tick: feeds the predictor and migrates when
    /// the trigger fires. Call every `config.tick` of simulated time.
    ///
    /// The tick is also the recovery heartbeat: it replays the journal of
    /// failed physical deletes and drains the degraded-mode queue (which
    /// doubles as the channel probe — the first successful flush ends the
    /// degraded episode automatically).
    pub fn tick(&mut self, now: SimTime) -> Option<MigrationReport> {
        self.clock = self.clock.max(now);
        if self.is_down() {
            self.resync(now);
            if self.is_down() {
                // Reconnect denied: the journal, queue and migration all
                // need a live session — retry on the next tick.
                return None;
            }
        }
        if hermes_telemetry::enabled() {
            hermes_telemetry::gauge(
                "recovery.journal_depth",
                self.recovery.pending_gc.len() as f64,
            );
            hermes_telemetry::gauge(
                "gatekeeper.deferred_depth",
                self.recovery.deferred.len() as f64,
            );
            hermes_telemetry::gauge(
                "resync.intent_journal_depth",
                self.intent.journal_depth() as f64,
            );
        }
        self.replay_journal();
        self.flush_deferred(now);
        let r_p = self.stats.expected_partitions();
        let migrated = if self
            .manager
            .on_tick(now, self.shadow_len(), self.shadow_capacity(), r_p)
        {
            Some(self.migrate(now))
        } else {
            None
        };
        if hermes_telemetry::enabled() {
            hermes_telemetry::series(
                "manager.shadow_occupancy",
                now.as_nanos(),
                self.shadow_len() as f64,
            );
        }
        migrated
    }

    /// Drains the degraded-mode admission queue through the live insert
    /// path, in arrival order. Stops at the first device failure (the
    /// channel is still dead) and re-queues the remainder. Returns the
    /// number flushed and the control-plane time spent.
    fn flush_deferred(&mut self, now: SimTime) -> (usize, SimDuration) {
        let mut flushed = 0;
        let mut latency = SimDuration::ZERO;
        while !self.recovery.deferred.is_empty() {
            let rule = self.recovery.deferred.remove(0);
            match self.insert_live(rule, now) {
                Ok(rep) => {
                    latency += rep.latency;
                    flushed += 1;
                    self.recovery.stats.deferred_flushed += 1;
                }
                Err(HermesError::Device(_)) => {
                    // Channel still dead: put it back at the front and
                    // stop probing.
                    self.recovery.deferred.insert(0, rule);
                    break;
                }
                Err(_) => {
                    // Permanently unplaceable (e.g. the table filled while
                    // the rule waited): drop it, surfaced by the counter.
                    self.recovery.stats.deferred_dropped += 1;
                }
            }
        }
        (flushed, latency)
    }

    /// Runs one migration pass (Fig. 7): every logical shadow rule is
    /// rewritten into its original (un-cut) form in the main table — the
    /// optimization step, since one original replaces up to `r_p` pieces —
    /// then its shadow pieces are deleted. Rules move in ascending priority
    /// order so remaining (higher-priority) shadow rules never need
    /// re-cutting mid-flight.
    ///
    /// The whole drain is planned up front
    /// ([`RuleManager::plan_migration_batch`]) and pushed through two
    /// device transactions — one main-table insert batch (step 3 for every
    /// rule at once, make-before-break held batch-wise), then one shadow
    /// piece-delete batch (step 4). Falls back to the per-rule pass when
    /// the insert batch cannot apply atomically (main table full, or a
    /// stale duplicate needing per-rule self-healing), and aborts the pass
    /// wholesale on a transient channel failure — the rejected batch moved
    /// nothing, so the cut invariant is untouched.
    pub fn migrate(&mut self, now: SimTime) -> MigrationReport {
        let mut report = MigrationReport::default();
        // A dead session mid-crash would fail every op and abort the pass
        // anyway: resync re-opens the path first.
        if self.is_down() || self.shadow_order.is_empty() {
            return report;
        }
        let items: Vec<(Rule, Vec<RuleId>)> = self
            .shadow_order
            .iter()
            .map(|id| {
                let e = &self.shadow[id];
                (e.original, e.pieces.iter().map(|(pid, _)| *pid).collect())
            })
            .collect();
        let plan = self.manager.plan_migration_batch(&items);
        let insert_ops: Vec<TcamOp> = plan.inserts.iter().copied().map(TcamOp::Insert).collect();
        match self.dev_apply_batch(MAIN, &insert_ops) {
            Ok(rep) => {
                report.duration += rep.latency;
                report.entries_written += rep.report.inserts;
            }
            // Main full or a stale duplicate: the batch rejects whole, but
            // the per-rule path can still make partial progress (and
            // self-heal stale duplicates) — retarget the pass there.
            Err(TcamError::Full) | Err(TcamError::Duplicate(_)) => {
                return self.migrate_per_rule(now);
            }
            // Channel dead even after retries: abort the whole pass. The
            // atomic batch applied nothing, so every rule simply stays in
            // the shadow — make-before-break means nothing was broken.
            Err(_) => return self.finish_migration(now, report),
        }
        for id in &plan.order {
            let Some(entry) = self.shadow.remove(id) else {
                continue;
            };
            self.main_index.insert(entry.original);
            self.unregister_blockers(*id, &entry.cut_against);
            report.entries_saved += entry.pieces.len().saturating_sub(1);
            report.rules_migrated += 1;
        }
        self.shadow_order.clear();
        let delete_ops: Vec<TcamOp> = plan
            .piece_deletes
            .iter()
            .copied()
            .map(TcamOp::Delete)
            .collect();
        match self.dev_apply_batch(SHADOW, &delete_ops) {
            Ok(rep) => {
                report.duration += rep.latency;
                report.pieces_deleted += rep.report.deletes;
            }
            // The delete batch rejects whole on its first bad op (e.g. a
            // silently-dropped piece surfacing as NotFound): release each
            // piece individually instead, where NotFound is success and a
            // channel refusal journals the delete for idempotent replay.
            Err(_) => {
                for pid in &plan.piece_deletes {
                    report.duration += self.dev_delete_or_journal(SHADOW, *pid);
                    report.pieces_deleted += 1;
                }
            }
        }
        self.finish_migration(now, report)
    }

    /// The one-op-per-rule migration pass: the fallback when the batched
    /// pass cannot apply atomically, making partial progress rule by rule.
    fn migrate_per_rule(&mut self, now: SimTime) -> MigrationReport {
        let mut report = MigrationReport::default();
        // Ascending priority, FIFO among equals (sort is stable).
        let mut order = self.shadow_order.clone();
        order.sort_by_key(|id| self.shadow[id].original.priority);

        for id in order {
            let entry = match self.shadow.get(&id) {
                Some(e) => e.clone(),
                None => continue,
            };
            // Step 3: write the original into the main table first…
            match self.dev_insert(MAIN, entry.original) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.entries_written += 1;
                }
                // Main full or channel dead: the per-rule transaction
                // aborts with no side effects — the rule simply stays in
                // the shadow (make-before-break means nothing was broken).
                // The whole PASS must abort too, not just this rule: later
                // rules in the order have priority ≥ this one, and moving
                // any of them to the main table would leave this rule's
                // shadow pieces un-cut against a higher-priority main rule,
                // breaking the shadow-first lookup invariant.
                Err(_) => break,
            }
            self.main_index.insert(entry.original);
            // …then (step 4) remove its shadow pieces. A piece the channel
            // refuses to release is journaled; until replay or audit GCs
            // it, the duplicate coverage is harmless (same rule, both
            // tables — make-before-break's own intermediate state).
            for (pid, _) in &entry.pieces {
                report.duration += self.dev_delete_or_journal(SHADOW, *pid);
                report.pieces_deleted += 1;
            }
            report.entries_saved += entry.pieces.len().saturating_sub(1);
            self.unregister_blockers(id, &entry.cut_against);
            self.shadow.remove(&id);
            self.shadow_order.retain(|r| *r != id);
            report.rules_migrated += 1;
        }
        self.finish_migration(now, report)
    }

    /// Shared migration epilogue: pause accounting, the busy window, stats
    /// and telemetry.
    fn finish_migration(&mut self, now: SimTime, mut report: MigrationReport) -> MigrationReport {
        if self.config.mode == MigrationMode::PauseAndSwap {
            report.pipeline_paused = report.duration;
        }
        self.manager.migration_started(now, report.duration);
        self.stats.migrations += 1;
        self.stats.rules_migrated += report.rules_migrated as u64;
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("manager.migrations", 1);
            hermes_telemetry::counter("manager.entries_saved", report.entries_saved as u64);
            hermes_telemetry::observe("manager.migration_batch", report.rules_migrated as u64);
            hermes_telemetry::observe("manager.migration_ns", report.duration.as_nanos());
            hermes_telemetry::span(
                "manager",
                "migrate",
                now.as_nanos(),
                report.duration.as_nanos(),
            );
        }
        report
    }

    /// Reconciliation audit (recovery layer 3): one sweep that makes the
    /// device converge to the controller's logical view.
    ///
    /// The sweep (1) replays the journal of failed physical deletes,
    /// (2) diffs each slice against the bookkeeping — deleting orphans,
    /// repairing action/shape drift in place, re-installing silently
    /// dropped entries — (3) evicts shadow rules whose pieces no longer
    /// fit (silent drops can let the admission path oversubscribe the
    /// shadow), and (4) drains the degraded-mode queue. Every repair op
    /// goes through the retry layer; if the channel is still faulty the
    /// report comes back with `complete = false` and the sweep can simply
    /// be run again — all repairs are idempotent. A report for which
    /// [`AuditReport::clean`] holds certifies that the device exactly
    /// matches the logical view.
    pub fn audit(&mut self, now: SimTime) -> AuditReport {
        self.clock = self.clock.max(now);
        if self.is_down() {
            let resynced = self.resync(now);
            if self.is_down() {
                // Reconnect denied: the sweep cannot read the device.
                // Incomplete by definition — callers loop until clean.
                return AuditReport {
                    complete: false,
                    duration: resynced.map(|r| r.duration).unwrap_or(SimDuration::ZERO),
                    ..AuditReport::default()
                };
            }
        }
        let mut report = AuditReport {
            complete: true,
            ..AuditReport::default()
        };
        let (replayed, lat) = self.replay_journal();
        report.journal_replayed = replayed;
        report.duration += lat;
        if !self.recovery.pending_gc.is_empty() {
            report.complete = false;
        }

        // Expected physical state of the shadow slice: the union of every
        // resident rule's pieces, carrying the owner's priority and action.
        let expected_shadow = self.expected_slice(SHADOW);
        let evict = self.reconcile_slice(SHADOW, &expected_shadow, &mut report);

        let expected_main = self.expected_slice(MAIN);
        // Main reinstalls hit `Full` only when the table is genuinely out
        // of space; there is no eviction target, so the list is empty.
        let _ = self.reconcile_slice(MAIN, &expected_main, &mut report);

        for id in evict {
            if let Some(entry) = self.shadow.get(&id).cloned() {
                report.duration += self.evict_shadow_rule_to_main(&entry);
                report.evicted += 1;
            }
        }

        let (flushed, lat) = self.flush_deferred(now);
        report.deferred_flushed = flushed;
        report.duration += lat;

        self.recovery.stats.audits += 1;
        self.recovery.stats.audit_diffs += report.diffs() as u64;
        self.recovery.stats.reinstalled += report.reinstalled as u64;
        self.recovery.stats.orphans_removed += report.orphans_removed as u64;
        self.recovery.stats.actions_fixed += report.actions_fixed as u64;
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("recovery.audits", 1);
            hermes_telemetry::counter("recovery.audit_diffs", report.diffs() as u64);
            hermes_telemetry::span(
                "recovery",
                "audit",
                now.as_nanos(),
                report.duration.as_nanos(),
            );
        }
        report
    }

    /// Diffs one slice against its expected physical entries and repairs
    /// the device. Returns shadow rules that must be evicted because their
    /// pieces no longer fit.
    fn reconcile_slice(
        &mut self,
        slice: usize,
        expected: &BTreeMap<RuleId, Rule>,
        report: &mut AuditReport,
    ) -> Vec<RuleId> {
        let actual: Vec<Rule> = self.device.slice(slice).table.entries();
        let mut healthy: BTreeSet<RuleId> = BTreeSet::new();
        // Pass 1: orphans and drifted entries.
        for dev_rule in &actual {
            match expected.get(&dev_rule.id) {
                None => {
                    // No logical owner: a stranded piece or stale entry.
                    match self.dev_apply(slice, &ControlAction::Delete(dev_rule.id)) {
                        Ok(rep) => {
                            report.duration += rep.latency;
                            report.orphans_removed += 1;
                        }
                        Err(TcamError::NotFound(_)) => report.orphans_removed += 1,
                        Err(_) => {
                            self.recovery.pending_gc.push((slice, dev_rule.id));
                            report.complete = false;
                        }
                    }
                }
                Some(want) if want.priority != dev_rule.priority || want.key != dev_rule.key => {
                    // Wrong shape (a stale entry under a reused logical
                    // id): remove it; pass 2 installs the intended rule.
                    match self.dev_apply(slice, &ControlAction::Delete(dev_rule.id)) {
                        Ok(rep) => {
                            report.duration += rep.latency;
                            report.actions_fixed += 1;
                        }
                        Err(TcamError::NotFound(_)) => report.actions_fixed += 1,
                        Err(_) => {
                            // Could not clear the stale entry: skip the
                            // reinstall too (it would collide).
                            report.complete = false;
                            healthy.insert(dev_rule.id);
                        }
                    }
                }
                Some(want) if want.action != dev_rule.action => {
                    match self.dev_apply(
                        slice,
                        &ControlAction::Modify {
                            id: dev_rule.id,
                            action: Some(want.action),
                            priority: None,
                        },
                    ) {
                        Ok(rep) => {
                            report.duration += rep.latency;
                            report.actions_fixed += 1;
                        }
                        Err(_) => report.complete = false,
                    }
                    healthy.insert(dev_rule.id);
                }
                Some(_) => {
                    healthy.insert(dev_rule.id);
                }
            }
        }
        // Pass 2: expected entries the device lost (silent drops), in
        // deterministic id order (the map's own order is not).
        let mut missing: Vec<Rule> = expected
            .values()
            .filter(|r| !healthy.contains(&r.id))
            .copied()
            .collect();
        missing.sort_unstable_by_key(|r| r.id.0);
        let mut evict: Vec<RuleId> = Vec::new();
        for want in missing {
            match self.dev_apply(slice, &ControlAction::Insert(want)) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.reinstalled += 1;
                }
                Err(TcamError::Full) if slice == SHADOW => {
                    // Silent drops let the admission path oversubscribe
                    // the shadow: move the owning rule to the main table.
                    let owner = self
                        .shadow
                        .values()
                        .find(|e| e.pieces.iter().any(|(pid, _)| *pid == want.id))
                        .map(|e| e.original.id);
                    if let Some(owner) = owner {
                        if !evict.contains(&owner) {
                            evict.push(owner);
                        }
                    }
                }
                Err(_) => report.complete = false,
            }
        }
        evict
    }

    /// The expected physical entries of one slice, as the audit computes
    /// them: the union of every shadow rule's pieces, or the main index.
    fn expected_slice(&self, slice: usize) -> BTreeMap<RuleId, Rule> {
        if slice == SHADOW {
            let mut expected = BTreeMap::new();
            for e in self.shadow.values() {
                for (pid, key) in &e.pieces {
                    expected.insert(
                        *pid,
                        Rule {
                            id: *pid,
                            key: *key,
                            ..e.original
                        },
                    );
                }
            }
            expected
        } else {
            self.main_index.iter().map(|r| (r.id, r)).collect()
        }
    }

    /// Crash-resync pass (see [`crate::resync`]): reconnects the lost
    /// control session with capped deterministic backoff, drains the
    /// delete journal, rebuilds the post-crash table from the durable
    /// intent store — warm mode diffs against survivors, cold mode wipes
    /// and reinstalls the full snapshot, both through the batched
    /// `apply_batch` path — and finally re-establishes the guarantee:
    /// degraded mode ends and the deferred admission queue drains.
    ///
    /// Returns `None` when no crash window is open. An incomplete report
    /// (reconnect still denied, or a repair op failed) keeps the window
    /// open; the next tick/audit retries — every step is idempotent.
    pub fn resync(&mut self, now: SimTime) -> Option<ResyncReport> {
        self.clock = self.clock.max(now);
        if self.device.is_connected() && !self.crash_pending {
            return None;
        }
        // A crash can land between ops (netsim injection, or the fault
        // plan inside another rule's transaction): book it before the
        // rebuild so the window and degraded mode are always stamped.
        self.note_crash();
        self.resync_stats.resyncs_started += 1;
        hermes_telemetry::counter("resync.started", 1);
        let mode = self.config.resync.mode;
        let mut report = ResyncReport::new(mode);

        // Step 1: reconnect. The device may deny the first attempts while
        // it reboots; backoff is deterministic (no jitter) so a crash plan
        // replays byte-for-byte from its seeds.
        let mut attempt = 0u32;
        while !self.device.is_connected() {
            if attempt >= self.config.resync.max_reconnect_attempts {
                self.resync_stats.reconnect_failures += 1;
                hermes_telemetry::counter("resync.reconnect_failures", 1);
                report.complete = false;
                return Some(report);
            }
            attempt += 1;
            if attempt > 1 {
                report.duration += self.config.resync.reconnect_backoff(attempt - 1);
            }
            report.reconnect_attempts += 1;
            self.resync_stats.reconnect_attempts += 1;
            hermes_telemetry::counter("resync.reconnect_attempts", 1);
            self.device.reconnect();
        }

        // Step 2: the delete journal drains first — against a wiped table
        // every journaled delete resolves as already-gone.
        let (_, lat) = self.replay_journal();
        report.duration += lat;

        // Step 3: diff + batched replay.
        match mode {
            ResyncMode::Warm => self.warm_resync(&mut report),
            ResyncMode::Cold => self.cold_resync(&mut report),
        }
        if !self.recovery.pending_gc.is_empty() {
            report.complete = false;
        }

        // Step 4: re-admission. Only a fully-repaired pass closes the
        // crash window; an incomplete one keeps it open so the next
        // tick/audit reruns the (idempotent) rebuild.
        if report.complete {
            self.crash_pending = false;
            let gap = self
                .crash_detected_at
                .take()
                .map(|t| self.clock.since(t).as_nanos())
                .unwrap_or(0)
                + report.duration.as_nanos();
            self.resync_stats.resyncs_completed += 1;
            self.resync_stats.guarantee_gap_ns += gap;
            match mode {
                ResyncMode::Warm => {
                    self.resync_stats.warm_resyncs += 1;
                    hermes_telemetry::counter("resync.warm", 1);
                }
                ResyncMode::Cold => {
                    self.resync_stats.cold_resyncs += 1;
                    hermes_telemetry::counter("resync.cold", 1);
                }
            }
            hermes_telemetry::counter("resync.completed", 1);
            hermes_telemetry::counter("resync.guarantee_gap_ns", gap);
            // The channel is provably live again: end the degraded
            // episode explicitly (a zero-diff resync never touches the
            // device) and drain the queued admissions through the live
            // insert path — the guarantee is formally re-established.
            self.recovery.on_success(self.clock);
            let (_, lat) = self.flush_deferred(now);
            report.duration += lat;
        }
        self.resync_stats.rules_reinstalled += report.reinstalled as u64;
        self.resync_stats.entries_deleted += report.deleted as u64;
        self.resync_stats.survivors_kept += report.survivors as u64;
        hermes_telemetry::counter("resync.reinstalled", report.reinstalled as u64);
        hermes_telemetry::counter("resync.deleted", report.deleted as u64);
        hermes_telemetry::counter("resync.survivors_kept", report.survivors as u64);
        hermes_telemetry::span("resync", "run", now.as_nanos(), report.duration.as_nanos());
        Some(report)
    }

    /// Warm-mode rebuild: per slice, diff the expected physical entries
    /// against the post-crash table and push the minimal repair set
    /// through one batched device transaction. A rejected batch falls
    /// back to the audit's per-op reconciliation, evictions included.
    fn warm_resync(&mut self, report: &mut ResyncReport) {
        for slice in [SHADOW, MAIN] {
            let expected = self.expected_slice(slice);
            let actual = self.device.slice(slice).table.entries();
            let plan = plan_slice(&expected, &actual);
            report.survivors += plan.survivors;
            if plan.is_noop() {
                continue;
            }
            match self.dev_apply_batch(slice, &plan.to_ops()) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.deleted += plan.deletes.len();
                    report.fixed += plan.fixes.len();
                    report.reinstalled += plan.installs.len();
                }
                Err(_) => {
                    // Batch rejected (e.g. a pre-crash oversubscribed
                    // shadow): the per-op audit path makes partial
                    // progress and can evict rules to the main table.
                    let mut audit = AuditReport {
                        complete: true,
                        ..AuditReport::default()
                    };
                    let evict = self.reconcile_slice(slice, &expected, &mut audit);
                    for id in evict {
                        if let Some(entry) = self.shadow.get(&id).cloned() {
                            audit.duration += self.evict_shadow_rule_to_main(&entry);
                        }
                    }
                    report.duration += audit.duration;
                    report.deleted += audit.orphans_removed;
                    report.fixed += audit.actions_fixed;
                    report.reinstalled += audit.reinstalled;
                    if !audit.complete {
                        report.complete = false;
                    }
                }
            }
        }
    }

    /// Cold-mode rebuild: distrust every survivor — wipe both slices,
    /// then reinstall the intent snapshot into the main table in chunked
    /// batched transactions. The shadow restarts empty; rules the main
    /// slice cannot hold re-enter through the normal admission path via
    /// the deferred queue.
    fn cold_resync(&mut self, report: &mut ResyncReport) {
        for slice in [SHADOW, MAIN] {
            let actual = self.device.slice(slice).table.entries();
            if actual.is_empty() {
                continue;
            }
            let ops: Vec<TcamOp> = actual.iter().map(|r| TcamOp::Delete(r.id)).collect();
            match self.dev_apply_batch(slice, &ops) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.deleted += ops.len();
                }
                Err(_) => {
                    for r in &actual {
                        report.duration += self.dev_delete_or_journal(slice, r.id);
                        report.deleted += 1;
                    }
                }
            }
        }
        // Every logical rule is main-resident by intent after a cold
        // reboot; the old shadow bookkeeping (pieces, cut graph, FIFO
        // order) describes entries that no longer exist.
        let snapshot = self.intent.snapshot();
        self.shadow.clear();
        self.shadow_order.clear();
        self.blockers.clear();
        self.main_index.clear();
        self.prio_counts.clear();
        for r in snapshot.values() {
            self.main_index.insert(*r);
            self.prio_add(r.priority);
        }
        // Reinstall priority-descending (appends under the TCAM priority
        // order — the cheapest shift plan), id-tiebroken for determinism,
        // in bounded chunks so one bad op cannot reject the whole reboot.
        let mut rules: Vec<Rule> = snapshot.into_values().collect();
        rules.sort_unstable_by(|a, b| b.priority.cmp(&a.priority).then(a.id.0.cmp(&b.id.0)));
        for chunk in rules.chunks(1024) {
            let ops: Vec<TcamOp> = chunk.iter().copied().map(TcamOp::Insert).collect();
            match self.dev_apply_batch(MAIN, &ops) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.reinstalled += chunk.len();
                }
                Err(_) => {
                    for r in chunk {
                        match self.dev_insert(MAIN, *r) {
                            Ok(rep) => {
                                report.duration += rep.latency;
                                report.reinstalled += 1;
                            }
                            Err(TcamError::Full) => {
                                // The main slice alone cannot hold rules
                                // that lived in the shadow: requeue them
                                // through the normal admission path.
                                self.main_index.remove(r.id);
                                self.prio_remove(r.priority);
                                self.recovery.defer(*r);
                            }
                            Err(_) => report.complete = false,
                        }
                    }
                }
            }
        }
    }

    /// Rewrites a matched partition piece back to its controller-visible
    /// logical rule (same key semantics, logical id and original match).
    fn resolve(&self, result: LookupResult) -> LookupResult {
        if let LookupResult::Matched { slice, rule } = result {
            if rule.id.0 >= PHYS_BASE {
                for entry in self.shadow.values() {
                    if entry.pieces.iter().any(|(pid, _)| *pid == rule.id) {
                        return LookupResult::Matched {
                            slice,
                            rule: Rule {
                                id: entry.original.id,
                                ..rule
                            },
                        };
                    }
                }
            }
        }
        result
    }

    /// Packet lookup through the shadow→main pipeline. Matched partition
    /// pieces are reported under their logical rule id.
    pub fn lookup(&mut self, packet: u128) -> LookupResult {
        let raw = self.device.lookup(packet);
        self.resolve(raw)
    }

    /// Lookup without statistics (oracle comparisons).
    pub fn peek(&self, packet: u128) -> LookupResult {
        self.resolve(self.device.peek(packet))
    }

    /// Re-targets the admission rate after a `ModQoSConfig` (§7).
    pub fn set_rate_limit(&mut self, rate: Option<f64>) {
        self.gate
            .set_rate(rate.map(|r| (r, self.shadow_capacity() as f64)));
    }

    /// Replaces the QoS predicate (`ModQoSMatch`, §7).
    pub fn set_predicate(&mut self, predicate: crate::config::RulePredicate) {
        self.config.predicate = predicate.clone();
        let rate = self.gate.rate();
        self.gate = GateKeeper::new(
            predicate,
            rate.map(|r| (r, self.shadow_capacity() as f64)),
            self.config.max_partitions,
        );
        self.gate
            .set_low_priority_bypass(self.config.low_priority_bypass);
    }

    /// Resets time-dependent state after a warm-up/preload phase: refills
    /// the admission bucket, clears the migration busy window and pending
    /// arrival counts. Call when installed state should carry over but the
    /// clock conceptually restarts at zero (e.g. simulator preloading).
    pub fn end_warmup(&mut self) {
        let rate = self.gate.rate();
        self.gate
            .set_rate(rate.map(|r| (r, (self.shadow_capacity() as f64 / 2.0).max(1.0))));
        self.manager.busy_until = SimTime::ZERO;
    }

    /// The migration trigger currently configured.
    pub fn trigger(&self) -> MigrationTrigger {
        self.manager.trigger()
    }

    /// Number of migration passes so far.
    pub fn migrations(&self) -> u64 {
        self.manager.migrations
    }
}
