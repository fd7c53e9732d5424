// Multi-tenant bounded session scheduler with admission control (ROADMAP:
// "multi-tenant scheduling").
//
// run_sessions used to spawn one std::thread per ProfileSession, which
// collapses under fleet-scale job counts: a thousand queued jobs meant a
// thousand live threads contending for the same cores.  The Scheduler
// treats profiled jobs as *admitted workload* instead: a fixed pool of
// `max_workers` worker threads pulls from a priority-aware admission
// queue with a configurable depth limit.  What happens when the queue is
// full is the admission policy:
//
//   kBlock      submit() waits for space (backpressure on the producer),
//   kReject     submit() fails immediately (load shedding at the door),
//   kShedOldest a queued entry is dropped to make room (favor fresh,
//               high-priority work); a submission ranked below everything
//               queued is rejected instead of displacing its betters.
//
// A shared always-on profiler serves many *tenants*, so admission is
// weighted-fair rather than globally FIFO:
//
//  * every submission belongs to a tenant (default: "default"); tenants
//    carry a weight and an optional per-tenant queue-depth cap;
//  * workers pick the next task by priority class first, then by stride
//    scheduling across the tenants queued in that class (each admission
//    advances the tenant's virtual "pass" by kStrideScale/weight; the
//    lowest pass runs next), so sustained overload divides worker
//    throughput proportionally to weight and no tenant starves;
//  * kShedOldest sheds from the tenant most over its weighted share of the
//    lowest priority class, so overload sheds proportionally instead of
//    punishing whoever happened to submit first.
//
// Within one tenant and priority class, ordering is EDF: a submission may
// carry a relative deadline, earliest deadline runs first, and an entry
// whose deadline passes while it is still queued becomes terminal
// kExpired at pop time - it never occupies a worker.  Tasks without
// deadlines keep strict FIFO order (the pre-tenant behavior: a defaulted
// config with one tenant, no deadlines and no budgets schedules exactly
// like the old single-queue pool).
//
// Every task moves through the lifecycle of core::SessionState:
// queued -> admitted -> running -> done/failed, with rejected/shed/expired
// as the terminal admission outcomes.  SchedulerStats aggregates what the
// pool did - admissions, rejections, queue-wait time and quantiles, peak
// depth/occupancy - plus one TenantStats row per tenant; run_sessions
// persists both to the store root and nmo-trace prints them back.
//
// Worker threads are reused across sessions, so the thread-local
// active-profiler binding of the C annotation API must not leak between
// jobs: the worker resets the binding around every task (belt) and
// ProfileSession::profile restores it via RAII even on exceptions
// (suspenders).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hpp"
#include "core/session.hpp"
#include "sys/topology.hpp"

namespace nmo::store {

/// What submit() does when the admission queue is at its depth limit.
enum class AdmissionPolicy : std::uint8_t {
  kBlock = 0,  ///< Wait for a queue slot (producer backpressure).
  kReject,     ///< Fail the submission immediately.
  /// Drop a queued entry of the lowest priority class - from the tenant
  /// most over its weighted share, that tenant's oldest submission -
  /// unless the incoming task ranks below every queued class, in which
  /// case the incoming task is rejected instead.
  kShedOldest,
};

[[nodiscard]] std::string_view to_string(AdmissionPolicy policy) noexcept;
/// Parses "block" / "reject" / "shed-oldest" (CLI and example flags).
[[nodiscard]] std::optional<AdmissionPolicy> parse_admission_policy(std::string_view text);

/// Worker count used when SchedulerConfig is defaulted: the hardware
/// concurrency, never less than 1.
[[nodiscard]] std::uint32_t default_max_workers() noexcept;

/// One tenant of the shared pool.  Weight sets the tenant's share of
/// worker throughput under sustained overload (stride scheduling); the cap
/// bounds how much of the queue one tenant can occupy.
struct TenantSpec {
  std::string name = "default";
  std::uint32_t weight = 1;   ///< Fair-share weight (clamped to >= 1).
  std::size_t queue_cap = 0;  ///< Per-tenant queued limit; 0 = no cap.
};

/// Index into SchedulerStats::tenants (registration order; tenants named
/// at submit time but absent from SchedulerConfig::tenants are
/// auto-registered with weight 1).
using TenantId = std::uint32_t;

/// Per-tenant slice of the scheduler's accounting.  Queue-wait quantiles
/// are estimated from 64 log2 buckets (bounded memory; the estimate is the
/// bucket's upper bound, i.e. within 2x of the true value).
struct TenantStats {
  std::string name;
  std::uint32_t weight = 1;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;   ///< Deadline passed while queued.
  std::uint64_t requeued = 0;  ///< Admission-exempt resubmissions.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t queue_wait_ns_total = 0;
  std::uint64_t queue_wait_ns_max = 0;
  std::uint64_t queue_wait_p50_ns = 0;
  std::uint64_t queue_wait_p99_ns = 0;
  std::size_t queued = 0;  ///< Waiting right now (snapshot).
  std::size_t peak_queue_depth = 0;
  std::vector<std::uint64_t> node_admitted;  ///< Admissions per worker node.
};

struct SchedulerConfig {
  /// Size of the worker pool.  Explicit 0 is a configuration error
  /// (the Scheduler constructor throws std::invalid_argument).
  std::uint32_t max_workers = default_max_workers();
  /// Admission queue depth limit (queued, not yet admitted).  0 = unbounded.
  std::size_t queue_depth = 0;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// How many *terminal* (done/failed/shed/expired) task statuses the
  /// ledger keeps before the oldest are reaped automatically.  Bounds the
  /// status map of a long-lived pool whose callers never forget() -
  /// without it the pool leaks one TaskStatus per submission forever.
  /// 0 = keep everything (the caller promises to forget()).  Live tasks
  /// are never reaped.
  std::size_t status_retention = 1024;
  /// Tenant table (weighted-fair admission).  Empty = one implicit
  /// "default" tenant with weight 1, which reproduces the pre-tenant
  /// scheduling order exactly.
  std::vector<TenantSpec> tenants;
  /// Placement topology: worker i belongs to node `i % num_nodes`, and a
  /// submission carrying SubmitOptions::home_node prefers workers on that
  /// node.  Empty (default) disables placement entirely - every submission
  /// is node-agnostic and scheduling order is exactly the pre-topology
  /// behavior.
  sys::CpuTopology topology;
  /// How long a home-node submission may wait for a matching worker before
  /// any worker may take it (the soft hint's bound; never starves).  A
  /// cross-node fallback admission is billed as placement_misses.
  std::uint64_t placement_wait_ns = 2'000'000;
};

using TaskId = std::uint64_t;

/// Snapshot of one task's scheduling outcome.
struct TaskStatus {
  TaskId id = 0;
  core::SessionState state = core::SessionState::kQueued;
  std::uint8_t priority = 0;
  TenantId tenant = 0;              ///< Index into SchedulerStats::tenants.
  std::uint64_t queue_wait_ns = 0;  ///< submit -> admitted (0 until admitted).
  std::uint32_t worker = 0;         ///< Pool slot that ran it (valid once admitted).
  std::uint32_t node = 0;  ///< Node of that worker (0 without a topology).
};

/// Aggregate report of everything the pool did.
struct SchedulerStats {
  std::uint32_t workers = 0;
  std::uint64_t submitted = 0;  ///< All submit() calls (admitted + rejected + shed).
  std::uint64_t admitted = 0;   ///< Handed to a worker.
  std::uint64_t rejected = 0;   ///< Refused at the door (kReject / stopped pool).
  std::uint64_t shed = 0;       ///< Dropped from the queue (kShedOldest).
  std::uint64_t expired = 0;    ///< Deadline passed while queued (never ran).
  std::uint64_t requeued = 0;   ///< Admission-exempt resubmissions (requeue()).
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t queue_wait_ns_total = 0;  ///< Sum over admitted tasks.
  std::uint64_t queue_wait_ns_max = 0;
  std::uint64_t queue_wait_p50_ns = 0;  ///< Log2-bucket estimate (<= 2x true).
  std::uint64_t queue_wait_p99_ns = 0;
  std::size_t peak_queue_depth = 0;  ///< Most tasks ever waiting at once.
  std::uint32_t peak_occupancy = 0;  ///< Most workers ever running at once.
  // Topology placement accounting (all zero when SchedulerConfig::topology
  // is empty or no submission carried a home node).
  std::uint64_t placement_local = 0;   ///< Home-node tasks admitted on their node.
  std::uint64_t placement_misses = 0;  ///< Home-node tasks that fell back cross-node.
  std::vector<std::uint64_t> node_admitted;  ///< Admissions per worker node.
  std::vector<TenantStats> tenants;  ///< One row per tenant (registration order).
};

/// Per-submission scheduling knobs (the Scheduler-level half of the
/// store::RunOptions / JobLimits surface).
struct SubmitOptions {
  std::uint8_t priority = 0;  ///< Higher runs first.
  std::string tenant;         ///< Tenant name; empty = "default".
  /// Relative deadline: the task must be *admitted* within this many
  /// nanoseconds of submission or it becomes terminal kExpired at pop time
  /// (EDF ordering within its priority class).  0 = no deadline.
  std::uint64_t deadline_ns = 0;
  /// Preferred topology node (soft hint).  With a multi-node
  /// SchedulerConfig::topology, workers on this node pick the task first;
  /// after SchedulerConfig::placement_wait_ns any worker takes it (billed
  /// as a placement miss).  Ignored without a topology.
  std::optional<std::uint32_t> home_node;
};

class Scheduler {
 public:
  /// The work unit; receives the task's own admission snapshot (id, queue
  /// wait, worker slot).  A task that throws is recorded as kFailed - the
  /// exception is contained and the worker keeps serving.
  using Task = std::function<void(const TaskStatus&)>;

  /// Starts `config.max_workers` workers.  Throws std::invalid_argument on
  /// an explicit zero-worker configuration.
  explicit Scheduler(SchedulerConfig config = {});
  /// Drains the queue (every admitted task completes) and joins the pool.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits a task with full scheduling options.  Returns the task id, or
  /// std::nullopt when admission control turned the task away (kReject
  /// with a full queue/tenant cap, or a stopping pool).
  std::optional<TaskId> submit(Task task, const SubmitOptions& options);

  /// Legacy shorthand: default tenant, no deadline.
  std::optional<TaskId> submit(Task task, std::uint8_t priority = 0);

  /// Admission-exempt resubmission: enqueues even when the queue or the
  /// tenant cap is full (never blocks, sheds or rejects on capacity).
  /// This is how a budget-overrun session re-enters the queue from inside
  /// a worker - a capacity-checked submit there could deadlock a kBlock
  /// pool against itself.  Counted in SchedulerStats::requeued.
  std::optional<TaskId> requeue(Task task, const SubmitOptions& options);

  /// Blocks until the queue is empty and no worker is running a task.
  void wait_idle();

  /// Status snapshot of a previously submitted task (including shed ones).
  /// Terminal statuses are retained until forget() or until
  /// SchedulerConfig::status_retention reaps them (oldest-terminal first),
  /// so a long-lived pool stays bounded even when callers never query.
  [[nodiscard]] std::optional<TaskStatus> status(TaskId id) const;

  /// Drops a *terminal* (done/failed/shed/expired) task's status entry,
  /// bounding the ledger for long-lived pools.  A task still queued or
  /// running is kept (returns false).
  bool forget(TaskId id);
  /// Entries currently in the status ledger (terminal + live); the number
  /// status_retention bounds.  For monitoring and tests.
  [[nodiscard]] std::size_t status_count() const;
  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

 private:
  /// Stride-scheduling pass increment for weight 1; higher weights advance
  /// their pass in smaller steps and therefore run proportionally more.
  static constexpr std::uint64_t kStrideScale = std::uint64_t{1} << 20;

  struct Entry {
    TaskId id = 0;
    Task task;
    std::uint8_t priority = 0;
    TenantId tenant = 0;
    std::uint64_t seq = 0;  ///< Global submission order (FIFO tiebreak).
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    std::uint32_t home_node = 0;
    bool has_home = false;
    /// When has_home: the instant any worker (not just a home-node one)
    /// may take the entry.
    std::chrono::steady_clock::time_point placement_deadline{};
  };

  /// One priority class: per-tenant EDF deques plus the class total.
  struct ClassQueue {
    std::map<TenantId, std::deque<Entry>> by_tenant;
    std::size_t size = 0;
  };

  struct TenantState {
    TenantSpec spec;
    std::uint64_t stride = kStrideScale;
    std::uint64_t pass = 0;  ///< Stride-scheduling virtual time consumed.
    std::size_t queued = 0;
    std::array<std::uint64_t, 64> wait_hist{};  ///< Log2 buckets, admitted waits.
    TenantStats stats;
  };

  void worker_loop(std::uint32_t worker_index);
  /// Topology node of pool slot `worker_index` (round-robin over nodes;
  /// always 0 without a multi-node topology).
  [[nodiscard]] std::uint32_t worker_node(std::uint32_t worker_index) const;
  std::optional<TaskId> submit_locked(core::MutexLock& lock, Task task,
                                      const SubmitOptions& options, bool admission_exempt)
      NMO_REQUIRES(mutex_);
  /// Registers (or finds) the tenant for `name`; "" maps to "default".
  TenantId resolve_tenant_locked(std::string_view name) NMO_REQUIRES(mutex_);
  /// EDF-position insert plus depth/peak bookkeeping.
  void enqueue_locked(Entry entry) NMO_REQUIRES(mutex_);
  /// Sheds one entry of the given class: victim tenant = most over its
  /// weighted share of that class, victim entry = that tenant's oldest
  /// submission.
  void shed_from_class_locked(std::uint8_t priority) NMO_REQUIRES(mutex_);
  /// Sheds the given tenant's oldest entry from its lowest queued class;
  /// used when a per-tenant cap (not the global depth) is the limit.
  void shed_from_tenant_locked(TenantId tenant) NMO_REQUIRES(mutex_);
  /// Removes one entry by (priority, tenant, min seq) and records it shed.
  void shed_entry_locked(std::uint8_t priority, TenantId tenant) NMO_REQUIRES(mutex_);
  /// The lowest priority class in which `tenant` has queued entries.
  [[nodiscard]] std::optional<std::uint8_t> lowest_class_of_locked(TenantId tenant) const
      NMO_REQUIRES(mutex_);
  /// Records `id` as terminal and reaps the oldest terminal statuses past
  /// the retention bound.
  void mark_terminal_locked(TaskId id) NMO_REQUIRES(mutex_);

  SchedulerConfig config_;
  mutable core::Mutex mutex_{"Scheduler"};
  core::CondVar work_ready_;   ///< Queue non-empty or stopping.
  core::CondVar space_ready_;  ///< Queue/tenant below a depth limit.
  core::CondVar idle_;         ///< Queue empty and pool quiescent.
  /// Priority classes, highest first.
  std::map<std::uint8_t, ClassQueue, std::greater<>> queue_ NMO_GUARDED_BY(mutex_);
  std::vector<TenantState> tenants_ NMO_GUARDED_BY(mutex_);
  std::unordered_map<std::string, TenantId> tenant_ids_ NMO_GUARDED_BY(mutex_);
  std::unordered_map<TaskId, TaskStatus> statuses_ NMO_GUARDED_BY(mutex_);
  /// Terminal task ids in the order they became terminal - the reap queue
  /// that keeps statuses_ bounded by status_retention.  May hold ids the
  /// caller already forgot(); reaping those is a harmless no-op.
  std::deque<TaskId> terminal_ids_ NMO_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  TaskId next_id_ NMO_GUARDED_BY(mutex_) = 1;
  std::uint64_t next_seq_ NMO_GUARDED_BY(mutex_) = 0;
  /// Highest pass any admission has reached; a tenant going idle->active
  /// restarts at this floor so queue absence cannot bank credit.
  std::uint64_t global_pass_ NMO_GUARDED_BY(mutex_) = 0;
  std::size_t queued_ NMO_GUARDED_BY(mutex_) = 0;
  std::uint32_t running_ NMO_GUARDED_BY(mutex_) = 0;
  bool stopping_ NMO_GUARDED_BY(mutex_) = false;
  SchedulerStats stats_ NMO_GUARDED_BY(mutex_);
  /// Pool-wide log2 wait buckets.
  std::array<std::uint64_t, 64> wait_hist_ NMO_GUARDED_BY(mutex_){};
};

}  // namespace nmo::store
