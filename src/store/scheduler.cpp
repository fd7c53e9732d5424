#include "store/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/profiler.hpp"

namespace nmo::store {

namespace {

/// Log2 bucket of a queue-wait sample (bucket b holds waits whose
/// bit_width is b, so the bucket upper bound is 2^b - 1).
std::size_t wait_bucket(std::uint64_t wait_ns) noexcept {
  return std::min<std::size_t>(std::bit_width(wait_ns), 63);
}

/// Quantile estimate from a log2 histogram: the upper bound of the bucket
/// containing the q-th sample (within 2x of the true value).
std::uint64_t hist_quantile(const std::array<std::uint64_t, 64>& hist, double q) noexcept {
  std::uint64_t total = 0;
  for (const auto v : hist) total += v;
  if (total == 0) return 0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < hist.size(); ++b) {
    cum += hist[b];
    if (cum >= target) return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
  }
  return (std::uint64_t{1} << 63) - 1;
}

}  // namespace

std::string_view to_string(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kBlock:
      return "block";
    case AdmissionPolicy::kReject:
      return "reject";
    case AdmissionPolicy::kShedOldest:
      return "shed-oldest";
  }
  return "?";
}

std::optional<AdmissionPolicy> parse_admission_policy(std::string_view text) {
  if (text == "block") return AdmissionPolicy::kBlock;
  if (text == "reject") return AdmissionPolicy::kReject;
  if (text == "shed-oldest") return AdmissionPolicy::kShedOldest;
  return std::nullopt;
}

std::uint32_t default_max_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config)) {
  if (config_.max_workers == 0) {
    throw std::invalid_argument(
        "SchedulerConfig::max_workers is 0: a pool with no workers can never "
        "drain its queue (use default_max_workers() for the hardware default)");
  }
  {
    // No worker exists yet, but the tenant table is guarded state: hold
    // the lock so the registration writes satisfy the locking contract.
    const core::MutexLock lock(mutex_);
    stats_.workers = config_.max_workers;
    stats_.node_admitted.assign(std::max<std::uint32_t>(1, config_.topology.num_nodes()), 0);
    for (const auto& spec : config_.tenants) {
      // First spec wins on a duplicate name; resolve_tenant_locked below
      // would otherwise silently shadow the registered weight.
      if (tenant_ids_.count(spec.name) != 0) continue;
      resolve_tenant_locked(spec.name);
      auto& state = tenants_.back();
      state.spec = spec;
      state.spec.weight = std::max<std::uint32_t>(1, spec.weight);
      state.stride = kStrideScale / state.spec.weight;
      state.stats.weight = state.spec.weight;
    }
  }
  workers_.reserve(config_.max_workers);
  for (std::uint32_t i = 0; i < config_.max_workers; ++i) {
    workers_.push_back(
        sys::named_thread("nmo-wrk" + std::to_string(i), [this, i] { worker_loop(i); }));
  }
}

Scheduler::~Scheduler() {
  {
    const core::MutexLock lock(mutex_);
    stopping_ = true;
  }
  // Workers drain whatever is still queued before exiting; blocked
  // submitters wake and fail their submission.
  work_ready_.notify_all();
  space_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

std::uint32_t Scheduler::worker_node(std::uint32_t worker_index) const {
  const auto nodes = config_.topology.num_nodes();
  return nodes > 1 ? worker_index % nodes : 0;
}

TenantId Scheduler::resolve_tenant_locked(std::string_view name) {
  const std::string key(name.empty() ? std::string_view("default") : name);
  const auto it = tenant_ids_.find(key);
  if (it != tenant_ids_.end()) return it->second;
  const auto id = static_cast<TenantId>(tenants_.size());
  tenant_ids_.emplace(key, id);
  TenantState state;
  state.spec.name = key;
  state.stats.name = key;
  state.stats.weight = state.spec.weight;
  state.stats.node_admitted.assign(std::max<std::uint32_t>(1, config_.topology.num_nodes()),
                                   0);
  tenants_.push_back(std::move(state));
  return id;
}

void Scheduler::mark_terminal_locked(TaskId id) {
  // Retention 0 means the caller owns the ledger via forget(); tracking
  // terminal ids anyway would just recreate the per-submission leak in
  // this deque.
  if (config_.status_retention == 0) return;
  terminal_ids_.push_back(id);
  while (terminal_ids_.size() > config_.status_retention) {
    // Oldest-terminal first; an id the caller already forgot() erases to a
    // no-op, so the deque itself stays bounded by the retention count.
    statuses_.erase(terminal_ids_.front());
    terminal_ids_.pop_front();
  }
}

std::optional<std::uint8_t> Scheduler::lowest_class_of_locked(TenantId tenant) const {
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    const auto found = it->second.by_tenant.find(tenant);
    if (found != it->second.by_tenant.end() && !found->second.empty()) return it->first;
  }
  return std::nullopt;
}

void Scheduler::shed_entry_locked(std::uint8_t priority, TenantId tenant) {
  auto cls = queue_.find(priority);
  auto dq = cls->second.by_tenant.find(tenant);
  // The victim is the tenant's *oldest submission* in the class (min seq),
  // not the EDF front: shedding exists to favor fresh work, and the
  // deadline-free case must keep the pre-tenant drop-the-oldest behavior.
  const auto victim = std::min_element(
      dq->second.begin(), dq->second.end(),
      [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  const TaskId victim_id = victim->id;
  dq->second.erase(victim);
  if (dq->second.empty()) cls->second.by_tenant.erase(dq);
  --cls->second.size;
  if (cls->second.by_tenant.empty()) queue_.erase(cls);
  --queued_;
  auto& ten = tenants_[tenant];
  --ten.queued;
  statuses_[victim_id].state = core::SessionState::kShed;
  ++stats_.shed;
  ++ten.stats.shed;
  mark_terminal_locked(victim_id);
}

void Scheduler::shed_from_class_locked(std::uint8_t priority) {
  const auto& cls = queue_.find(priority)->second;
  // Weighted-overage victim selection: the tenant whose queued entries in
  // this class exceed its fair share the most (queued/weight highest; ties
  // go to the lowest tenant id, deterministically).  Under round-robin
  // overload this keeps surviving queue slots proportional to weights.
  TenantId victim = cls.by_tenant.begin()->first;
  std::uint64_t worst = 0;
  for (const auto& [tid, dq] : cls.by_tenant) {
    const auto overage = static_cast<std::uint64_t>(dq.size()) * kStrideScale /
                         tenants_[tid].spec.weight;
    if (overage > worst) {
      worst = overage;
      victim = tid;
    }
  }
  shed_entry_locked(priority, victim);
}

void Scheduler::shed_from_tenant_locked(TenantId tenant) {
  const auto cls = lowest_class_of_locked(tenant);
  if (cls) shed_entry_locked(*cls, tenant);
}

void Scheduler::enqueue_locked(Entry entry) {
  const bool has_home = entry.has_home;
  auto& ten = tenants_[entry.tenant];
  if (ten.queued == 0) {
    // Idle->active: restart at the global pass floor so time spent with an
    // empty queue cannot bank stride credit against active tenants.
    ten.pass = std::max(ten.pass, global_pass_);
  }
  auto& cls = queue_[entry.priority];
  auto& dq = cls.by_tenant[entry.tenant];
  // EDF position within the tenant's deque: earliest deadline first, no
  // deadline sorts last, submission order breaks ties - so a deadline-free
  // workload keeps strict FIFO order (the pre-tenant behavior).
  const auto no_deadline = std::chrono::steady_clock::time_point::max();
  const auto pos = std::upper_bound(
      dq.begin(), dq.end(), entry, [&](const Entry& probe, const Entry& queued) {
        const auto pd = probe.has_deadline ? probe.deadline : no_deadline;
        const auto qd = queued.has_deadline ? queued.deadline : no_deadline;
        if (pd != qd) return pd < qd;
        return probe.seq < queued.seq;
      });
  dq.insert(pos, std::move(entry));
  ++cls.size;
  ++queued_;
  ++ten.queued;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queued_);
  ten.stats.peak_queue_depth = std::max(ten.stats.peak_queue_depth, ten.queued);
  if (has_home) {
    // notify_one could wake only a worker on the wrong node, which would
    // park on the placement window while the matching worker sleeps on;
    // wake everyone and let eligibility sort it out.
    work_ready_.notify_all();
  } else {
    work_ready_.notify_one();
  }
}

std::optional<TaskId> Scheduler::submit_locked(core::MutexLock& lock, Task task,
                                               const SubmitOptions& options,
                                               bool admission_exempt) {
  // Queue wait is measured from here - including any time the submitter
  // spends blocked on a full queue below, which is exactly when the wait
  // numbers matter.
  const auto submitted_at = std::chrono::steady_clock::now();
  const TenantId tenant = resolve_tenant_locked(options.tenant);
  ++stats_.submitted;
  ++tenants_[tenant].stats.submitted;
  if (admission_exempt) {
    ++stats_.requeued;
    ++tenants_[tenant].stats.requeued;
  }

  const auto tenant_cap = tenants_[tenant].spec.queue_cap;
  const auto reject = [&]() -> std::optional<TaskId> {
    ++stats_.rejected;
    ++tenants_[tenant].stats.rejected;
    return std::nullopt;
  };

  if (!admission_exempt) {
    const auto tenant_full = [&] {
      return tenant_cap > 0 && tenants_[tenant].queued >= tenant_cap;
    };
    const auto global_full = [&] {
      return config_.queue_depth > 0 && queued_ >= config_.queue_depth;
    };
    switch (config_.policy) {
      case AdmissionPolicy::kBlock:
        space_ready_.wait(lock, [&]() NMO_REQUIRES(mutex_) {
          return stopping_ || (!tenant_full() && !global_full());
        });
        break;
      case AdmissionPolicy::kReject:
        if (tenant_full() || global_full()) return reject();
        break;
      case AdmissionPolicy::kShedOldest:
        // Shedding favors fresh *and higher-priority* work: a submission
        // that outranks (or ties) the victim class displaces an entry;
        // one that ranks below everything eligible is rejected instead -
        // otherwise a burst of low-priority jobs could drain every queued
        // high-priority session.
        if (tenant_full()) {
          // The tenant's own cap is the limit, so the victim must come
          // from the same tenant (shedding a peer would let one tenant
          // evict another to exceed its cap).
          const auto own_lowest = lowest_class_of_locked(tenant);
          if (own_lowest && *own_lowest > options.priority) return reject();
          shed_from_tenant_locked(tenant);
        }
        if (global_full()) {
          if (queue_.rbegin()->first > options.priority) return reject();
          shed_from_class_locked(queue_.rbegin()->first);
        }
        break;
    }
  }
  if (stopping_) return reject();

  Entry entry;
  entry.id = next_id_++;
  entry.task = std::move(task);
  entry.priority = options.priority;
  entry.tenant = tenant;
  entry.seq = next_seq_++;
  entry.submitted_at = submitted_at;
  if (options.deadline_ns > 0) {
    entry.has_deadline = true;
    entry.deadline = submitted_at + std::chrono::nanoseconds(options.deadline_ns);
  }
  // The home node is a soft hint, and only meaningful against a multi-node
  // topology: single-node (or topology-free) pools treat every submission
  // as node-agnostic, as does a hint that names a node the topology does
  // not have.
  if (options.home_node && config_.topology.multi_node() &&
      *options.home_node < config_.topology.num_nodes()) {
    entry.has_home = true;
    entry.home_node = *options.home_node;
    entry.placement_deadline =
        submitted_at + std::chrono::nanoseconds(config_.placement_wait_ns);
  }

  TaskStatus status;
  status.id = entry.id;
  status.priority = options.priority;
  status.tenant = tenant;
  status.state = core::SessionState::kQueued;
  statuses_.emplace(entry.id, status);

  enqueue_locked(std::move(entry));
  return status.id;
}

std::optional<TaskId> Scheduler::submit(Task task, const SubmitOptions& options) {
  core::MutexLock lock(mutex_);
  return submit_locked(lock, std::move(task), options, /*admission_exempt=*/false);
}

std::optional<TaskId> Scheduler::submit(Task task, std::uint8_t priority) {
  SubmitOptions options;
  options.priority = priority;
  return submit(std::move(task), options);
}

std::optional<TaskId> Scheduler::requeue(Task task, const SubmitOptions& options) {
  core::MutexLock lock(mutex_);
  return submit_locked(lock, std::move(task), options, /*admission_exempt=*/true);
}

void Scheduler::worker_loop(std::uint32_t worker_index) {
  const std::uint32_t my_node = worker_node(worker_index);
  core::MutexLock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this]() NMO_REQUIRES(mutex_) { return stopping_ || queued_ > 0; });
    if (queued_ == 0) {
      if (stopping_) return;
      continue;
    }

    // Placement eligibility: an entry with a home node waits for a worker
    // on that node until its placement deadline; after the deadline (or
    // when the pool is stopping) any worker takes it - the hint is soft
    // and can never starve an entry.  Entries without a home node are
    // always eligible, so a placement-free pool picks exactly as before.
    const auto pick_now = std::chrono::steady_clock::now();
    const auto eligible = [&](const Entry& e) NMO_REQUIRES(mutex_) {
      return !e.has_home || stopping_ || e.home_node == my_node ||
             e.placement_deadline <= pick_now;
    };

    // Highest priority class first (map ordered descending); within it,
    // stride scheduling across the tenants with an eligible entry: the
    // lowest pass (ties to the lowest tenant id) is the most under-served
    // relative to its weight and runs next.  A class whose entries are all
    // home-pinned elsewhere is skipped rather than idling this worker -
    // the priority inversion is bounded by placement_wait_ns.
    auto cls_it = queue_.begin();
    auto pick = cls_it->second.by_tenant.end();
    std::deque<Entry>::iterator pick_entry;
    bool found = false;
    for (; cls_it != queue_.end(); ++cls_it) {
      auto& tenant_map = cls_it->second.by_tenant;
      for (auto it = tenant_map.begin(); it != tenant_map.end(); ++it) {
        // First eligible in deque order keeps EDF/FIFO within the tenant.
        const auto e = std::find_if(it->second.begin(), it->second.end(), eligible);
        if (e == it->second.end()) continue;
        if (!found || tenants_[it->first].pass < tenants_[pick->first].pass) {
          pick = it;
          pick_entry = e;
          found = true;
        }
      }
      if (found) break;
    }
    if (!found) {
      // Everything queued is home-pinned to other nodes and still inside
      // its placement window: sleep until the earliest window expires (or
      // a notify - new work, a matching worker, shutdown) and re-evaluate.
      auto earliest = std::chrono::steady_clock::time_point::max();
      for (const auto& [prio, cls] : queue_) {
        for (const auto& [tid, dq] : cls.by_tenant) {
          for (const auto& e : dq) earliest = std::min(earliest, e.placement_deadline);
        }
      }
      work_ready_.wait_until(lock, earliest);
      continue;
    }
    auto& by_tenant = cls_it->second.by_tenant;
    Entry entry = std::move(*pick_entry);
    pick->second.erase(pick_entry);
    if (pick->second.empty()) by_tenant.erase(pick);
    --cls_it->second.size;
    if (by_tenant.empty()) queue_.erase(cls_it);
    --queued_;
    auto& ten = tenants_[entry.tenant];
    --ten.queued;
    space_ready_.notify_all();

    const auto now = std::chrono::steady_clock::now();
    if (entry.has_deadline && entry.deadline < now) {
      // Deadline passed while the entry was still queued: terminal
      // kExpired without ever occupying this worker (the whole point of
      // admitting by deadline - a session nobody can use anymore must not
      // displace ones that still can).
      statuses_[entry.id].state = core::SessionState::kExpired;
      ++stats_.expired;
      ++ten.stats.expired;
      mark_terminal_locked(entry.id);
      if (queued_ == 0 && running_ == 0) idle_.notify_all();
      continue;
    }

    // Stride charge: this admission consumes kStrideScale/weight of the
    // tenant's virtual time.
    ten.pass += ten.stride;
    global_pass_ = std::max(global_pass_, ten.pass);

    const auto wait_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - entry.submitted_at)
            .count());
    TaskStatus& status = statuses_[entry.id];
    status.state = core::SessionState::kAdmitted;
    status.queue_wait_ns = wait_ns;
    status.worker = worker_index;
    status.node = my_node;
    if (entry.has_home) {
      // Billed at admission: a home-node entry either landed on its node
      // or fell back cross-node after its placement window closed.
      if (entry.home_node == my_node) {
        ++stats_.placement_local;
      } else {
        ++stats_.placement_misses;
      }
    }
    ++stats_.node_admitted[my_node];
    ++ten.stats.node_admitted[my_node];
    ++stats_.admitted;
    stats_.queue_wait_ns_total += wait_ns;
    stats_.queue_wait_ns_max = std::max(stats_.queue_wait_ns_max, wait_ns);
    ++wait_hist_[wait_bucket(wait_ns)];
    ++ten.stats.admitted;
    ten.stats.queue_wait_ns_total += wait_ns;
    ten.stats.queue_wait_ns_max = std::max(ten.stats.queue_wait_ns_max, wait_ns);
    ++ten.wait_hist[wait_bucket(wait_ns)];
    ++running_;
    stats_.peak_occupancy = std::max(stats_.peak_occupancy, running_);
    status.state = core::SessionState::kRunning;
    const TaskStatus snapshot = status;
    const TenantId tenant_index = entry.tenant;

    lock.unlock();
    // Worker hygiene: a fresh task must never observe a profiler binding
    // left on this thread by a previous session (ProfileSession restores
    // its binding via RAII, but a task calling set_active_profiler
    // directly could leak one).
    core::set_active_profiler(nullptr);
    bool failed = false;
    try {
      entry.task(snapshot);
    } catch (...) {
      // Contain the failure to this task: the worker (and the pool) keeps
      // serving; run_sessions reports the error through SessionResult.
      failed = true;
    }
    core::set_active_profiler(nullptr);
    lock.lock();

    --running_;
    TaskStatus& done = statuses_[entry.id];
    done.state = failed ? core::SessionState::kFailed : core::SessionState::kDone;
    if (failed) {
      ++stats_.failed;
      ++tenants_[tenant_index].stats.failed;
    } else {
      ++stats_.completed;
      ++tenants_[tenant_index].stats.completed;
    }
    mark_terminal_locked(entry.id);
    if (queued_ == 0 && running_ == 0) idle_.notify_all();
  }
}

void Scheduler::wait_idle() {
  core::MutexLock lock(mutex_);
  idle_.wait(lock, [this]() NMO_REQUIRES(mutex_) { return queued_ == 0 && running_ == 0; });
}

std::optional<TaskStatus> Scheduler::status(TaskId id) const {
  const core::MutexLock lock(mutex_);
  const auto it = statuses_.find(id);
  if (it == statuses_.end()) return std::nullopt;
  return it->second;
}

bool Scheduler::forget(TaskId id) {
  const core::MutexLock lock(mutex_);
  const auto it = statuses_.find(id);
  if (it == statuses_.end()) return false;
  switch (it->second.state) {
    case core::SessionState::kDone:
    case core::SessionState::kFailed:
    case core::SessionState::kShed:
    case core::SessionState::kRejected:
    case core::SessionState::kExpired:
      statuses_.erase(it);
      return true;
    case core::SessionState::kQueued:
    case core::SessionState::kAdmitted:
    case core::SessionState::kRunning:
      return false;
  }
  return false;
}

std::size_t Scheduler::status_count() const {
  const core::MutexLock lock(mutex_);
  return statuses_.size();
}

SchedulerStats Scheduler::stats() const {
  const core::MutexLock lock(mutex_);
  SchedulerStats snapshot = stats_;
  snapshot.queue_wait_p50_ns = hist_quantile(wait_hist_, 0.50);
  snapshot.queue_wait_p99_ns = hist_quantile(wait_hist_, 0.99);
  snapshot.tenants.reserve(tenants_.size());
  for (const auto& state : tenants_) {
    TenantStats row = state.stats;
    row.name = state.spec.name;
    row.weight = state.spec.weight;
    row.queued = state.queued;
    row.queue_wait_p50_ns = hist_quantile(state.wait_hist, 0.50);
    row.queue_wait_p99_ns = hist_quantile(state.wait_hist, 0.99);
    snapshot.tenants.push_back(std::move(row));
  }
  return snapshot;
}

}  // namespace nmo::store
