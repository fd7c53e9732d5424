// CPU/NUMA topology discovery and thread-naming primitives.
//
// CpuTopology maps cores to NUMA nodes (sockets) the way gator's
// CpuUtils_Topology walks sysfs to map cores to PMU/SPE instances.  The
// store scheduler's home-node hint (store/scheduler.hpp) and perfbench's
// host header read it:
//
//  * discover(sysfs_root) parses the host's sysfs - the online cpu list
//    and /sys/devices/system/node/node<K>/cpulist, falling back to the
//    per-cpu topology/physical_package_id files.  It never throws:
//    missing or garbled files degrade to a single-node topology covering
//    every cpu (the safe answer on containers that mask sysfs).  The root
//    is a parameter so tests exercise discovery against fixture trees.
//  * synthetic(nodes, total_cpus) builds a deterministic topology with
//    cpus split contiguously and as evenly as possible across nodes - the
//    injection path that keeps the scheduler tests independent of the host
//    machine.
//
// Node identifiers used by callers are *dense indices* (0..num_nodes()-1
// in ascending sysfs-id order); TopologyNode::id keeps the original sysfs
// id for display.  The naming helper is Linux-gated and strictly advisory:
// a failed pthread_setname_np returns false and the thread runs unnamed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace nmo::sys {

/// One NUMA node (socket) of the topology.
struct TopologyNode {
  std::uint32_t id = 0;                 ///< Original sysfs node id (display only).
  std::vector<std::uint32_t> cpus;      ///< Sorted ascending.
};

class CpuTopology {
 public:
  /// Empty topology: no nodes.  node_of() answers 0, multi_node() false -
  /// the "home-node hint off" value SchedulerConfig defaults to.
  CpuTopology() = default;

  /// Discovers the host topology from `sysfs_root` (default "/sys").
  /// Never throws; any missing/garbled input falls back to a single node
  /// covering every cpu the kernel reports (source() == "fallback").
  [[nodiscard]] static CpuTopology discover(const std::string& sysfs_root = "/sys") noexcept;

  /// Deterministic synthetic topology: `total_cpus` cpus 0..total_cpus-1
  /// split contiguously across `nodes` nodes, as evenly as possible (the
  /// first total_cpus % nodes nodes hold one extra cpu).  Zero arguments
  /// are clamped to 1.
  [[nodiscard]] static CpuTopology synthetic(std::uint32_t nodes, std::uint32_t total_cpus);

  /// Single node holding cpus 0..cpus-1 (the discovery fallback shape).
  [[nodiscard]] static CpuTopology single_node(std::uint32_t cpus);

  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] bool multi_node() const { return nodes_.size() > 1; }
  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] std::uint32_t num_cpus() const;
  [[nodiscard]] const std::vector<TopologyNode>& nodes() const { return nodes_; }

  /// Dense node index of `cpu`; 0 for a cpu the topology does not cover
  /// (callers always get an answer, never an error).
  [[nodiscard]] std::uint32_t node_of(std::uint32_t cpu) const;

  /// Where the topology came from: "none" (empty), "sysfs", "fallback"
  /// (discovery degraded) or "synthetic".
  [[nodiscard]] std::string_view source() const { return source_; }

 private:
  std::vector<TopologyNode> nodes_;
  /// Flat cpu -> dense node index map (index = cpu id); kNoNode for gaps.
  std::vector<std::uint32_t> node_of_;
  std::string source_ = "none";

  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};
  void rebuild_maps();
};

/// Parses a kernel cpu-list string ("0-3,5,8-9") into a sorted, deduplicated
/// cpu vector.  Tolerant: malformed tokens and reversed ranges are skipped,
/// a fully garbled string yields an empty vector (never a throw).
[[nodiscard]] std::vector<std::uint32_t> parse_cpu_list(std::string_view text);

/// Names the calling thread (pthread_setname_np; truncated to the kernel's
/// 15-character limit).  Returns false off Linux or on failure.
bool set_current_thread_name(const char* name);

/// The one sanctioned way to spawn a long-lived thread: every worker gets
/// a kernel-visible name ("nmo-dec0", "nmo-wrk0", ...) before its body
/// runs, so ps/top/gdb and trace tooling can tell the pipeline stages
/// apart.  nmo-lint's naked-thread rule rejects raw std::thread
/// construction anywhere else in src/ and tools/.
template <typename Fn, typename... Args>
[[nodiscard]] std::thread named_thread(std::string name, Fn&& fn, Args&&... args) {
  return std::thread(  // nmo-lint: allow(naked-thread)
      [name = std::move(name)](auto&& body, auto&&... body_args) {
        set_current_thread_name(name.c_str());
        std::forward<decltype(body)>(body)(std::forward<decltype(body_args)>(body_args)...);
      },
      std::forward<Fn>(fn), std::forward<Args>(args)...);
}

}  // namespace nmo::sys
