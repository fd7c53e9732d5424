#include "sys/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <cstring>
#endif

namespace nmo::sys {
namespace {

/// First line of a small sysfs file; nullopt when unreadable.
std::optional<std::string> read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  return line;
}

/// Parses the decimal physical_package_id file sysfs keeps per cpu;
/// nullopt on a missing file or a non-numeric value (some kernels report
/// -1 for unknown packages).
std::optional<std::uint32_t> read_id_file(const std::string& path) {
  const auto line = read_first_line(path);
  if (!line) return std::nullopt;
  const char* s = line->c_str();
  char* end = nullptr;
  const long value = std::strtol(s, &end, 10);
  if (end == s || value < 0) return std::nullopt;
  return static_cast<std::uint32_t>(value);
}

std::uint32_t hardware_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

std::vector<std::uint32_t> parse_cpu_list(std::string_view text) {
  std::vector<std::uint32_t> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    std::string_view token =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos : comma - pos);
    pos = comma == std::string_view::npos ? text.size() : comma + 1;

    // Trim whitespace (cpulist files end in '\n').
    while (!token.empty() && std::isspace(static_cast<unsigned char>(token.front()))) {
      token.remove_prefix(1);
    }
    while (!token.empty() && std::isspace(static_cast<unsigned char>(token.back()))) {
      token.remove_suffix(1);
    }
    if (token.empty()) continue;

    unsigned lo = 0;
    unsigned hi = 0;
    int consumed = 0;
    if (std::sscanf(std::string(token).c_str(), "%u-%u%n", &lo, &hi, &consumed) == 2 &&
        static_cast<std::size_t>(consumed) == token.size()) {
      if (hi < lo || hi - lo > 4096) continue;  // reversed or absurd range: skip
      for (unsigned c = lo; c <= hi; ++c) cpus.push_back(c);
    } else if (std::sscanf(std::string(token).c_str(), "%u%n", &lo, &consumed) == 1 &&
               static_cast<std::size_t>(consumed) == token.size()) {
      cpus.push_back(lo);
    }
    // Anything else is a malformed token: tolerated, skipped.
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

void CpuTopology::rebuild_maps() {
  std::uint32_t max_cpu = 0;
  for (const auto& node : nodes_) {
    for (const auto cpu : node.cpus) max_cpu = std::max(max_cpu, cpu);
  }
  node_of_.assign(max_cpu + 1, kNoNode);
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    for (const auto cpu : nodes_[n].cpus) node_of_[cpu] = n;
  }
}

std::uint32_t CpuTopology::num_cpus() const {
  std::uint32_t total = 0;
  for (const auto& node : nodes_) total += static_cast<std::uint32_t>(node.cpus.size());
  return total;
}

std::uint32_t CpuTopology::node_of(std::uint32_t cpu) const {
  if (cpu >= node_of_.size() || node_of_[cpu] == kNoNode) return 0;
  return node_of_[cpu];
}

CpuTopology CpuTopology::single_node(std::uint32_t cpus) {
  CpuTopology topo;
  TopologyNode node;
  node.id = 0;
  node.cpus.reserve(std::max<std::uint32_t>(1, cpus));
  for (std::uint32_t c = 0; c < std::max<std::uint32_t>(1, cpus); ++c) node.cpus.push_back(c);
  topo.nodes_.push_back(std::move(node));
  topo.source_ = "fallback";
  topo.rebuild_maps();
  return topo;
}

CpuTopology CpuTopology::synthetic(std::uint32_t nodes, std::uint32_t total_cpus) {
  nodes = std::max<std::uint32_t>(1, nodes);
  total_cpus = std::max<std::uint32_t>(1, total_cpus);
  nodes = std::min(nodes, total_cpus);  // never an empty node
  CpuTopology topo;
  const std::uint32_t base = total_cpus / nodes;
  const std::uint32_t extra = total_cpus % nodes;
  std::uint32_t next = 0;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    TopologyNode node;
    node.id = n;
    const std::uint32_t count = base + (n < extra ? 1 : 0);
    for (std::uint32_t c = 0; c < count; ++c) node.cpus.push_back(next++);
    topo.nodes_.push_back(std::move(node));
  }
  topo.source_ = "synthetic";
  topo.rebuild_maps();
  return topo;
}

CpuTopology CpuTopology::discover(const std::string& sysfs_root) noexcept {
  try {
    const std::string cpu_root = sysfs_root + "/devices/system/cpu";
    // The online list is authoritative for which cpus the topology holds;
    // "present" is the fallback on kernels that hide "online".
    auto list = read_first_line(cpu_root + "/online");
    if (!list) list = read_first_line(cpu_root + "/present");
    std::vector<std::uint32_t> cpus = list ? parse_cpu_list(*list) : std::vector<std::uint32_t>{};
    if (cpus.empty()) return single_node(hardware_cpus());

    // Preferred source: the kernel's NUMA node directories.  Node cpu
    // lists are intersected with the online set (offline cpus stay out of
    // every node).
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_node;
    const std::string node_root = sysfs_root + "/devices/system/node";
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(node_root, ec)) {
      unsigned id = 0;
      const std::string stem = entry.path().filename().string();
      if (std::sscanf(stem.c_str(), "node%u", &id) != 1) continue;
      const auto cpulist = read_first_line(entry.path().string() + "/cpulist");
      if (!cpulist) continue;
      std::vector<std::uint32_t> node_cpus;
      for (const auto cpu : parse_cpu_list(*cpulist)) {
        if (std::binary_search(cpus.begin(), cpus.end(), cpu)) node_cpus.push_back(cpu);
      }
      if (!node_cpus.empty()) by_node[id] = std::move(node_cpus);
    }

    // No node directories (non-NUMA kernels, masked sysfs): group by the
    // per-cpu physical_package_id, treating each package as a node.  A cpu
    // with no readable package file lands in package 0.
    if (by_node.empty()) {
      for (const auto cpu : cpus) {
        const auto package = read_id_file(cpu_root + "/cpu" + std::to_string(cpu) +
                                          "/topology/physical_package_id");
        by_node[package.value_or(0)].push_back(cpu);
      }
    }

    CpuTopology topo;
    for (auto& [id, node_cpus] : by_node) {
      TopologyNode node;
      node.id = id;
      std::sort(node_cpus.begin(), node_cpus.end());
      node.cpus = std::move(node_cpus);
      topo.nodes_.push_back(std::move(node));
    }
    if (topo.nodes_.empty()) return single_node(hardware_cpus());
    topo.source_ = "sysfs";
    // A cpu the node lists missed still needs a deterministic answer:
    // node_of() defaults it to 0.
    topo.rebuild_maps();
    return topo;
  } catch (...) {
    // Discovery must never take the pipeline down; fall back to one node.
    return single_node(hardware_cpus());
  }
}

bool set_current_thread_name(const char* name) {
#if defined(__linux__)
  if (name == nullptr) return false;
  char truncated[16];  // kernel limit: 15 chars + NUL
  std::strncpy(truncated, name, sizeof(truncated) - 1);
  truncated[sizeof(truncated) - 1] = '\0';
  return pthread_setname_np(pthread_self(), truncated) == 0;
#else
  (void)name;
  return false;
#endif
}

}  // namespace nmo::sys
