// sys/topology: cpu-list parsing, synthetic shapes, sysfs discovery
// against fixture trees, and thread naming.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sys/topology.hpp"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace {

using nmo::sys::CpuTopology;
using nmo::sys::parse_cpu_list;

// ---------------------------------------------------------------------------
// parse_cpu_list

TEST(CpuList, ParsesSinglesAndRanges) {
  EXPECT_EQ(parse_cpu_list("0-3,5,8-9"),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 5, 8, 9}));
  EXPECT_EQ(parse_cpu_list("7"), (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(parse_cpu_list("0-0"), (std::vector<std::uint32_t>{0}));
}

TEST(CpuList, SortsAndDedupes) {
  EXPECT_EQ(parse_cpu_list("5,1-3,2,5"), (std::vector<std::uint32_t>{1, 2, 3, 5}));
}

TEST(CpuList, TolerantOfGarbage) {
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list("banana").empty());
  // A reversed range is dropped, valid neighbors survive.
  EXPECT_EQ(parse_cpu_list("3-1,4"), (std::vector<std::uint32_t>{4}));
  // Malformed tokens between valid ones are skipped.
  EXPECT_EQ(parse_cpu_list("0,x,2"), (std::vector<std::uint32_t>{0, 2}));
  // Absurd ranges (DoS guard) are dropped.
  EXPECT_TRUE(parse_cpu_list("0-99999999").empty());
}

// ---------------------------------------------------------------------------
// synthetic topologies

TEST(Topology, SyntheticEvenSplit) {
  const auto topo = CpuTopology::synthetic(2, 8);
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.num_cpus(), 8u);
  EXPECT_TRUE(topo.multi_node());
  EXPECT_EQ(topo.source(), "synthetic");
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<std::uint32_t>{4, 5, 6, 7}));
  EXPECT_EQ(topo.node_of(0), 0u);
  EXPECT_EQ(topo.node_of(3), 0u);
  EXPECT_EQ(topo.node_of(4), 1u);
  EXPECT_EQ(topo.node_of(7), 1u);
  // Unknown cpus map to node 0, never out of range.
  EXPECT_EQ(topo.node_of(99), 0u);
}

TEST(Topology, SyntheticUnevenSplitFrontLoads) {
  // 7 cpus over 2 nodes: first node gets the extra cpu.
  const auto topo = CpuTopology::synthetic(2, 7);
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.nodes()[0].cpus.size(), 4u);
  EXPECT_EQ(topo.nodes()[1].cpus.size(), 3u);
}

TEST(Topology, SyntheticClampsDegenerateShapes) {
  // Zero nodes/cpus clamp to a 1x1 shape rather than an empty topology.
  EXPECT_EQ(CpuTopology::synthetic(0, 0).num_nodes(), 1u);
  // More nodes than cpus: one cpu per node.
  const auto topo = CpuTopology::synthetic(8, 2);
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.num_cpus(), 2u);
}

TEST(Topology, DefaultIsEmpty) {
  const CpuTopology topo;
  EXPECT_TRUE(topo.empty());
  EXPECT_FALSE(topo.multi_node());
  EXPECT_EQ(topo.num_nodes(), 0u);
  EXPECT_EQ(topo.source(), "none");
}

// ---------------------------------------------------------------------------
// sysfs discovery fixtures

class FixtureDir {
 public:
  explicit FixtureDir(std::string_view tag) {
    root_ = std::filesystem::temp_directory_path() /
            (std::string("nmo-topo-") + std::string(tag) + "-" +
             std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~FixtureDir() { std::filesystem::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const auto path = root_ / rel;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    out << text;
  }

  [[nodiscard]] std::string path() const { return root_.string(); }

 private:
  std::filesystem::path root_;
};

TEST(Discover, TwoSocketNodeDirs) {
  FixtureDir fix("2s");
  fix.write("devices/system/cpu/online", "0-7\n");
  fix.write("devices/system/node/node0/cpulist", "0-3\n");
  fix.write("devices/system/node/node1/cpulist", "4-7\n");
  const auto topo = CpuTopology::discover(fix.path());
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.source(), "sysfs");
  EXPECT_TRUE(topo.multi_node());
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<std::uint32_t>{4, 5, 6, 7}));
  EXPECT_EQ(topo.node_of(5), 1u);
}

TEST(Discover, SingleSocket) {
  FixtureDir fix("1s");
  fix.write("devices/system/cpu/online", "0-3\n");
  fix.write("devices/system/node/node0/cpulist", "0-3\n");
  const auto topo = CpuTopology::discover(fix.path());
  ASSERT_EQ(topo.num_nodes(), 1u);
  EXPECT_FALSE(topo.multi_node());
  EXPECT_EQ(topo.num_cpus(), 4u);
}

TEST(Discover, PackageIdFallbackWithoutNodeDirs) {
  // No node/ directory at all: group by physical_package_id.
  FixtureDir fix("pkg");
  fix.write("devices/system/cpu/online", "0-3\n");
  fix.write("devices/system/cpu/cpu0/topology/physical_package_id", "0\n");
  fix.write("devices/system/cpu/cpu1/topology/physical_package_id", "0\n");
  fix.write("devices/system/cpu/cpu2/topology/physical_package_id", "1\n");
  fix.write("devices/system/cpu/cpu3/topology/physical_package_id", "1\n");
  const auto topo = CpuTopology::discover(fix.path());
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<std::uint32_t>{2, 3}));
}

TEST(Discover, AsymmetricClusters) {
  // big.LITTLE-style: node ids with a gap and different sizes.
  FixtureDir fix("asym");
  fix.write("devices/system/cpu/online", "0-5\n");
  fix.write("devices/system/node/node0/cpulist", "0-1\n");
  fix.write("devices/system/node/node2/cpulist", "2-5\n");
  const auto topo = CpuTopology::discover(fix.path());
  ASSERT_EQ(topo.num_nodes(), 2u);
  // Dense indices 0/1; the original sysfs id is preserved for display.
  EXPECT_EQ(topo.nodes()[0].id, 0u);
  EXPECT_EQ(topo.nodes()[1].id, 2u);
  EXPECT_EQ(topo.nodes()[0].cpus.size(), 2u);
  EXPECT_EQ(topo.nodes()[1].cpus.size(), 4u);
  EXPECT_EQ(topo.node_of(4), 1u);
}

TEST(Discover, OfflineCpusExcluded) {
  FixtureDir fix("off");
  fix.write("devices/system/cpu/online", "0-2\n");
  fix.write("devices/system/node/node0/cpulist", "0-1\n");
  fix.write("devices/system/node/node1/cpulist", "2-3\n");  // cpu3 offline
  const auto topo = CpuTopology::discover(fix.path());
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(topo.num_cpus(), 3u);
}

TEST(Discover, MissingRootFallsBackToSingleNode) {
  const auto topo = CpuTopology::discover("/nonexistent/nmo-sysfs");
  ASSERT_EQ(topo.num_nodes(), 1u);
  EXPECT_EQ(topo.source(), "fallback");
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_FALSE(topo.multi_node());
}

TEST(Discover, GarbledFilesFallBackNeverThrow) {
  FixtureDir fix("bad");
  fix.write("devices/system/cpu/online", "!!not a cpu list!!\n");
  fix.write("devices/system/node/node0/cpulist", "\x01\x02\x03\n");
  fix.write("devices/system/cpu/cpu0/topology/physical_package_id", "-7\n");
  CpuTopology topo;
  EXPECT_NO_THROW(topo = CpuTopology::discover(fix.path()));
  // Whatever the parse salvaged, the result is a usable single-or-more
  // node topology with at least one cpu.
  ASSERT_GE(topo.num_nodes(), 1u);
  EXPECT_GE(topo.num_cpus(), 1u);
}

// ---------------------------------------------------------------------------
// thread naming

#if defined(__linux__)
TEST(Threads, NameRoundTrips) {
  char before[16] = {};
  pthread_getname_np(pthread_self(), before, sizeof(before));
  nmo::sys::set_current_thread_name("nmo-topotest");
  char after[16] = {};
  pthread_getname_np(pthread_self(), after, sizeof(after));
  EXPECT_STREQ(after, "nmo-topotest");
  nmo::sys::set_current_thread_name(before);
}
#endif

}  // namespace
