#include "sim/cluster_spec.h"

namespace clydesdale {
namespace sim {

ClusterSpec ClusterSpec::ClusterA() {
  ClusterSpec spec;
  // Move-assigned: GCC 12 at -O3 reports a false -Wrestrict on assigning a
  // string literal here (operator=(const char*) inlined into _M_replace).
  spec.name = std::string("A");
  spec.worker_nodes = 8;
  spec.cores_per_node = 8;
  spec.map_slots = 6;
  spec.reduce_slots = 1;
  spec.mem_bytes = 16ULL * 1000 * 1000 * 1000;
  spec.disks_per_node = 8;
  spec.disk_bw = 70e6;
  spec.hdfs_scan_bw_per_node = 67e6;  // §6.3: 10.8 GB in 164 s
  spec.local_disk_bw = 70e6;
  return spec;
}

ClusterSpec ClusterSpec::ClusterB() {
  ClusterSpec spec;
  spec.name = std::string("B");
  spec.worker_nodes = 40;
  spec.cores_per_node = 8;
  spec.map_slots = 6;
  spec.reduce_slots = 1;
  spec.mem_bytes = 32ULL * 1000 * 1000 * 1000;
  spec.disks_per_node = 5;
  spec.disk_bw = 70e6;
  // §6.4: Q2.1 probe read ~2.2 GB/node in 29 s -> ~75 MB/s; Xeons are a bit
  // faster than A's Opterons, and newer disks stream faster.
  spec.hdfs_scan_bw_per_node = 75e6;
  spec.local_disk_bw = 90e6;
  // Faster CPUs: §6.4 reports 16 s hash build where A needed 27 s.
  spec.hash_build_ns_per_row = 1500.0;
  spec.hive_map_ns_per_row = 14000.0;
  spec.hive_reduce_ns_per_row = 6500.0;
  spec.cly_row_ns_block = 900.0;
  spec.cly_row_ns_row_at_a_time = 1500.0;
  return spec;
}

}  // namespace sim
}  // namespace clydesdale
