// A miniature SQL shell over a loaded SSB deployment: type star-join SQL,
// get rows. Reads queries from argv or stdin (one per line); exits at EOF.
//
//   ./build/examples/sql_shell "SELECT d_year, SUM(lo_revenue) AS revenue
//       FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year
//       ORDER BY d_year"
//
// (one argument: the query above is wrapped here for width only)

#include <cstdio>
#include <iostream>
#include <string>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/clydesdale.h"
#include "sql/parser.h"
#include "ssb/loader.h"

using namespace clydesdale;  // NOLINT(build/namespaces)

namespace {

void RunOne(core::ClydesdaleEngine* engine, const core::StarSchema& star,
            const std::string& sql) {
  auto spec = sql::ParseStarQuery(sql, star);
  if (!spec.ok()) {
    std::printf("error: %s\n", spec.status().ToString().c_str());
    return;
  }
  Stopwatch timer;
  auto result = engine->Execute(*spec);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  const std::vector<std::string> header = core::OutputColumnsOf(*spec);
  std::printf("%s\n", StrJoin(header, " | ").c_str());
  for (size_t i = 0; i < result->rows.size() && i < 40; ++i) {
    std::printf("%s\n", result->rows[i].ToString().c_str());
  }
  if (result->rows.size() > 40) {
    std::printf("... (%zu rows)\n", result->rows.size());
  }
  std::printf("(%zu rows, %.3f s, %s scanned)\n\n", result->rows.size(),
              timer.ElapsedSeconds(),
              HumanBytes(result->stage_reports[0].TotalMapInputBytes())
                  .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  SetLogThreshold(LogLevel::kWarning);
  mr::ClusterOptions copts;
  copts.num_nodes = 4;
  copts.map_slots_per_node = 2;
  copts.dfs_block_size = 256 * 1024;
  mr::MrCluster cluster(copts);

  ssb::SsbLoadOptions load;
  load.scale_factor = 0.01;
  auto dataset = ssb::LoadSsb(&cluster, load);
  CLY_CHECK(dataset.ok());
  core::ClydesdaleEngine engine(&cluster, dataset->star, {});

  std::printf("SSB sf=%.2f loaded. Tables: lineorder, customer, supplier, "
              "part, date.\n",
              load.scale_factor);

  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      RunOne(&engine, dataset->star, argv[i]);
    }
    return 0;
  }
  std::printf("Enter star-join SQL (one statement per line, EOF to quit):\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    RunOne(&engine, dataset->star, line);
  }
  return 0;
}
