#include "core/clydesdale.h"

#include "core/staged_join.h"

namespace clydesdale {
namespace core {

int64_t QueryResult::Counter(const std::string& name) const {
  int64_t total = 0;
  for (const mr::JobReport& report : stage_reports) {
    total += report.counters.Get(name);
  }
  return total;
}

ClydesdaleEngine::ClydesdaleEngine(mr::MrCluster* cluster, StarSchema star,
                                   ClydesdaleOptions options)
    : cluster_(cluster),
      star_(std::make_shared<const StarSchema>(std::move(star))),
      options_(options) {}

Result<QueryResult> ClydesdaleEngine::Execute(const StarQuerySpec& spec) {
  // With an unlimited budget (0) the plan is one stage: the single job of
  // paper §4.2. Otherwise dimensions whose hash tables do not fit together
  // are joined in stages (paper §5.1, "Discussion").
  return ExecuteStagedStarJoin(cluster_, star_, spec, options_);
}

}  // namespace core
}  // namespace clydesdale
