#include "mapreduce/job_conf.h"

#include "common/strings.h"

namespace clydesdale {
namespace mr {

void JobConf::SetInt(const std::string& key, int64_t value) {
  conf_[key] = StrCat(value);
}

void JobConf::SetBool(const std::string& key, bool value) {
  conf_[key] = value ? "true" : "false";
}

std::string JobConf::Get(const std::string& key, const std::string& def) const {
  auto it = conf_.find(key);
  return it == conf_.end() ? def : it->second;
}

int64_t JobConf::GetInt(const std::string& key, int64_t def) const {
  auto it = conf_.find(key);
  if (it == conf_.end() || it->second.empty()) return def;
  return std::stoll(it->second);
}

bool JobConf::GetBool(const std::string& key, bool def) const {
  auto it = conf_.find(key);
  if (it == conf_.end()) return def;
  return it->second == "true" || it->second == "1";
}

std::vector<std::string> JobConf::GetList(const std::string& key) const {
  const std::string value = Get(key);
  if (value.empty()) return {};
  return StrSplit(value, ',');
}

void JobConf::SetList(const std::string& key,
                      const std::vector<std::string>& items) {
  conf_[key] = StrJoin(items, ",");
}

}  // namespace mr
}  // namespace clydesdale
