#include "common/strings.h"

#include <algorithm>

#include <cmath>
#include <cstdio>

namespace clydesdale {

std::vector<std::string> StrSplit(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

void AddUnique(std::vector<std::string>* list, const std::string& name) {
  if (std::find(list->begin(), list->end(), name) == list->end()) {
    list->push_back(name);
  }
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1000.0 && unit < 5) {
    v /= 1000.0;
    ++unit;
  }
  if (unit == 0) return StrCat(bytes, " B");
  // One decimal place, but drop ".0".
  std::string num = FormatDouble(v, 1);
  if (EndsWith(num, ".0")) num.resize(num.size() - 2);
  return StrCat(num, " ", kUnits[unit]);
}

std::string HumanSeconds(double seconds) {
  if (seconds < 1.0) return StrCat(FormatDouble(seconds * 1000.0, 0), " ms");
  if (seconds < 120.0) return StrCat(FormatDouble(seconds, 1), " s");
  if (seconds < 7200.0) return StrCat(FormatDouble(seconds / 60.0, 1), " min");
  return StrCat(FormatDouble(seconds / 3600.0, 2), " h");
}

std::string Pad(std::string_view s, int width) {
  const size_t w = static_cast<size_t>(width < 0 ? -width : width);
  if (s.size() >= w) return std::string(s);
  std::string pad(w - s.size(), ' ');
  return width < 0 ? pad + std::string(s) : std::string(s) + pad;
}

}  // namespace clydesdale
