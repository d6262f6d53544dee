#ifndef CLYDESDALE_COMMON_STRINGS_H_
#define CLYDESDALE_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace clydesdale {

/// Splits `s` on `delim`; keeps empty fields ("a||b" -> {"a","","b"}).
std::vector<std::string> StrSplit(std::string_view s, char delim);

/// Joins `parts` with `delim`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view delim);

/// Variadic stream-based concatenation: StrCat("x=", 3, "b").
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Parses the whole of `s` as one number of type T (integral or floating
/// point). False on empty input, trailing characters, or a value outside
/// T's range.
template <typename T>
bool ParseWholeNumber(std::string_view s, T* value) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

/// Appends `name` to `list` unless it is already there (ordered set insert).
void AddUnique(std::vector<std::string>* list, const std::string& name);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// "1.5 GB", "334 MB", "12 KB", "87 B" — decimal units, 1 decimal place max.
std::string HumanBytes(uint64_t bytes);

/// "215.3 s" / "12.5 min" / "980 ms" for durations given in seconds.
std::string HumanSeconds(double seconds);

/// Left-pads (negative width) or right-pads `s` with spaces to |width| chars.
std::string Pad(std::string_view s, int width);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

}  // namespace clydesdale

#endif  // CLYDESDALE_COMMON_STRINGS_H_
