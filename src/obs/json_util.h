#ifndef CLYDESDALE_OBS_JSON_UTIL_H_
#define CLYDESDALE_OBS_JSON_UTIL_H_

#include <string>
#include <string_view>

namespace clydesdale {
namespace obs {

/// Appends the JSON string-literal escape of `s` to `out`, without the
/// surrounding quotes: quotes and backslashes become \" and \\, and control
/// characters become \n / \t / \uXXXX. Shared by every hand-rolled JSON
/// writer in the repo (Chrome traces, EXPLAIN ANALYZE JSON) so a span or
/// operator name with a quote can't corrupt either of them.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// `s` as a quoted JSON string literal.
std::string JsonQuote(std::string_view s);

/// `v` formatted so the exact double round-trips through strtod ("%.17g").
std::string JsonDouble(double v);

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_JSON_UTIL_H_
