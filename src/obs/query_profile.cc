#include "obs/query_profile.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/json_util.h"

namespace clydesdale {
namespace obs {

namespace {

/// Tag order matches storage/column_codec.h (plain..dict_rle).
constexpr const char* kEncodingNames[6] = {"plain",  "rle",  "bitpack",
                                           "for",    "dict", "dict_rle"};

std::string Millis(uint64_t ns) {
  return StrCat(FormatDouble(static_cast<double>(ns) / 1e6, 3), "ms");
}

/// The sibling named `name`, inserting an empty one before the first
/// sibling whose name sorts after it. A tree merged from empty therefore
/// keeps its siblings in name order, whatever order the attempts finish in.
OperatorProfile* FindOrInsertSibling(std::vector<OperatorProfile>* siblings,
                                     std::string_view name) {
  for (OperatorProfile& node : *siblings) {
    if (node.name == name) return &node;
  }
  auto it = std::find_if(
      siblings->begin(), siblings->end(),
      [name](const OperatorProfile& node) { return node.name > name; });
  it = siblings->emplace(it);
  it->name = std::string(name);
  return &*it;
}

}  // namespace

OperatorProfile* OperatorProfile::Child(std::string_view child_name) {
  return FindOrInsertSibling(&children, child_name);
}

void OperatorProfile::MergeFrom(const OperatorProfile& other) {
  if (kind.empty()) kind = other.kind;
  rows_in += other.rows_in;
  rows_in_counted = rows_in_counted && other.rows_in_counted;
  rows_out += other.rows_out;
  batches += other.batches;
  wall_ns += other.wall_ns;
  wall_max_ns = std::max(wall_max_ns, other.wall_max_ns);
  cpu_ns += other.cpu_ns;
  bytes_decoded += other.bytes_decoded;
  bytes_raw += other.bytes_raw;
  blocks_skipped += other.blocks_skipped;
  rows_pruned += other.rows_pruned;
  for (int i = 0; i < 6; ++i) blocks_by_encoding[i] += other.blocks_by_encoding[i];
  mem_current_bytes = std::max(mem_current_bytes, other.mem_current_bytes);
  mem_peak_bytes = std::max(mem_peak_bytes, other.mem_peak_bytes);
  tasks += other.tasks;
  for (const OperatorProfile& theirs : other.children) {
    Child(theirs.name)->MergeFrom(theirs);
  }
}

OperatorProfile* QueryProfile::Root(std::string_view root_name) {
  return FindOrInsertSibling(&roots, root_name);
}

void QueryProfile::MergeAttempt(const OperatorProfile& attempt_root,
                                int64_t start_us, int64_t end_us) {
  // Empty roots (not a time sentinel) marks the first attempt, so an
  // attempt legitimately starting at t=0 still anchors the envelope.
  const bool first_attempt = roots.empty();
  Root(attempt_root.name)->MergeFrom(attempt_root);
  if (first_attempt || start_us < first_start_us) {
    first_start_us = start_us;
  }
  last_end_us = std::max(last_end_us, end_us);
}

void QueryProfile::MergeFrom(const QueryProfile& other) {
  if (other.empty()) return;
  const bool first_merge = roots.empty();
  for (const OperatorProfile& root : other.roots) {
    Root(root.name)->MergeFrom(root);
  }
  if (first_merge || other.first_start_us < first_start_us) {
    first_start_us = other.first_start_us;
  }
  last_end_us = std::max(last_end_us, other.last_end_us);
}

namespace {

uint64_t CountNodes(const OperatorProfile& node) {
  uint64_t n = 1;
  for (const OperatorProfile& child : node.children) n += CountNodes(child);
  return n;
}

void RenderNodeText(const OperatorProfile& node, const std::string& indent,
                    bool is_child, std::string* out) {
  out->append(indent);
  if (is_child) out->append("└─ ");
  out->append(node.name);
  out->append(StrCat(" [", node.kind.empty() ? "op" : node.kind, "]"));
  out->append("  ");
  if (node.rows_in_counted) out->append(StrCat("rows_in=", node.rows_in, " "));
  out->append(StrCat("rows_out=", node.rows_out));
  if (node.rows_in > 0) {
    out->append(StrCat(" sel=", FormatDouble(node.selectivity(), 4)));
  }
  if (node.batches > 0) out->append(StrCat(" batches=", node.batches));
  out->append(StrCat("  wall(sum)=", Millis(node.wall_ns), " wall(max)=",
                     Millis(node.wall_max_ns), " cpu=", Millis(node.cpu_ns),
                     " tasks=", node.tasks));
  if (node.bytes_raw > 0 || node.bytes_decoded > 0) {
    out->append(StrCat("\n", indent, is_child ? "   " : "",
                       "   bytes dec/raw=", HumanBytes(node.bytes_decoded),
                       "/", HumanBytes(node.bytes_raw), " blocks_skipped=",
                       node.blocks_skipped, " rows_pruned=", node.rows_pruned));
    bool any_encoding = false;
    for (int i = 0; i < 6; ++i) any_encoding |= node.blocks_by_encoding[i] > 0;
    if (any_encoding) {
      out->append(" enc=");
      bool first = true;
      for (int i = 0; i < 6; ++i) {
        if (node.blocks_by_encoding[i] == 0) continue;
        if (!first) out->push_back(',');
        first = false;
        out->append(
            StrCat(kEncodingNames[i], ":", node.blocks_by_encoding[i]));
      }
    }
  }
  if (node.mem_current_bytes > 0 || node.mem_peak_bytes > 0) {
    out->append(StrCat("\n", indent, is_child ? "   " : "",
                       "   mem cur/peak=", HumanBytes(node.mem_current_bytes),
                       "/", HumanBytes(node.mem_peak_bytes)));
  }
  out->push_back('\n');
  const std::string child_indent = indent + (is_child ? "   " : "");
  for (const OperatorProfile& child : node.children) {
    RenderNodeText(child, child_indent, /*is_child=*/true, out);
  }
}

void RenderNodeJson(const OperatorProfile& node, std::string* out) {
  out->append("{\"name\":");
  out->append(JsonQuote(node.name));
  out->append(",\"kind\":");
  out->append(JsonQuote(node.kind));
  out->append(",\"rows_in\":");
  out->append(node.rows_in_counted ? StrCat(node.rows_in) : "null");
  out->append(StrCat(",\"rows_out\":", node.rows_out));
  out->append(",\"selectivity\":");
  out->append(node.rows_in > 0 ? JsonDouble(node.selectivity()) : "null");
  out->append(StrCat(",\"batches\":", node.batches, ",\"wall_ns\":",
                     node.wall_ns, ",\"wall_max_ns\":", node.wall_max_ns,
                     ",\"cpu_ns\":", node.cpu_ns, ",\"bytes_decoded\":",
                     node.bytes_decoded, ",\"bytes_raw\":", node.bytes_raw,
                     ",\"blocks_skipped\":", node.blocks_skipped,
                     ",\"rows_pruned\":", node.rows_pruned));
  out->append(",\"blocks_by_encoding\":[");
  for (int i = 0; i < 6; ++i) {
    if (i != 0) out->push_back(',');
    out->append(StrCat(node.blocks_by_encoding[i]));
  }
  out->push_back(']');
  out->append(StrCat(",\"mem_current_bytes\":", node.mem_current_bytes,
                     ",\"mem_peak_bytes\":", node.mem_peak_bytes,
                     ",\"tasks\":", node.tasks));
  out->append(",\"children\":[");
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out->push_back(',');
    RenderNodeJson(node.children[i], out);
  }
  out->append("]}");
}

}  // namespace

uint64_t NumProfileOperators(const QueryProfile& profile) {
  uint64_t n = 0;
  for (const OperatorProfile& root : profile.roots) n += CountNodes(root);
  return n;
}

std::string ExplainAnalyzeText(const QueryProfile& profile) {
  std::string out = "EXPLAIN ANALYZE";
  out.append(StrCat("  wall=", HumanSeconds(profile.wall_seconds),
                    "  profiled=", HumanSeconds(profile.ProfiledSpanSeconds())));
  if (profile.wall_seconds > 0) {
    out.append(StrCat(
        " (", FormatDouble(100.0 * profile.ProfiledSpanSeconds() /
                               profile.wall_seconds, 1),
        "% of wall)"));
  }
  out.append(StrCat("  operators=", NumProfileOperators(profile), "\n"));
  for (const OperatorProfile& root : profile.roots) {
    RenderNodeText(root, "", /*is_child=*/false, &out);
  }
  return out;
}

std::string ExplainAnalyzeJson(const QueryProfile& profile) {
  std::string out = "{\"wall_seconds\":";
  out.append(JsonDouble(profile.wall_seconds));
  out.append(",\"profiled_span_seconds\":");
  out.append(JsonDouble(profile.ProfiledSpanSeconds()));
  out.append(StrCat(",\"first_start_us\":", profile.first_start_us,
                    ",\"last_end_us\":", profile.last_end_us, ",\"operators\":",
                    NumProfileOperators(profile)));
  out.append(",\"roots\":[");
  for (size_t i = 0; i < profile.roots.size(); ++i) {
    if (i != 0) out.push_back(',');
    RenderNodeJson(profile.roots[i], &out);
  }
  out.append("]}");
  return out;
}

}  // namespace obs
}  // namespace clydesdale
