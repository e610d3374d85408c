// What one benchmark run reports: named metric values, the request
// counts, and notes (invalid phases, failures) for the human-readable table.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace e2e {

struct Report {
  std::map<std::string, double, std::less<>> values;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void set(std::string_view name, double value) { values[std::string(name)] = value; }
  void note(std::string text) { notes.push_back(std::move(text)); }
  void count(std::size_t sent, std::size_t bad, const std::string& first_error) {
    attempted += sent;
    failed += bad;
    if (bad > 0) note(std::to_string(bad) + " failed: " + first_error);
  }

  /// Names in `defs` this report has no finite value for.
  [[nodiscard]] std::vector<std::string> missing(std::span<const MetricDef> defs) const {
    std::vector<std::string> out;
    for (const auto& d : defs) {
      auto it = values.find(d.name);
      if (it == values.end() || !std::isfinite(it->second)) out.emplace_back(d.name);
    }
    return out;
  }

  /// The human-readable table: notes, then one row per metric.
  [[nodiscard]] std::string table(std::span<const MetricDef> defs, bool show_moves) const {
    std::string out;
    char row[512];
    for (const auto& n : notes) out += "# " + n + "\n";
    for (const auto& d : defs) {
      std::snprintf(row, sizeof row, "%-28.*s %16.4f %-6.*s", static_cast<int>(d.name.size()),
                    d.name.data(), values.at(std::string(d.name)), static_cast<int>(d.unit.size()),
                    d.unit.data());
      out += row;
      if (show_moves && !d.moves.empty()) out += "  -> " + std::string(d.moves);
      out += "\n";
    }
    return out;
  }

  /// The result line: exactly the keys correct, attempted, failed and
  /// metrics (every metric of `defs`, with its unit).
  [[nodiscard]] std::string json(std::span<const MetricDef> defs) const {
    std::string out = std::string("{\"correct\": ") + (ok() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char value[64];
    const char* sep = "";
    for (const auto& d : defs) {
      std::snprintf(value, sizeof value, "%.17g", values.at(std::string(d.name)));
      out += sep + ("\"" + std::string(d.name) + "\": {\"value\": ") + value +
             ", \"unit\": \"" + std::string(d.unit) + "\"}";
      sep = ", ";
    }
    return out + "}}";
  }

  [[nodiscard]] bool ok() const { return failed == 0 && attempted > 0; }
};

}  // namespace e2e
