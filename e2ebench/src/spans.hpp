// Spans the traced run records around its calls into each layer.
//
// A span is (name, request id, parent index, start, end) in microseconds
// since the run's epoch. Spans live in memory and are written out as CSV
// when the run ends. A layer's self time is its span's duration minus the
// part of that interval its child spans cover (overlapping children count
// once).
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;  // index into the owning log, -1 for a root
  double start_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] double duration() const { return end_us - start_us; }
};

/// Duration of `parent` not covered by the union of `children`, each
/// clipped to the parent's interval.
[[nodiscard]] inline double self_time(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<double, double>> cover;
  for (const Span& c : children) {
    const double lo = std::max(c.start_us, parent.start_us);
    const double hi = std::min(c.end_us, parent.end_us);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = parent.start_us;
  for (const auto& [lo, hi] : cover) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return parent.duration() - covered;
}

class SpanLog {
 public:
  /// Append a span; returns its index (a parent for later spans).
  int add(std::string name, std::uint64_t request, int parent, double start_us,
          double end_us) {
    spans_.push_back({std::move(name), request, parent, start_us, end_us});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const {
    std::vector<std::vector<Span>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(s);
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) out.push_back(self_time(spans_[i], children[i]));
    }
    return out;
  }

  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "name,request,parent,start_us,end_us\n";
    for (const Span& s : spans_) {
      out << s.name << ',' << s.request << ',' << s.parent << ',' << s.start_us << ','
          << s.end_us << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace e2e
