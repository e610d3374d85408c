#include "pareto/pareto.hpp"

#include <algorithm>
#include <deque>

namespace repro::pareto {

bool dominates(const Point& a, const Point& b) noexcept {
  return (a.speedup >= b.speedup && a.energy < b.energy) ||
         (a.speedup > b.speedup && a.energy <= b.energy);
}

bool is_non_dominated(const Point& p, std::span<const Point> set) noexcept {
  for (const Point& q : set) {
    if (dominates(q, p)) return false;
  }
  return true;
}

std::vector<Point> pareto_set_naive(std::span<const Point> points) {
  // Faithful transcription of the paper's Algorithm 1: pop a candidate,
  // compare against every remaining point; if nothing dominates it and it is
  // removed from consideration it joins the frontier. The published
  // pseudo-code has two well-known typos (it "removes" the candidate from a
  // set it was already popped from, and never re-tests against accepted
  // frontier points); we implement the intended semantics — the candidate is
  // accepted iff no *other* point in the input dominates it — which is also
  // what the paper's evaluation requires.
  std::deque<Point> pending(points.begin(), points.end());
  std::vector<Point> frontier;
  std::vector<Point> dominated;

  while (!pending.empty()) {
    Point candidate = pending.front();
    pending.pop_front();

    bool candidate_dominated = false;
    // Scan remaining points: drop those the candidate dominates; detect
    // whether any remaining point dominates the candidate.
    for (auto it = pending.begin(); it != pending.end();) {
      if (dominates(candidate, *it)) {
        dominated.push_back(*it);
        it = pending.erase(it);
      } else {
        if (dominates(*it, candidate)) candidate_dominated = true;
        ++it;
      }
    }
    // The frontier so far is mutually non-dominated with the candidate only
    // if no accepted point dominates it; points accepted earlier were checked
    // against the candidate when it was still pending, except when the
    // candidate was inserted later. Re-check to be exact.
    if (!candidate_dominated) {
      for (const Point& f : frontier) {
        if (dominates(f, candidate)) {
          candidate_dominated = true;
          break;
        }
      }
    }
    if (candidate_dominated) {
      dominated.push_back(candidate);
    } else {
      frontier.push_back(candidate);
    }
  }
  return frontier;
}

std::vector<Point> pareto_set_fast(std::span<const Point> points) {
  if (points.empty()) return {};
  std::vector<Point> sorted(points.begin(), points.end());
  // Sort by descending speedup; ties by ascending energy. Then a point is
  // non-dominated iff its energy is strictly below every energy seen so far,
  // except that equal-objective duplicates of a frontier point are kept.
  std::sort(sorted.begin(), sorted.end(), [](const Point& a, const Point& b) {
    if (a.speedup != b.speedup) return a.speedup > b.speedup;
    return a.energy < b.energy;
  });

  std::vector<Point> frontier;
  frontier.reserve(sorted.size());  // one allocation, not one per doubling
  double best_energy = sorted.front().energy;
  double best_speedup = sorted.front().speedup;
  frontier.push_back(sorted.front());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const Point& p = sorted[i];
    if (p.speedup == best_speedup && p.energy == best_energy) {
      frontier.push_back(p);  // exact duplicate of current frontier point
      continue;
    }
    if (p.energy < best_energy) {
      frontier.push_back(p);
      best_energy = p.energy;
      best_speedup = p.speedup;
    }
  }
  return frontier;
}

void sort_front(std::vector<Point>& front) noexcept {
  std::sort(front.begin(), front.end(), [](const Point& a, const Point& b) {
    if (a.speedup != b.speedup) return a.speedup < b.speedup;
    return a.energy < b.energy;
  });
}

bool same_front(std::span<const Point> a, std::span<const Point> b) {
  if (a.size() != b.size()) return false;
  std::vector<Point> sa(a.begin(), a.end());
  std::vector<Point> sb(b.begin(), b.end());
  sort_front(sa);
  sort_front(sb);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].speedup != sb[i].speedup || sa[i].energy != sb[i].energy) return false;
  }
  return true;
}

}  // namespace repro::pareto
