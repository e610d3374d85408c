// Train-once model cache: trained FrequencyModels saved in a directory that
// threads and processes share — the one place a model is keyed, written and
// read. Predictor::Builder::cache trains through it.
//
// A model is identified by everything that determines its trained weights:
// the device, the two regressor registry keys, the training options
// (configuration budget, mem-L exclusion) and the training suite.
// get_or_train returns a shared_ptr<const FrequencyModel> the caller serves
// with for as long as it likes.
//
// Without a directory the cache simply trains. With one, each key has a
// lock file next to its model file, and get_or_train holds an exclusive
// flock(2) on it across probe, load or train, and save: every thread and
// process sharing the directory trains a key once, and the rest load the
// copy it saved. A holder that dies releases the lock with its descriptors,
// so the next caller trains instead of waiting forever. A corrupt,
// truncated, or key-mismatched model file is never fatal — loading returns
// a common::Result error internally and the cache falls back to retraining,
// overwriting the bad file.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "benchgen/benchgen.hpp"
#include "common/status.hpp"
#include "core/model.hpp"

namespace repro::core {

/// Everything that determines a trained model's weights (hyperparameters
/// excluded, matching the contract of Predictor::Builder::cache): device,
/// regressor families, training options, and a fingerprint of the training
/// suite — two models trained on different suites must never share a cache
/// entry.
struct ModelKey {
  std::string device;             // FrequencyDomain::device_name()
  std::string speedup_regressor = "svr-linear";
  std::string energy_regressor = "svr-rbf";
  std::size_t num_configs = 40;
  bool exclude_mem_L = false;
  /// fingerprint() of the suite; kDefaultSuite = the generated 106-benchmark
  /// suite (deterministic, so the name alone identifies it).
  std::string suite = std::string(kDefaultSuite);

  static constexpr std::string_view kDefaultSuite = "default106";

  friend bool operator==(const ModelKey&, const ModelKey&) = default;

  /// Canonical "device|speedup|energy|configs|excl|suite" form (logs; its
  /// hash makes file_stem collision-free).
  [[nodiscard]] std::string to_string() const;
  /// Filesystem-safe stem for the on-disk copy, stable across runs.
  [[nodiscard]] std::string file_stem() const;

  /// Stable fingerprint ("n<count>-<hash>") of a custom training suite, over
  /// the benchmark names AND their static feature counts — a benchmark edited
  /// in body but not renamed still changes the key.
  [[nodiscard]] static std::string fingerprint(
      std::span<const benchgen::MicroBenchmark> suite);

  [[nodiscard]] static ModelKey from_options(
      const std::string& device_name, const TrainingOptions& options,
      std::string suite_fingerprint = std::string(kDefaultSuite));
};

/// Crash-atomic model persistence: serialize, write to a process-unique
/// temp file in the same directory, fsync, rename over `path`. The file
/// starts with a "gpufreq_checksum <16-hex fnv1a>" header over the payload,
/// so a torn or bit-flipped file is detected as parse_error (and the cache
/// degrades to retraining) instead of being parsed as a plausible model.
/// Readers anywhere in the fleet only ever observe the old file, the new
/// file, or no file — never a partial write.
[[nodiscard]] common::Status save_model_atomic(const FrequencyModel& model,
                                               const std::string& path);

/// Load a model persisted by save_model_atomic, verifying the checksum.
/// Headerless files (a bare FrequencyModel::serialize() payload, as written
/// before the checksum existed) still load — old caches stay usable.
[[nodiscard]] common::Result<FrequencyModel> load_cached_model(const std::string& path);

class ModelCache {
 public:
  using Trainer = std::function<common::Result<FrequencyModel>()>;

  struct Stats {
    std::uint64_t misses = 0;        // trained
    std::uint64_t disk_hits = 0;     // loaded the saved copy
    std::uint64_t disk_errors = 0;   // corrupt / mismatched files survived
  };

  /// With a non-empty `disk_dir`, persist trained models there and train
  /// each key once across everyone sharing the directory.
  explicit ModelCache(std::string disk_dir = {});

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// Load the saved model for `key`, or train it (via `trainer`) and save
  /// it. With a directory the call holds `<dir>/<key.file_stem()>.lock`
  /// throughout, so concurrent callers of one key — threads or processes —
  /// wait for the first trainer and then load its copy.
  [[nodiscard]] common::Result<std::shared_ptr<const FrequencyModel>> get_or_train(
      const ModelKey& key, const Trainer& trainer);

  [[nodiscard]] Stats stats() const;

 private:
  void count(std::uint64_t Stats::*counter);

  const std::string disk_dir_;
  mutable std::mutex mutex_;  // guards stats_ only; the file lock orders training
  Stats stats_;
};

}  // namespace repro::core
