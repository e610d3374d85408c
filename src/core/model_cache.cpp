#include "core/model_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace repro::core {

namespace {

/// common::fnv1a as a fixed-width hex token (stable across runs and
/// platforms, unlike std::hash).
std::string hash_token(const std::string& s) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(common::fnv1a(s)));
  return hex;
}

constexpr std::string_view kChecksumTag = "gpufreq_checksum ";

/// An exclusive flock(2) on a lock file, held until destruction. The lock
/// belongs to the open file description, so the kernel drops it when its
/// holder closes the descriptor or dies; O_CLOEXEC keeps an exec'd child
/// from inheriting it. A file that cannot be opened or locked leaves the
/// caller unlocked, with a warning: it can still load and train, only the
/// train-once guarantee is lost.
class FileLock {
 public:
  explicit FileLock(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CREAT | O_CLOEXEC, 0644)) {
    bool locked = fd_ >= 0;
    while (locked && ::flock(fd_, LOCK_EX) != 0) {
      locked = errno == EINTR;
    }
    if (!locked) {
      const int err = errno;  // logging below must not clobber it
      common::log_warn() << "ModelCache: cannot lock " << path << ": "
                         << std::strerror(err) << "; continuing unlocked";
    }
  }
  ~FileLock() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

}  // namespace

common::Status save_model_atomic(const FrequencyModel& model,
                                 const std::string& path) {
  const std::string payload = model.serialize();
  std::string content;
  content.reserve(payload.size() + 32);
  content.append(kChecksumTag);
  content += hash_token(payload);
  content.push_back('\n');
  content += payload;

  // The temp name is unique per process: a save is normally made under the
  // cache's per-key lock, but a caller without it (an unlockable directory,
  // a direct call) must still scribble in its own file. The content is
  // deterministic for a given key, so whichever rename lands last is
  // byte-identical anyway.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return common::io_error("save_model_atomic: open(" + tmp +
                            "): " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return common::io_error("save_model_atomic: write(" + tmp +
                              "): " + std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before rename: rename is atomic in the namespace, but without the
  // fsync a power loss could surface the *new* name with *old* (empty)
  // contents on some filesystems.
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return common::io_error("save_model_atomic: fsync(" + tmp +
                            "): " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return common::io_error(std::string("save_model_atomic: close: ") +
                            std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return common::io_error("save_model_atomic: rename(" + tmp + " -> " + path +
                            "): " + std::strerror(err));
  }
  return common::Status::Ok();
}

common::Result<FrequencyModel> load_cached_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return common::io_error("load_cached_model: cannot open " + path);
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  std::string content = raw.str();

  if (content.compare(0, kChecksumTag.size(), kChecksumTag) == 0) {
    const auto nl = content.find('\n');
    if (nl == std::string::npos) {
      return common::parse_error("load_cached_model: truncated header in " + path);
    }
    const std::string stored = content.substr(kChecksumTag.size(),
                                              nl - kChecksumTag.size());
    content.erase(0, nl + 1);
    if (stored != hash_token(content)) {
      return common::parse_error("load_cached_model: checksum mismatch in " +
                                 path + " (torn or corrupted file)");
    }
  }
  // No header: a legacy bare-serialize() file — parse as-is, its own format
  // validation is the only protection it ever had.
  return FrequencyModel::deserialize(content);
}

std::string ModelKey::to_string() const {
  return device + "|" + speedup_regressor + "|" + energy_regressor + "|" +
         std::to_string(num_configs) + "|" + (exclude_mem_L ? "noL" : "L") + "|" +
         suite;
}

std::string ModelKey::fingerprint(std::span<const benchgen::MicroBenchmark> suite) {
  // Hash names *and* static feature counts: a benchmark edited in body but
  // not renamed must still change the key, or the disk cache would serve a
  // model trained on different data. Counts are framed as shortest
  // round-trip text (std::to_chars — exact, endian- and locale-independent).
  std::string blob;
  blob.reserve(suite.size() * 192);
  char buf[32];
  for (const auto& mb : suite) {
    blob += mb.name;
    blob.push_back('\n');  // separator so {"ab"} and {"a","b"} differ
    for (double c : mb.features.counts) {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, c);
      (void)ec;  // 32 bytes always suffice
      blob.append(buf, end);
      blob.push_back(',');
    }
    blob.push_back('\n');
  }
  return "n" + std::to_string(suite.size()) + "-" + hash_token(blob);
}

std::string ModelKey::file_stem() const {
  const std::string canonical = to_string();
  std::string stem;
  stem.reserve(canonical.size() + 20);
  for (char c : canonical) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    stem.push_back(safe ? c : '_');
  }
  // Sanitization can collide ("a|b" vs "a_b"); the canonical hash cannot.
  return stem + "-" + hash_token(canonical);
}

ModelKey ModelKey::from_options(const std::string& device_name,
                                const TrainingOptions& options,
                                std::string suite_fingerprint) {
  return ModelKey{device_name,          options.models.speedup_regressor,
                  options.models.energy_regressor, options.num_configs,
                  options.exclude_mem_L_from_training,
                  std::move(suite_fingerprint)};
}

ModelCache::ModelCache(std::string disk_dir) : disk_dir_(std::move(disk_dir)) {}

void ModelCache::count(std::uint64_t Stats::*counter) {
  std::lock_guard lock(mutex_);
  ++(stats_.*counter);
}

common::Result<std::shared_ptr<const FrequencyModel>> ModelCache::get_or_train(
    const ModelKey& key, const Trainer& trainer) {
  std::string path;
  std::optional<FileLock> lock;
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    const std::string stem = disk_dir_ + "/" + key.file_stem();
    path = stem + ".model";
    // Held until return: a concurrent caller of this key blocks here and
    // then finds the copy this one saves.
    lock.emplace(stem + ".lock");

    // Disk probe. Any failure — unreadable, corrupt, version-mismatched, or
    // trained for a different key — degrades to retraining, never propagates.
    if (std::filesystem::exists(path, ec)) {
      auto loaded = load_cached_model(path);
      const bool matches = loaded.ok() &&
                           loaded.value().domain().device_name() == key.device &&
                           loaded.value().speedup_regressor() == key.speedup_regressor &&
                           loaded.value().energy_regressor() == key.energy_regressor;
      if (matches) {
        count(&Stats::disk_hits);
        return std::make_shared<const FrequencyModel>(std::move(loaded).take());
      }
      count(&Stats::disk_errors);
      common::log_warn() << "ModelCache: unusable cache file " << path << " ("
                         << (loaded.ok() ? std::string("trained for a different setup")
                                         : loaded.error().message)
                         << "), retraining";
    }
  }

  count(&Stats::misses);
  auto trained = trainer();
  if (!trained.ok()) return trained.error();
  auto model = std::make_shared<const FrequencyModel>(std::move(trained).take());
  if (!path.empty()) {
    if (auto st = save_model_atomic(*model, path); !st.ok()) {
      common::log_warn() << "ModelCache: could not persist model: "
                         << st.error().message;
    }
  }
  return model;
}

ModelCache::Stats ModelCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace repro::core
