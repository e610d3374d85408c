// repro_cache_check — verify every model file in a cache directory.
//
//   repro_cache_check DIR [DIR...]
//
// Loads each "*.model" file with core::load_cached_model (checksum header
// verified, payload fully parsed) and prints one line per file:
//
//   ok   <path> (<bytes> bytes)
//   BAD  <path>: <error>
//
// Exits 0 iff every file loads, 1 otherwise. Leftover "*.tmp.*" files from
// an interrupted save_model_atomic are reported too (they are harmless —
// never observed by readers — but the chaos soak counts them to prove the
// atomic-rename path cleans up). A missing or empty directory is not an
// error: a fleet that never finished training has nothing to check.
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/model_cache.hpp"

using namespace repro;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s DIR [DIR...]\n", argv[0]);
    return 2;
  }

  int bad = 0;
  std::size_t checked = 0;
  std::size_t leftovers = 0;
  for (int i = 1; i < argc; ++i) {
    std::error_code ec;
    std::filesystem::directory_iterator it(argv[i], ec);
    if (ec) {
      std::printf("skip %s: %s\n", argv[i], ec.message().c_str());
      continue;
    }
    for (const auto& entry : it) {
      if (!entry.is_regular_file(ec)) continue;
      const std::string path = entry.path().string();
      const std::string name = entry.path().filename().string();
      if (name.find(".tmp.") != std::string::npos) {
        ++leftovers;
        std::printf("tmp  %s (leftover from an interrupted save)\n", path.c_str());
        continue;
      }
      if (entry.path().extension() != ".model") continue;
      ++checked;
      if (auto model = core::load_cached_model(path); model.ok()) {
        std::printf("ok   %s (%llu bytes)\n", path.c_str(),
                    static_cast<unsigned long long>(entry.file_size(ec)));
      } else {
        ++bad;
        std::printf("BAD  %s: %s\n", path.c_str(),
                    model.error().to_string().c_str());
      }
    }
  }
  std::printf("cache_check: %zu model file(s), %d bad, %zu tmp leftover(s)\n",
              checked, bad, leftovers);
  return bad == 0 ? 0 : 1;
}
