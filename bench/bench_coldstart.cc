// Copyright 2026 The WWT Authors
//
// Cold-start bench: the build-once / serve-frozen split (§2.1),
// measured. Generates the corpus from scratch N times, saves it as a v4
// (mmap-native) snapshot, then loads that snapshot N times — the load
// is an mmap + O(nterms) structural validation, so it should beat the
// rebuild by orders of magnitude at every scale. The gated ratio is
// min(generate) / min(load). The loaded corpus is verified to serve the
// stored workload byte-identically to the in-memory build before any
// number is reported; the post-load RSS delta shows how little of the
// corpus the load makes resident.
//
// Knobs (on top of bench_common's WWT_SCALE / WWT_SEED /
// WWT_BENCH_JSON):
//   WWT_COLDSTART_REPS — repetitions of both the generate and the load;
//                        the minimum of each is reported (default 3)
//
// JSON summary (WWT_BENCH_JSON), gated by bench_compare:
//   {"bench": "coldstart", "scale": ..., "seed": ..., "reps": ...,
//    "file_bytes": ..., "generate_seconds": ..., "load_seconds": ...,
//    "load_speedup": ..., "rss_load_kb": ..., "identical": true}

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "index/corpus_set.h"
#include "index/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"
#include "wwt/service.h"

using namespace wwt;
using namespace wwt::bench;

namespace {

// Resident set size in kB from /proc/self/status; 0 where the proc
// interface is unavailable (the RSS numbers are reported, never gated).
long ResidentKb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

uint64_t FileBytes(const std::string& path) {
  StatusOr<serde::InputFile> file = serde::InputFile::Open(path);
  return file.ok() ? file->size() : 0;
}

std::vector<std::vector<std::string>> WorkloadQueries(const Corpus& corpus) {
  std::vector<std::vector<std::string>> out;
  for (const ResolvedQuery& rq : corpus.queries) {
    std::vector<std::string> cols;
    for (const QueryColumnSpec& col : rq.spec.columns) {
      cols.push_back(col.keywords);
    }
    out.push_back(std::move(cols));
  }
  return out;
}

std::vector<std::string> ServeDigests(const Corpus& corpus,
                                      uint64_t content_hash) {
  StatusOr<std::unique_ptr<WwtService>> service = WwtService::Create();
  WWT_CHECK_OK(service.status());
  (*service)->SwapCorpus(CorpusHandle::Borrow(&corpus, content_hash));
  std::vector<std::string> digests;
  for (const auto& cols : WorkloadQueries(corpus)) {
    QueryResponse response = (*service)->Run(QueryRequest::Of(cols));
    WWT_CHECK_OK(response.status);
    digests.push_back(ResultDigest(response));
  }
  return digests;
}

std::string TempSnapshotPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  return std::string(dir) + "/wwt_coldstart_" + name + ".wwtsnap";
}

}  // namespace

int main() {
  const double scale = EnvScale();
  const uint64_t seed = EnvSeed();
  const int reps = std::max(1, EnvInt("WWT_COLDSTART_REPS", 3));

  CorpusOptions options;
  options.seed = seed;
  options.scale = scale;
  const std::string path = TempSnapshotPath("v4");

  // Rebuild side: min of `reps` from-scratch builds. The last one stays
  // as the in-memory reference the loaded corpus is checked against.
  std::optional<Corpus> built;
  double generate_seconds = 0;
  for (int r = 0; r < reps; ++r) {
    built.reset();
    WallTimer timer;
    built.emplace(GenerateCorpus(options));
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < generate_seconds) generate_seconds = seconds;
  }
  WWT_CHECK_OK(SaveSnapshot(*built, options, path));
  const uint64_t file_bytes = FileBytes(path);
  std::fprintf(stderr,
               "[bench] corpus scale=%.2f seed=%llu built in %.4f s "
               "(min of %d), snapshot %llu bytes\n",
               scale, static_cast<unsigned long long>(seed),
               generate_seconds, reps,
               static_cast<unsigned long long>(file_bytes));

  // Load side: min of `reps` loads; the last one is served below.
  std::optional<Corpus> loaded;
  SnapshotInfo info;
  double load_seconds = 0;
  const long rss_before = ResidentKb();
  for (int r = 0; r < reps; ++r) {
    loaded.reset();
    WallTimer timer;
    StatusOr<Corpus> corpus = LoadSnapshot(path, &info);
    const double seconds = timer.ElapsedSeconds();
    WWT_CHECK_OK(corpus.status());
    loaded.emplace(std::move(*corpus));
    if (r == 0 || seconds < load_seconds) load_seconds = seconds;
  }
  const long rss_load_kb = ResidentKb() - rss_before;

  const double load_speedup =
      load_seconds > 0 ? generate_seconds / load_seconds : 0;
  std::printf("cold start: generate %.4f s, v4 load %.6f s  (%.1fx, min of "
              "%d each)\n",
              generate_seconds, load_seconds, load_speedup, reps);
  std::printf("rss delta:  v4 load %+ld kB\n", rss_load_kb);

  // Correctness gate: the loaded snapshot must answer the stored
  // workload with the in-memory build's digests, byte for byte. No
  // number above matters if this is false.
  const std::vector<std::string> built_digests =
      ServeDigests(*built, info.content_hash);
  const std::vector<std::string> loaded_digests =
      ServeDigests(*loaded, info.content_hash);
  const bool identical =
      built_digests == loaded_digests && !built_digests.empty();
  std::printf("answers:    %zu workload queries, %s\n",
              built_digests.size(),
              identical ? "byte-identical to the in-memory build"
                        : "DIVERGED");

  if (FILE* json = OpenBenchJson()) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"coldstart\",\n"
                 "  \"scale\": %.4f,\n"
                 "  \"seed\": %llu,\n"
                 "  \"reps\": %d,\n"
                 "  \"file_bytes\": %llu,\n"
                 "  \"generate_seconds\": %.6f,\n"
                 "  \"load_seconds\": %.6f,\n"
                 "  \"load_speedup\": %.2f,\n"
                 "  \"rss_load_kb\": %ld,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 scale, static_cast<unsigned long long>(seed), reps,
                 static_cast<unsigned long long>(file_bytes),
                 generate_seconds, load_seconds, load_speedup, rss_load_kb,
                 identical ? "true" : "false");
    std::fclose(json);
  }

  std::remove(path.c_str());
  return identical ? 0 : 1;
}
