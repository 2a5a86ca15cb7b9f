// Copyright 2026 The WWT Authors
//
// servebench: the serving benchmark. One command brings up a real
// serving stack through the public API, drives seeded traffic from this
// process, checks the answers, and prints every metric by name and
// unit, with one JSON object as the last line of standard output.
//
//   servebench --workload map_heavy --seed 1 --seconds 10 --trace 0
//              [--scratch DIR]
//
// Workloads (README.md says why each exists and what should move it):
//   map_heavy         closed loop, full pipeline, cache off, 1 shard
//   fresh_mixed       open-loop Zipf reads, cache on, beside a seeded
//                     mutation stream
//   routed_retrieval  closed loop, retrieval only, 2 shard workers
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs the same traffic with half the window untraced and half traced
// (TimingProbe spans on the serving path plus a replay of every
// executed response's sub-stages), and reports the per-layer metrics
// and the tracing overhead.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/candidate.h"
#include "core/column_mapper.h"
#include "core/edges.h"
#include "core/potentials.h"
#include "core/query.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "fresh/delta_shard.h"
#include "fresh/merge.h"
#include "inputs.h"
#include "stack.h"
#include "table/labels.h"
#include "trace.h"
#include "util/hash.h"
#include "util/logging.h"
#include "wwt/consolidator.h"
#include "wwt/engine.h"
#include "wwt/service.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ constants
// Fixed workload shapes. Changing any of these changes the benchmark and
// invalidates every recorded baseline.

/// Set-ups per run, some before the traffic and some after it, so that
/// a burst of host noise that covers one phase moves only part of them;
/// setup_s is the median of all.
constexpr int kSetupRepsBefore = 4;
constexpr int kSetupRepsAfter = 5;
/// Traffic before the measured window (caches fill, pools spin up).
constexpr double kWarmupSeconds = 3.0;
/// fresh_mixed's open-loop read rate, per second.
constexpr double kFreshReadRate = 40;
constexpr double kZipfExponent = 1.0;
/// fresh_mixed writes per second and the pending count that triggers a
/// merge.
constexpr double kWriteRate = 10;
constexpr size_t kMergeMaxPending = 20;
/// Response cache budget: well under the ~100 MB the distinct responses
/// take together, so Zipf's tail keeps missing.
constexpr size_t kCacheBytes = 32u << 20;
/// Equal-time slices of the measured window that the end-to-end
/// timings take their median over.
constexpr int kSlices = 5;
/// Open-loop per-request deadline, from the due time.
constexpr double kDeadlineSeconds = 2.0;
/// A generator whose p99 lateness exceeds this fell behind its schedule
/// and the run is rejected.
constexpr double kMaxLatenessP99Ms = 50;
/// The second corpus that fresh_mixed's adds and updates draw from.
constexpr uint64_t kSourceCorpusSeed = 7;
constexpr double kSourceCorpusScale = 0.25;

enum class Workload { kMapHeavy, kFreshMixed, kRoutedRetrieval };

struct Args {
  std::string workload_name;
  Workload workload = Workload::kMapHeavy;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload_name = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds >= 1) ||
          args->seconds > 120) {
        *error = "--seconds must be a number in [1, 120]";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  static const std::map<std::string, Workload> kNames = {
      {"map_heavy", Workload::kMapHeavy},
      {"fresh_mixed", Workload::kFreshMixed},
      {"routed_retrieval", Workload::kRoutedRetrieval},
  };
  auto it = kNames.find(args->workload_name);
  if (it == kNames.end()) {
    *error = "--workload must be one of map_heavy, fresh_mixed, "
             "routed_retrieval";
    return false;
  }
  args->workload = it->second;
  return true;
}

/// Refuses builds whose timings mean nothing: assertions on, or a
/// sanitizer compiled in.
bool OptimizedBuild(std::string* why) {
#ifndef NDEBUG
  *why = "assertions are enabled (NDEBUG unset): not an optimized build";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "a sanitizer is compiled in";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  *why = "a sanitizer is compiled in";
  return false;
#endif
#endif
  (void)why;
  return true;
}

/// A size field of /proc/self/status ("VmHWM", "VmRSS"), in MB.
double StatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Returns freed heap to the system and restarts the peak resident set
/// size (VmHWM) from the current one, so that the peak read at the end
/// of the traffic is the serving stack's, not that of the set-ups.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Nearest-rank percentile (the library's Summarize convention).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

uint64_t DigestHash(const wwt::QueryResponse& r) {
  return wwt::Fnv1a(wwt::ResultDigest(r));
}

// --------------------------------------------------------------- samples

/// Measurement windows of one run, in seconds after traffic starts.
struct Windows {
  double warmup_end = 0;
  /// Untraced window [warmup_end, traced_start); traced window
  /// [traced_start, end) — empty when the run is untraced.
  double traced_start = 0;
  double end = 0;

  int Of(double t) const {
    if (t < warmup_end) return 0;
    return t < traced_start ? 1 : 2;
  }
};

/// One served read request.
struct Sample {
  uint32_t request = 0;
  /// Seconds after traffic start the request started (closed loop) or
  /// was due (open loop); `window` is Windows::Of(at_s).
  double at_s = 0;
  int window = 0;
  bool ok = false;
  bool mismatch = false;  // replay digest differed
  double latency_ms = 0;
  double queue_ms = 0;
  double execute_ms = 0;
  double lateness_ms = 0;
  bool cached = false;
  uint64_t digest = 0;
  int candidates = 0;
  int from_probe2 = 0;
  bool second_probe = false;
  size_t answer_rows = 0;
  /// Set when the response was replayed.
  double edge_pairs = 0;
  double edges_kept = 0;
  /// The engine's own stage times for this response (its StageTimer),
  /// milliseconds: both index probes, both table reads, column map
  /// (quick pass plus full map) and consolidation.
  double served_index_ms = 0;
  double served_read_ms = 0;
  double served_map_ms = 0;
  double served_consolidate_ms = 0;
};

/// One write of the mutation stream.
struct WriteSample {
  MutationKind kind = MutationKind::kAdd;
  int window = 0;
  bool ok = false;
  double latency_ms = 0;
  double pending = 0;
  double journal_bytes = -1;
};

struct MergeSample {
  int window = 0;
  bool ok = false;
  double ms = 0;
};

// ---------------------------------------------------------------- run

struct Run {
  Args args;
  int threads = 1;
  std::vector<Request> universe;
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, build_ms, save_ms, open_ms;
  /// Resident set size when the traffic starts (after ResetPeakRss).
  double rss_start_mb = 0;
  /// fresh_mixed: digests of the Table 1 answers the fresh stack served
  /// before its first write, by request.
  std::map<uint32_t, uint64_t> fresh_start_digests;
  Windows windows;
  Clock::time_point traffic_start;

  Tracer tracer;
  std::atomic<bool> tracing{false};
  /// Serializes "install a corpus" (merges) with "attach timing probes
  /// for the current corpus", so probes are never bound to a retired
  /// set.
  std::mutex attach_mu;

  std::mutex samples_mu;
  std::vector<Sample> samples;
  std::vector<WriteSample> writes;
  std::vector<MergeSample> merges;
  std::string last_merged_path;

  wwt::ResponseCache::Stats cache_at_traced_start;
  wwt::ResponseCache::Stats cache_at_end;
  std::vector<wwt::net::RemoteShardStats> net_at_traced_start;
  std::vector<wwt::net::RemoteShardStats> net_at_end;

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - traffic_start)
        .count();
  }
  Clock::time_point At(double s) const {
    return traffic_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(s));
  }
  bool retrieval_only() const {
    return args.workload == Workload::kRoutedRetrieval;
  }
  bool open_loop() const { return args.workload == Workload::kFreshMixed; }
};

/// Routes index probes through TimingProbe for the service's current
/// corpus. Caller holds attach_mu.
void AttachTimingProbes(Run* run) {
  wwt::WwtService& service = *run->stack->service;
  std::shared_ptr<const wwt::CorpusSet> set = service.corpus();
  std::vector<std::shared_ptr<const wwt::ShardProbe>> probes;
  for (size_t s = 0; s < set->num_shards(); ++s) {
    std::shared_ptr<const wwt::ShardProbe> inner;
    if (run->stack->remote != nullptr) {
      inner = run->stack->remote->Probes()[s];
    } else {
      inner = std::make_shared<LocalProbe>(set, s);
    }
    probes.push_back(std::make_shared<TimingProbe>(
        std::move(inner), &run->tracer, s, "index.probe"));
  }
  wwt::Status st = service.AttachRemoteProbes(std::move(probes));
  WWT_CHECK(st.ok()) << st.ToString();
}

/// Records the serving-side spans of one traced request: the client's
/// view [start, done] with the response's own queue and execute times
/// under it. `execute_span` was allocated at Register time so probe
/// spans could name it as their parent.
void RecordServeSpans(Run* run, uint64_t request, uint64_t execute_span,
                      Clock::time_point start, Clock::time_point submitted,
                      Clock::time_point done,
                      const wwt::QueryResponse& response) {
  Tracer& tr = run->tracer;
  Span root;
  root.request = request;
  root.id = tr.NewId();
  root.name = "request";
  root.start_ns = tr.Nanos(start);
  root.end_ns = tr.Nanos(done);
  tr.Record(root);
  const int64_t sub = tr.Nanos(submitted);
  const int64_t queue_end =
      sub + static_cast<int64_t>(response.queue_seconds * 1e9);
  Span queue{request, tr.NewId(), root.id, "wwt.queue", sub, queue_end, 0};
  tr.Record(queue);
  Span exec{request, execute_span, root.id,
            response.served_from_cache ? "cache.served" : "wwt.execute",
            queue_end,
            queue_end + static_cast<int64_t>(response.execute_seconds * 1e9),
            0};
  tr.Record(exec);
}

/// Replays the sub-stages of one executed response that the engine's
/// own StageTimer does not split out, on the response's own candidate
/// set, through the layers' public functions, as spans under one
/// "replay" root: parse, the table reads split into TableStore::Get and
/// CandidateTable::Build, the quick confidence map, potentials and cross
/// edges. The whole stages (probes, reads, column map, consolidate) are
/// taken from the response itself. The replay then maps and
/// consolidates once more, untimed, and returns false when that mapping
/// or answer is not digest-equal to the served one: the replayed splits
/// must come from the same program the response did.
bool ReplayResponse(Run* run, uint64_t request, const Request& req,
                    const wwt::QueryResponse& response, Sample* sample) {
  Tracer& tr = run->tracer;
  ScopedSpan root(&tr, request, 0, "replay");
  const wwt::EngineOptions& options = run->stack->service->engine_options();

  if (run->args.workload == Workload::kFreshMixed) {
    // The delta changes under the reads, so only the layers that do not
    // depend on which view a request captured are replayed: parse
    // against the live statistics, and the delta shard's own probe.
    std::shared_ptr<const wwt::fresh::DeltaView> view =
        run->stack->service->delta_view();
    {
      ScopedSpan s(&tr, request, root.id(), "core.parse");
      s.set_count(wwt::Query::Parse(req.columns, view->stats()).q());
    }
    if (view->index() != nullptr) {
      ScopedSpan s(&tr, request, root.id(), "fresh.delta_probe");
      s.set_count(static_cast<double>(
          view->index()->Search(req.columns, options.probe1_k, options.scorer)
              .size()));
    }
    return true;
  }

  const std::shared_ptr<const wwt::CorpusSet> set =
      run->stack->service->corpus();
  const wwt::CorpusStats& stats = set->stats();
  wwt::Query query;
  {
    ScopedSpan s(&tr, request, root.id(), "core.parse");
    query = wwt::Query::Parse(req.columns, stats);
  }
  std::vector<wwt::WebTable> raw;
  {
    ScopedSpan s(&tr, request, root.id(), "index.store_get");
    raw.reserve(response.retrieval.tables.size());
    for (const wwt::CandidateTable& c : response.retrieval.tables) {
      wwt::StatusOr<wwt::WebTable> t =
          wwt::fresh::ReadFrozenTable(*set, c.table.id);
      if (!t.ok()) return false;
      raw.push_back(std::move(t).value());
    }
    s.set_count(static_cast<double>(raw.size()));
  }
  std::vector<wwt::CandidateTable> tables;
  {
    ScopedSpan s(&tr, request, root.id(), "core.candidate_build");
    tables.reserve(raw.size());
    for (wwt::WebTable& t : raw) {
      tables.push_back(wwt::CandidateTable::Build(std::move(t), stats));
    }
    s.set_count(static_cast<double>(tables.size()));
  }
  {
    ScopedSpan s(&tr, request, root.id(), "core.quick_map");
    wwt::MapperOptions quick = options.mapper;
    quick.mode = wwt::InferenceMode::kIndependent;
    std::vector<wwt::CandidateTable> first(
        tables.begin(),
        tables.begin() + std::min<size_t>(
                             tables.size(),
                             response.retrieval.from_first_probe));
    wwt::ColumnMapper mapper(&stats, quick);
    s.set_count(static_cast<double>(mapper.Map(query, first).tables.size()));
  }
  if (run->tracer.keep_probe_calls()) {
    for (const ProbeCall& call : tr.TakeProbeCalls(request)) {
      ScopedSpan s(&tr, request, call.span, "net.worker_search");
      s.set_count(static_cast<double>(
          set->shard(call.shard)
              .index()
              .Search(call.keywords, call.k, call.scorer)
              .size()));
    }
  }
  if (run->retrieval_only()) return true;

  {
    ScopedSpan s(&tr, request, root.id(), "core.potentials");
    wwt::FeatureComputer features(&stats, options.mapper.features);
    for (const wwt::CandidateTable& t : tables) {
      wwt::ComputeNodePotentials(query, t, &features, options.mapper.weights,
                                 options.mapper.use_pmi2);
    }
  }
  {
    ScopedSpan s(&tr, request, root.id(), "core.edges");
    std::vector<wwt::CrossEdge> edges =
        wwt::BuildCrossEdges(tables, options.mapper.edges);
    double pairs = 0;
    for (size_t a = 0; a < tables.size(); ++a) {
      for (size_t b = a + 1; b < tables.size(); ++b) {
        pairs += static_cast<double>(tables[a].num_cols) * tables[b].num_cols;
      }
    }
    sample->edge_pairs = pairs;
    sample->edges_kept = static_cast<double>(edges.size());
    s.set_count(sample->edges_kept);
  }
  // The check, not a layer: its time is the served Column Map and
  // Consolidate, which the response already carries.
  ScopedSpan check(&tr, request, root.id(), "replay.check");
  const wwt::MapResult mapping =
      wwt::ColumnMapper(&stats, options.mapper).Map(query, tables);
  const wwt::AnswerTable answer =
      wwt::Consolidate(query, tables, mapping, options.consolidator);
  return wwt::ResultDigest(response.retrieval, mapping, answer) ==
         wwt::ResultDigest(response);
}

/// Fills a sample from a response and, inside the traced window for an
/// executed response, records its spans and replays it.
void FinishSample(Run* run, const Request& req, uint64_t trace_request,
                  uint64_t execute_span, Clock::time_point start,
                  Clock::time_point submitted, Clock::time_point done,
                  const wwt::QueryResponse& response, Sample* sample) {
  sample->ok = response.ok();
  sample->queue_ms = response.queue_seconds * 1e3;
  sample->execute_ms = response.execute_seconds * 1e3;
  sample->cached = response.served_from_cache;
  if (!response.ok()) return;
  sample->digest = DigestHash(response);
  sample->candidates = static_cast<int>(response.retrieval.tables.size());
  sample->from_probe2 = response.retrieval.new_from_second_probe;
  sample->second_probe = response.retrieval.used_second_probe;
  sample->answer_rows = response.answer.rows.size();
  const wwt::StageTimer& timing = response.timing;
  sample->served_index_ms =
      (timing.Get(wwt::kStage1stIndex) + timing.Get(wwt::kStage2ndIndex)) *
      1e3;
  sample->served_read_ms =
      (timing.Get(wwt::kStage1stRead) + timing.Get(wwt::kStage2ndRead)) * 1e3;
  sample->served_map_ms = timing.Get(wwt::kStageColumnMap) * 1e3;
  sample->served_consolidate_ms = timing.Get(wwt::kStageConsolidate) * 1e3;
  if (trace_request == 0) return;
  RecordServeSpans(run, trace_request, execute_span, start, submitted, done,
                   response);
  if (response.served_from_cache) return;
  if (!ReplayResponse(run, trace_request, req, response, sample)) {
    sample->mismatch = true;
  }
}

wwt::QueryRequest MakeRequest(const Run& run, const Request& req) {
  wwt::QueryRequest r = wwt::QueryRequest::Of(req.columns);
  r.retrieval_only = run.retrieval_only();
  return r;
}

// ----------------------------------------------------------- closed loop

void RunClosedLoop(Run* run, int clients) {
  const std::vector<uint32_t> order =
      ClosedLoopOrder(run->args.seed, run->universe.size(), 64);
  std::atomic<size_t> cursor{0};
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::thread> threads;
  const Clock::time_point end = run->At(run->windows.end);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([run, &order, &cursor, &per_client, c, end] {
      while (Clock::now() < end) {
        const uint32_t r = order[cursor.fetch_add(1) % order.size()];
        const Request& req = run->universe[r];
        Sample sample;
        sample.request = r;
        const Clock::time_point start = Clock::now();
        sample.at_s =
            std::chrono::duration<double>(start - run->traffic_start).count();
        sample.window = run->windows.Of(sample.at_s);
        uint64_t trace_request = 0, execute_span = 0;
        if (sample.window == 2) {
          trace_request = run->tracer.NewId();
          execute_span = run->tracer.NewId();
          run->tracer.Register(req.columns, trace_request, execute_span);
        }
        wwt::QueryResponse response =
            run->stack->service->Submit(MakeRequest(*run, req)).get();
        const Clock::time_point done = Clock::now();
        sample.latency_ms =
            std::chrono::duration<double, std::milli>(done - start).count();
        if (trace_request != 0) {
          run->tracer.Unregister(req.columns, trace_request);
        }
        FinishSample(run, req, trace_request, execute_span, start, start,
                     done, response, &sample);
        per_client[c].push_back(sample);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per_client) {
    run->samples.insert(run->samples.end(), v.begin(), v.end());
  }
}

// ------------------------------------------------------------- open loop

struct Pending {
  uint32_t request = 0;
  double due_s = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  uint64_t trace_request = 0;
  uint64_t execute_span = 0;
  std::future<wwt::QueryResponse> future;
};

/// Poisson arrivals from one generator thread through Submit; collector
/// threads resolve the futures. Latency runs from the due time: the
/// generator's lateness plus the response's own queue and execute time,
/// so a collector that picks a response up late never inflates it.
void RunOpenLoop(Run* run, double rate, int collectors) {
  const std::vector<Arrival> schedule = OpenLoopSchedule(
      run->args.seed, run->universe.size(), rate, run->windows.end,
      kZipfExponent);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;

  std::vector<std::vector<Sample>> per_collector(collectors);
  std::vector<std::thread> workers;
  for (int c = 0; c < collectors; ++c) {
    workers.emplace_back([&, c] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        wwt::QueryResponse response = p.future.get();
        const Request& req = run->universe[p.request];
        if (p.trace_request != 0) {
          run->tracer.Unregister(req.columns, p.trace_request);
        }
        Sample sample;
        sample.request = p.request;
        sample.at_s = p.due_s;
        sample.window = run->windows.Of(p.due_s);
        sample.lateness_ms =
            std::chrono::duration<double, std::milli>(p.submitted - p.due)
                .count();
        sample.latency_ms = sample.lateness_ms +
                            (response.queue_seconds +
                             response.execute_seconds) * 1e3;
        const Clock::time_point finished =
            p.submitted + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  response.queue_seconds +
                                  response.execute_seconds));
        FinishSample(run, req, p.trace_request, p.execute_span, p.due,
                     p.submitted, finished, response, &sample);
        per_collector[c].push_back(sample);
      }
    });
  }

  for (const Arrival& a : schedule) {
    Pending p;
    p.request = a.request;
    p.due_s = a.due_s;
    p.due = run->At(a.due_s);
    std::this_thread::sleep_until(p.due);
    const Request& req = run->universe[a.request];
    wwt::QueryRequest request = MakeRequest(*run, req);
    request.deadline =
        p.due + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kDeadlineSeconds));
    if (run->windows.Of(a.due_s) == 2) {
      p.trace_request = run->tracer.NewId();
      p.execute_span = run->tracer.NewId();
      run->tracer.Register(req.columns, p.trace_request, p.execute_span);
    }
    p.submitted = Clock::now();
    p.future = run->stack->service->Submit(std::move(request));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : workers) t.join();
  for (auto& v : per_collector) {
    run->samples.insert(run->samples.end(), v.begin(), v.end());
  }
}

// --------------------------------------------------------- fresh writes

/// Applies the seeded mutation stream at its fixed rate from one writer
/// thread. Every write is valid by construction (the generator tracks
/// live ids); an add must land on the id the generator predicted.
void RunWriter(Run* run, const std::vector<Mutation>& stream,
               const std::vector<wwt::WebTable>& sources) {
  wwt::WwtService& service = *run->stack->service;
  for (const Mutation& m : stream) {
    if (m.due_s >= run->windows.end) break;
    std::this_thread::sleep_until(run->At(m.due_s));
    WriteSample w;
    w.kind = m.kind;
    w.window = run->windows.Of(m.due_s);
    w.pending =
        static_cast<double>(service.delta_view()->num_entries());
    std::error_code ec;
    const auto before = std::filesystem::file_size(run->stack->journal_path, ec);
    const bool have_before = !ec;
    wwt::Status st;
    const Clock::time_point start = Clock::now();
    switch (m.kind) {
      case MutationKind::kAdd: {
        wwt::StatusOr<wwt::TableId> id =
            service.AddTable(sources[m.source]);
        st = id.ok() ? (*id == m.target
                            ? wwt::Status::OK()
                            : wwt::Status::Internal(
                                  "add allocated an unexpected id"))
                     : id.status();
        break;
      }
      case MutationKind::kUpdate: {
        wwt::WebTable table = sources[m.source];
        table.id = static_cast<wwt::TableId>(m.target);
        st = service.UpdateTable(std::move(table));
        break;
      }
      case MutationKind::kOverrideTitle:
      case MutationKind::kOverrideContext: {
        wwt::fresh::SummaryOverride patch;
        if (m.kind == MutationKind::kOverrideTitle) {
          patch.title = m.text;
        } else {
          patch.context = m.text;
        }
        st = service.OverrideSummary(static_cast<wwt::TableId>(m.target),
                                     patch);
        break;
      }
      case MutationKind::kTombstone:
        st = service.TombstoneTable(static_cast<wwt::TableId>(m.target));
        break;
    }
    const Clock::time_point end = Clock::now();
    w.latency_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    w.ok = st.ok();
    if (w.window == 2) {
      static const std::map<MutationKind, const char*> kSpanNames = {
          {MutationKind::kAdd, "fresh.add"},
          {MutationKind::kUpdate, "fresh.update"},
          {MutationKind::kOverrideTitle, "fresh.override"},
          {MutationKind::kOverrideContext, "fresh.override"},
          {MutationKind::kTombstone, "fresh.tombstone"}};
      Tracer& tr = run->tracer;
      tr.Record({tr.NewId(), tr.NewId(), 0, kSpanNames.at(m.kind),
                 tr.Nanos(start), tr.Nanos(end), w.pending});
    }
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: %s of table %llu failed: %s\n",
                   MutationKindName(m.kind),
                   static_cast<unsigned long long>(m.target),
                   st.ToString().c_str());
    }
    const auto after = std::filesystem::file_size(run->stack->journal_path, ec);
    if (have_before && !ec && after >= before) {
      w.journal_bytes = static_cast<double>(after - before);
    }
    std::lock_guard<std::mutex> lock(run->samples_mu);
    run->writes.push_back(w);
  }
}

// ------------------------------------------------------------- reference

/// What the serial reference engine produced for one request.
struct Reference {
  uint64_t digest = 0;
  wwt::QueryExecution execution;  // kept only for Table 1 queries
};

/// Runs every listed request through serial WwtEngine::Execute (or
/// Retrieve, for retrieval-only requests) on `set`, spread over
/// `threads` engines. Entries of `keep` run the full pipeline and keep
/// their execution; for retrieval-only requests their digest still
/// covers the retrieval alone, which Execute computes identically.
std::map<uint32_t, Reference> ReferencePass(const wwt::CorpusSet& set,
                                            const std::vector<Request>& universe,
                                            const std::vector<uint32_t>& ids,
                                            bool retrieval_only,
                                            const std::set<uint32_t>& keep,
                                            int threads) {
  std::vector<Reference> out(ids.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      wwt::WwtEngine engine(set.shard_refs(), &set.stats());
      for (size_t i = next.fetch_add(1); i < ids.size();
           i = next.fetch_add(1)) {
        const Request& req = universe[ids[i]];
        const bool full = !retrieval_only || keep.count(ids[i]) != 0;
        wwt::QueryExecution e;
        if (full) {
          e = engine.Execute(req.columns);
        } else {
          e.query = wwt::Query::Parse(req.columns, engine.stats());
          e.retrieval = engine.Retrieve(e.query, nullptr);
        }
        out[i].digest = retrieval_only
                            ? wwt::Fnv1a(wwt::ResultDigest(
                                  e.retrieval, wwt::MapResult{},
                                  wwt::AnswerTable{}))
                            : wwt::Fnv1a(wwt::ResultDigest(e));
        if (keep.count(ids[i]) != 0) out[i].execution = std::move(e);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::map<uint32_t, Reference> by_id;
  for (size_t i = 0; i < ids.size(); ++i) by_id[ids[i]] = std::move(out[i]);
  return by_id;
}

const wwt::TableTruth* TruthFor(const wwt::CorpusSet& set, wwt::TableId id) {
  for (size_t s = 0; s < set.num_shards(); ++s) {
    const wwt::TableTruth* t = set.shard(s).corpus().TruthFor(id);
    if (t != nullptr) return t;
  }
  return nullptr;
}

struct Quality {
  double map_error_pct = 0;
  double answer_error_pct = 0;
  double candidate_recall_pct = 0;
  bool ok = false;
};

/// Fig. 5 column-mapping F1 error, Fig. 6 answer-row error and
/// candidate recall of the full-pipeline answers to the 59 Table 1
/// queries.
Quality ComputeQuality(const wwt::CorpusSet& set,
                       const std::vector<Request>& universe,
                       const std::map<uint32_t, Reference>& refs) {
  Quality q;
  const std::vector<wwt::ResolvedQuery>& resolved = set.queries();
  wwt::EvalHarness harness(&set.shard(0).corpus());
  std::vector<double> map_err, answer_err;
  double relevant_total = 0, relevant_found = 0;
  for (const auto& [id, ref] : refs) {
    const int w = universe[id].table1;
    if (w < 0) continue;
    if (static_cast<size_t>(w) >= resolved.size() ||
        resolved[w].spec.name != wwt::Table1Workload()[w].name) {
      return q;
    }
    const wwt::ResolvedQuery& rq = resolved[w];
    wwt::EvalCase c;
    c.resolved = rq;
    c.query = ref.execution.query;
    c.retrieval = ref.execution.retrieval;
    std::set<wwt::TableId> candidates;
    for (const wwt::CandidateTable& t : c.retrieval.tables) {
      c.truth.push_back(wwt::TruthLabels(rq, TruthFor(set, t.table.id),
                                         t.num_cols));
      candidates.insert(t.table.id);
    }
    map_err.push_back(wwt::F1Error(
        wwt::EvalHarness::PredictedLabels(ref.execution.mapping), c.truth));
    answer_err.push_back(harness.AnswerError(c, ref.execution.mapping));
    for (size_t s = 0; s < set.num_shards(); ++s) {
      for (const auto& [tid, truth] : set.shard(s).corpus().truth) {
        const std::vector<int> labels = wwt::TruthLabels(
            rq, &truth, static_cast<int>(truth.column_semantics.size()));
        const bool relevant = std::any_of(
            labels.begin(), labels.end(),
            [](int l) { return l != wwt::kLabelNr; });
        if (!relevant) continue;
        relevant_total += 1;
        relevant_found += candidates.count(tid);
      }
    }
  }
  if (map_err.size() != resolved.size()) return q;
  q.map_error_pct = Mean(map_err);
  q.answer_error_pct = Mean(answer_err);
  q.candidate_recall_pct =
      relevant_total > 0 ? 100.0 * relevant_found / relevant_total : 0;
  q.ok = true;
  return q;
}

/// fresh_mixed's end check: a cold load of the last merged set plus a
/// replay of a copy of the journal serves the Table 1 queries
/// digest-identically to the live service. Returns mismatches (or -1
/// when the cold stack could not be built).
int FreshColdCheck(Run* run) {
  const std::string base_path = run->last_merged_path.empty()
                                    ? run->stack->corpus_path
                                    : run->last_merged_path;
  const std::string journal_copy = run->stack->dir + "/cold.wwtdlt";
  std::error_code ec;
  std::filesystem::copy_file(run->stack->journal_path, journal_copy,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) return -1;
  wwt::ServiceOptions options;
  options.num_threads = run->threads;
  wwt::StatusOr<std::unique_ptr<wwt::WwtService>> cold =
      wwt::WwtService::FromSnapshot(base_path, options);
  if (!cold.ok()) {
    std::fprintf(stderr, "servebench: cold load failed: %s\n",
                 cold.status().ToString().c_str());
    return -1;
  }
  wwt::Status st = (*cold)->EnableFreshness(journal_copy);
  if (!st.ok()) {
    std::fprintf(stderr, "servebench: journal replay failed: %s\n",
                 st.ToString().c_str());
    return -1;
  }
  std::vector<wwt::QueryRequest> requests;
  for (const Request& r : run->universe) {
    if (r.table1 >= 0) requests.push_back(wwt::QueryRequest::Of(r.columns));
  }
  wwt::BatchResponse live = run->stack->service->RunBatch(requests);
  wwt::BatchResponse replayed = (*cold)->RunBatch(requests);
  int mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!live.responses[i].ok() || !replayed.responses[i].ok() ||
        wwt::ResultDigest(live.responses[i]) !=
            wwt::ResultDigest(replayed.responses[i])) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void AddMetric(std::vector<Metric>* out, const std::string& name,
               double value, const std::string& unit) {
  out->push_back({name, value, unit});
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

StackOptions StackOptionsFor(const Run& run) {
  StackOptions options;
  options.dir = run.args.scratch + "/run-" + run.args.workload_name + "-" +
                std::to_string(getpid());
  options.threads = run.threads;
  switch (run.args.workload) {
    case Workload::kMapHeavy:
      break;
    case Workload::kFreshMixed:
      options.cache_bytes = kCacheBytes;
      options.freshness = true;
      break;
    case Workload::kRoutedRetrieval:
      options.threads = 2;
      options.workers = 2;
      break;
  }
  return options;
}

/// Brings the stack up `reps` times and records each set-up's timings.
/// With `serve`, the last stack is kept in run->stack to serve the
/// traffic; otherwise each is torn down again (in a directory of its
/// own, beside a serving stack that may still exist).
bool SetUp(Run* run, int reps, bool serve) {
  StackOptions options = StackOptionsFor(*run);
  if (!serve) options.dir += "-extra";
  for (int rep = 0; rep < reps; ++rep) {
    if (serve) run->stack.reset();
    wwt::StatusOr<std::unique_ptr<Stack>> stack = BringUp(options);
    if (!stack.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   stack.status().ToString().c_str());
      return false;
    }
    run->setup_s.push_back((*stack)->setup_s);
    run->build_ms.push_back((*stack)->build_ms);
    run->save_ms.push_back((*stack)->save_ms);
    run->open_ms.push_back((*stack)->open_ms);
    if (serve) run->stack = std::move(stack).value();
  }
  return true;
}

/// fresh_mixed, before its first write: the Table 1 answers the fresh
/// stack serves, which Verify checks against the serial reference on
/// the frozen base. The answer-quality figures are those reference
/// answers; this ties them to the program fresh_mixed serves.
void RecordFreshStartDigests(Run* run) {
  std::vector<wwt::QueryRequest> requests;
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < run->universe.size(); ++i) {
    if (run->universe[i].table1 < 0) continue;
    requests.push_back(wwt::QueryRequest::Of(run->universe[i].columns));
    ids.push_back(i);
  }
  wwt::BatchResponse batch = run->stack->service->RunBatch(requests);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (batch.responses[i].ok()) {
      run->fresh_start_digests[ids[i]] = DigestHash(batch.responses[i]);
    }
  }
}

/// fresh_mixed's write inputs: the source tables of a second generated
/// corpus, and the seeded mutation stream over the served one.
void MakeFreshInputs(const Run& run, std::vector<wwt::WebTable>* sources,
                     std::vector<Mutation>* mutations) {
  wwt::CorpusOptions source_options;
  source_options.seed = kSourceCorpusSeed;
  source_options.scale = kSourceCorpusScale;
  wwt::Corpus source = wwt::GenerateCorpus(source_options);
  for (wwt::TableId id = source.store.first_id(); id < source.store.end_id();
       ++id) {
    wwt::StatusOr<wwt::WebTable> t = source.store.Get(id);
    if (t.ok()) sources->push_back(std::move(t).value());
  }
  const wwt::CorpusSet& base = *run.stack->base;
  *mutations = MutationStream(run.args.seed, kWriteRate, run.windows.end,
                              base.shard(0).store().first_id(),
                              wwt::fresh::BaseEndId(base), sources->size());
}

/// The merge the daemon runs: fold the delta into a new set, and, when
/// tracing, re-attach the timing probes to it (a merge installs a new
/// corpus, which detaches them).
wwt::Status MergeAndReattach(Run* run, const std::string& merged_path) {
  std::lock_guard<std::mutex> lock(run->attach_mu);
  const Clock::time_point start = Clock::now();
  MergeSample m;
  m.window = run->windows.Of(run->Elapsed());
  wwt::Status st = run->stack->service->MergeDeltaToSet(merged_path);
  const Clock::time_point end = Clock::now();
  m.ms = std::chrono::duration<double, std::milli>(end - start).count();
  m.ok = st.ok();
  if (st.ok()) {
    run->last_merged_path = merged_path;
    if (run->tracing.load()) {
      AttachTimingProbes(run);
      Tracer& tr = run->tracer;
      tr.Record({tr.NewId(), tr.NewId(), 0, "fresh.merge", tr.Nanos(start),
                 tr.Nanos(end), 0});
    }
  }
  std::lock_guard<std::mutex> samples_lock(run->samples_mu);
  run->merges.push_back(m);
  return st;
}

/// Drives the workload's traffic through warm-up and the measured
/// window(s), then snapshots the counters the per-layer metrics diff.
/// Returns false when the peak-RSS mark cannot be reset.
bool DriveTraffic(Run* run) {
  std::vector<wwt::WebTable> sources;
  std::vector<Mutation> mutations;
  if (run->args.workload == Workload::kFreshMixed) {
    MakeFreshInputs(*run, &sources, &mutations);
    RecordFreshStartDigests(run);
  }
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "servebench: cannot reset the peak RSS mark through "
                 "/proc/self/clear_refs\n");
    return false;
  }
  run->rss_start_mb = StatusMb("VmRSS");
  std::unique_ptr<wwt::ThreadPool> merge_pool;
  std::unique_ptr<wwt::fresh::MergeDaemon> daemon;
  if (run->args.workload == Workload::kFreshMixed) {
    merge_pool = std::make_unique<wwt::ThreadPool>(1);
    const std::string merged_path = run->stack->dir + "/merged.wwtset";
    wwt::fresh::MergeDaemonOptions daemon_options;
    daemon_options.max_pending = kMergeMaxPending;
    daemon_options.max_age_seconds = 0;
    daemon_options.poll_interval_seconds = 0.005;
    daemon = std::make_unique<wwt::fresh::MergeDaemon>(
        run->stack->service->delta_shard().get(), merge_pool.get(),
        [run, merged_path] { return MergeAndReattach(run, merged_path); },
        daemon_options);
  }

  run->traffic_start = Clock::now();
  std::thread tracer_switch;
  if (run->args.trace) {
    tracer_switch = std::thread([run] {
      std::this_thread::sleep_until(run->At(run->windows.traced_start));
      std::lock_guard<std::mutex> lock(run->attach_mu);
      if (run->stack->service->cache_enabled()) {
        run->cache_at_traced_start = run->stack->service->cache_stats();
      }
      if (run->stack->remote != nullptr) {
        run->net_at_traced_start = run->stack->remote->ShardStats();
      }
      AttachTimingProbes(run);
      run->tracing.store(true);
    });
  }
  std::thread writer;
  if (run->args.workload == Workload::kFreshMixed) {
    writer = std::thread(
        [run, &mutations, &sources] { RunWriter(run, mutations, sources); });
  }
  const int collectors = run->args.trace ? run->threads : 1;
  switch (run->args.workload) {
    case Workload::kMapHeavy:
      RunClosedLoop(run, run->threads);
      break;
    case Workload::kRoutedRetrieval:
      RunClosedLoop(run, 2);
      break;
    case Workload::kFreshMixed:
      RunOpenLoop(run, kFreshReadRate, collectors);
      break;
  }
  if (writer.joinable()) writer.join();
  if (tracer_switch.joinable()) tracer_switch.join();
  if (daemon != nullptr) daemon->Stop();
  if (run->stack->service->cache_enabled()) {
    run->cache_at_end = run->stack->service->cache_stats();
  }
  if (run->stack->remote != nullptr) {
    run->net_at_end = run->stack->remote->ShardStats();
  }
  return true;
}

/// The outcome of the correctness checks.
struct Verdict {
  bool correct = true;
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;
  Quality quality;
  double lateness_p99_ms = 0;

  void Fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// Checks every measured response against the serial reference engine
/// (on fresh_mixed: the Table 1 answers served before the first write
/// against it, and at the end the cold-load + journal-replay
/// equivalence),
/// computes answer quality, and counts attempts and failures. A digest
/// mismatch counts as a failed request and makes the run incorrect.
Verdict Verify(Run* run) {
  Verdict v;
  std::set<uint32_t> table1;
  for (uint32_t i = 0; i < run->universe.size(); ++i) {
    if (run->universe[i].table1 >= 0) table1.insert(i);
  }
  std::vector<uint32_t> ref_ids(table1.begin(), table1.end());
  const bool check_digests = run->args.workload != Workload::kFreshMixed;
  if (check_digests) {
    std::set<uint32_t> served;
    for (const Sample& s : run->samples) {
      if (s.window > 0 && s.ok && !table1.count(s.request)) {
        served.insert(s.request);
      }
    }
    ref_ids.insert(ref_ids.end(), served.begin(), served.end());
  }
  const wwt::CorpusSet& base = *run->stack->base;
  std::map<uint32_t, Reference> refs = ReferencePass(
      base, run->universe, ref_ids, run->retrieval_only(), table1,
      run->threads);
  v.quality = ComputeQuality(base, run->universe, refs);
  if (!v.quality.ok) v.Fail("quality evaluation failed");
  size_t mismatched = 0, replay_mismatch = 0, request_failures = 0;
  std::vector<double> lateness;
  for (const Sample& s : run->samples) {
    if (s.window == 0) continue;
    ++v.attempted;
    lateness.push_back(s.lateness_ms);
    const bool mismatch =
        s.ok && check_digests && refs.at(s.request).digest != s.digest;
    mismatched += mismatch;
    replay_mismatch += s.mismatch;
    request_failures += !s.ok;
    v.failed += !s.ok || mismatch || s.mismatch;
  }
  bool write_failed = false, merge_failed = false;
  for (const WriteSample& w : run->writes) {
    write_failed |= !w.ok;
    if (w.window == 0) continue;
    ++v.attempted;
    v.failed += !w.ok;
  }
  for (const MergeSample& m : run->merges) merge_failed |= !m.ok;

  if (mismatched > 0) {
    v.Fail(std::to_string(mismatched) +
           " served digests differ from serial WwtEngine");
  }
  if (replay_mismatch > 0) {
    v.Fail(std::to_string(replay_mismatch) +
           " replays differ from the served response");
  }
  // Closed-loop requests carry no deadline: any failure is a bug.
  if (!run->open_loop() && request_failures > 0) {
    v.Fail(std::to_string(request_failures) + " requests failed");
  }
  if (write_failed) v.Fail("a mutation failed");
  if (merge_failed) v.Fail("a merge failed");
  if (run->args.workload == Workload::kFreshMixed) {
    size_t start_mismatches = 0;
    for (uint32_t id : table1) {
      auto it = run->fresh_start_digests.find(id);
      start_mismatches += it == run->fresh_start_digests.end() ||
                          it->second != refs.at(id).digest;
    }
    if (start_mismatches > 0) {
      v.Fail(std::to_string(start_mismatches) +
             " Table 1 answers of the fresh stack before its first write "
             "differ from serial WwtEngine");
    }
    const int cold = FreshColdCheck(run);
    if (cold != 0) {
      v.Fail("cold load + journal replay differs from the live service (" +
             std::to_string(cold) + ")");
    }
  }
  v.lateness_p99_ms = Percentile(lateness, 99);
  if (run->open_loop() && v.lateness_p99_ms > kMaxLatenessP99Ms) {
    v.Fail("generator fell behind its schedule");
  }
  return v;
}

std::vector<double> Latencies(const Run& run, int window) {
  std::vector<double> v;
  for (const Sample& s : run.samples) {
    if (s.window == window && s.ok) v.push_back(s.latency_ms);
  }
  return v;
}

/// The untraced window cut into `k` equal-time slices, each holding the
/// latencies of the successful requests that belong to it.
std::vector<std::vector<double>> Slices(const Run& run, int k) {
  std::vector<std::vector<double>> slices(k);
  const double begin = run.windows.warmup_end;
  const double length = (run.windows.traced_start - begin) / k;
  for (const Sample& s : run.samples) {
    if (s.window != 1 || !s.ok) continue;
    const int i = std::min(k - 1, static_cast<int>((s.at_s - begin) / length));
    slices[i].push_back(s.latency_ms);
  }
  return slices;
}

/// Median over slices of a per-slice statistic.
template <typename F>
double SliceMedian(const std::vector<std::vector<double>>& slices, F stat) {
  std::vector<double> v;
  for (const std::vector<double>& s : slices) v.push_back(stat(s));
  return Median(v);
}

/// The gated end-to-end metrics (untraced window). The host's share of
/// the CPU moves in bursts of seconds, so each timing is the median over
/// equal-time slices of the window rather than one pooled figure: a
/// burst that covers a slice or two no longer moves the result. `qps`
/// and `latency_p50_ms` use kSlices slices; `latency_p99_ms` uses as
/// many (up to kSlices) as keep 1,000 samples in each, so that every
/// slice's p99 still has ten samples beyond it.
std::vector<Metric> EndToEndMetrics(const Run& run, const Verdict& v,
                                    double rss_mb) {
  const size_t samples = Latencies(run, 1).size();
  const double slice_seconds =
      (run.windows.traced_start - run.windows.warmup_end) / kSlices;
  const std::vector<std::vector<double>> slices = Slices(run, kSlices);
  const int tail_slices = static_cast<int>(
      std::clamp<size_t>(samples / 1000, 1, kSlices));
  std::vector<Metric> m;
  AddMetric(&m, "setup_s", Median(run.setup_s), "s");
  AddMetric(&m, "qps",
            SliceMedian(slices,
                        [&](const std::vector<double>& s) {
                          return s.size() / slice_seconds;
                        }),
            "1/s");
  AddMetric(&m, "latency_p50_ms",
            SliceMedian(slices,
                        [](const std::vector<double>& s) {
                          return Percentile(s, 50);
                        }),
            "ms");
  AddMetric(&m, "latency_p99_ms",
            SliceMedian(Slices(run, tail_slices),
                        [](const std::vector<double>& s) {
                          return Percentile(s, 99);
                        }),
            "ms");
  AddMetric(&m, "rss_mb", rss_mb, "MB");
  AddMetric(&m, "map_error_pct", v.quality.map_error_pct, "%");
  AddMetric(&m, "answer_error_pct", v.quality.answer_error_pct, "%");
  AddMetric(&m, "candidate_recall_pct", v.quality.candidate_recall_pct,
            "%");
  return m;
}

/// End-to-end figures that are printed but not gated: they are zero on
/// some workload (a gated metric may never be), or they are sample
/// counts.
std::vector<Metric> DetailMetrics(const Run& run, const Verdict& v) {
  std::vector<Metric> m;
  AddMetric(&m, "samples", static_cast<double>(Latencies(run, 1).size()),
              "count");
  AddMetric(&m, "failed_pct",
              v.attempted > 0 ? 100.0 * v.failed / v.attempted : 0, "%");
  AddMetric(&m, "rss_at_traffic_start_mb", run.rss_start_mb, "MB");
  if (run.open_loop()) {
    AddMetric(&m, "generator_lateness_p99_ms", v.lateness_p99_ms, "ms");
  }
  if (run.args.workload == Workload::kFreshMixed) {
    std::vector<double> writes, merges;
    for (const WriteSample& w : run.writes) {
      if (w.window == 1 && w.ok) writes.push_back(w.latency_ms);
    }
    for (const MergeSample& s : run.merges) {
      if (s.window >= 1 && s.ok) merges.push_back(s.ms / 1e3);
    }
    AddMetric(&m, "write_p50_ms", Percentile(writes, 50), "ms");
    AddMetric(&m, "write_p99_ms", Percentile(writes, 99), "ms");
    AddMetric(&m, "write_samples", static_cast<double>(writes.size()),
                "count");
    AddMetric(&m, "merge_s", Median(merges), "s");
    AddMetric(&m, "merges", static_cast<double>(merges.size()), "count");
  }
  return m;
}

/// The per-layer metrics of the traced window, from the spans and the
/// counter deltas. Also prints the per-span self-time summary and writes
/// the spans out.
std::vector<Metric> LayerMetrics(Run* run) {
  const std::vector<Span> spans = run->tracer.spans();
  const std::map<std::string, LayerTotals> totals = SummarizeSpans(spans);
  auto spans_of = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.spans);
  };
  auto mean_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms / it->second.spans;
  };
  std::vector<const Sample*> traced, executed;
  for (const Sample& s : run->samples) {
    if (s.window != 2 || !s.ok) continue;
    traced.push_back(&s);
    if (!s.cached) executed.push_back(&s);
  }
  const double traced_seconds = run->windows.end - run->windows.traced_start;
  std::vector<Metric> m;

  // The whole stages, from each executed response's own StageTimer.
  std::vector<double> index_ms, read_ms, map_ms, consolidate_ms;
  for (const Sample* s : executed) {
    index_ms.push_back(s->served_index_ms);
    read_ms.push_back(s->served_read_ms);
    map_ms.push_back(s->served_map_ms);
    consolidate_ms.push_back(s->served_consolidate_ms);
  }

  // index
  std::set<uint64_t> probed_requests;
  double probe_calls = 0, probe_hits = 0;
  for (const Span& s : spans) {
    if (s.request != 0 && std::strcmp(s.name, "index.probe") == 0) {
      probed_requests.insert(s.request);
      probe_calls += 1;
      probe_hits += s.count;
    }
  }
  AddMetric(&m, "index.probe_ms", Mean(index_ms), "ms");
  AddMetric(&m, "index.probe_calls",
              probed_requests.empty() ? 0
                                      : probe_calls / probed_requests.size(),
              "count");
  AddMetric(&m, "index.probe_hits",
              probe_calls > 0 ? probe_hits / probe_calls : 0, "count");
  AddMetric(&m, "index.table_read_ms", Mean(read_ms), "ms");
  AddMetric(&m, "index.store_get_ms", mean_ms("index.store_get"), "ms");
  AddMetric(&m, "index.open_ms", Median(run->open_ms), "ms");
  AddMetric(&m, "index.save_ms", Median(run->save_ms), "ms");
  AddMetric(&m, "index.mapped_mb",
              run->stack->base->mapped_bytes() / 1048576.0, "MB");
  AddMetric(&m, "index.heap_mb", run->stack->base->heap_bytes() / 1048576.0,
              "MB");
  AddMetric(&m, "corpus.build_ms", Median(run->build_ms), "ms");

  // core
  AddMetric(&m, "core.parse_ms", mean_ms("core.parse"), "ms");
  AddMetric(&m, "core.candidate_build_ms", mean_ms("core.candidate_build"),
              "ms");
  AddMetric(&m, "core.quick_map_ms", mean_ms("core.quick_map"), "ms");
  AddMetric(&m, "core.potentials_ms", mean_ms("core.potentials"), "ms");
  AddMetric(&m, "core.edges_ms", mean_ms("core.edges"), "ms");
  double pairs = 0, kept = 0, second = 0, rows = 0;
  std::vector<double> candidates, from_probe2;
  for (const Sample* s : executed) {
    pairs += s->edge_pairs;
    kept += s->edges_kept;
    candidates.push_back(s->candidates);
    from_probe2.push_back(s->from_probe2);
    second += s->second_probe;
    rows += static_cast<double>(s->answer_rows);
  }
  const double edge_spans = spans_of("core.edges");
  AddMetric(&m, "core.edge_pairs", edge_spans ? pairs / edge_spans : 0,
              "count");
  AddMetric(&m, "core.edges_kept", edge_spans ? kept / edge_spans : 0,
              "count");
  AddMetric(&m, "core.edge_yield", pairs > 0 ? kept / pairs : 0, "ratio");
  // The served Column Map stage is the quick confidence pass plus the
  // full ColumnMapper::Map, which computes potentials and edges itself;
  // what the replayed quick map, potentials and edges do not explain is
  // inference (flow/ matching, gm/) and label assembly.
  const double served_map_ms = Mean(map_ms);
  AddMetric(&m, "core.map_ms", served_map_ms, "ms");
  AddMetric(&m, "core.inference_ms",
              edge_spans > 0 ? served_map_ms - mean_ms("core.quick_map") -
                                   mean_ms("core.potentials") -
                                   mean_ms("core.edges")
                             : 0,
              "ms");
  AddMetric(&m, "core.candidates", Mean(candidates), "count");
  AddMetric(&m, "core.candidates_probe2", Mean(from_probe2), "count");
  AddMetric(&m, "core.second_probe_rate",
              executed.empty() ? 0 : second / executed.size(), "ratio");

  // wwt
  std::vector<double> queue, exec, hit_ms;
  for (const Sample* s : traced) {
    queue.push_back(s->queue_ms);
    exec.push_back(s->execute_ms);
    if (s->cached) hit_ms.push_back(s->execute_ms);
  }
  AddMetric(&m, "wwt.queue_ms.p50", Percentile(queue, 50), "ms");
  AddMetric(&m, "wwt.queue_ms.p99", Percentile(queue, 99), "ms");
  AddMetric(&m, "wwt.execute_ms.p50", Percentile(exec, 50), "ms");
  AddMetric(&m, "wwt.execute_ms.p99", Percentile(exec, 99), "ms");
  AddMetric(&m, "wwt.consolidate_ms", Mean(consolidate_ms), "ms");
  AddMetric(&m, "wwt.answer_rows",
              executed.empty() ? 0 : rows / executed.size(), "count");

  // cache
  const wwt::ResponseCache::Stats& c0 = run->cache_at_traced_start;
  const wwt::ResponseCache::Stats& c1 = run->cache_at_end;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double coalesced = static_cast<double>(c1.coalesced - c0.coalesced);
  const double lookups = hits + (c1.misses - c0.misses) + coalesced;
  AddMetric(&m, "cache.hit_rate", lookups > 0 ? hits / lookups : 0,
              "ratio");
  AddMetric(&m, "cache.coalesced_rate",
              lookups > 0 ? coalesced / lookups : 0, "ratio");
  AddMetric(&m, "cache.hit_ms", Mean(hit_ms), "ms");
  AddMetric(&m, "cache.evictions_per_s",
              (c1.evictions - c0.evictions) / traced_seconds, "1/s");
  AddMetric(&m, "cache.bytes_mb", c1.bytes / 1048576.0, "MB");

  // fresh
  std::map<std::string, std::vector<double>> by_kind;
  std::vector<double> pending, journal, all_writes, merge_ms;
  for (const WriteSample& w : run->writes) {
    if (w.window != 2 || !w.ok) continue;
    const bool override_kind = w.kind == MutationKind::kOverrideTitle ||
                               w.kind == MutationKind::kOverrideContext;
    by_kind[override_kind ? "override" : MutationKindName(w.kind)].push_back(
        w.latency_ms);
    all_writes.push_back(w.latency_ms);
    pending.push_back(w.pending);
    if (w.journal_bytes >= 0) journal.push_back(w.journal_bytes);
  }
  for (const MergeSample& s : run->merges) {
    if (s.window == 2 && s.ok) merge_ms.push_back(s.ms);
  }
  AddMetric(&m, "fresh.add_ms", Percentile(by_kind["add"], 50), "ms");
  AddMetric(&m, "fresh.update_ms", Percentile(by_kind["update"], 50), "ms");
  AddMetric(&m, "fresh.override_ms", Percentile(by_kind["override"], 50),
              "ms");
  AddMetric(&m, "fresh.tombstone_ms", Percentile(by_kind["tombstone"], 50),
              "ms");
  AddMetric(&m, "fresh.write_p50_ms", Percentile(all_writes, 50), "ms");
  AddMetric(&m, "fresh.write_p99_ms", Percentile(all_writes, 99), "ms");
  AddMetric(&m, "fresh.pending_at_write", Mean(pending), "count");
  AddMetric(&m, "fresh.journal_bytes_per_write", Mean(journal), "B");
  AddMetric(&m, "fresh.merge_ms", Mean(merge_ms), "ms");
  AddMetric(&m, "fresh.merges", static_cast<double>(merge_ms.size()),
              "count");
  AddMetric(&m, "fresh.purged_entries",
              static_cast<double>(c1.stale_purged - c0.stale_purged), "count");
  AddMetric(&m, "fresh.delta_probe_ms", mean_ms("fresh.delta_probe"), "ms");

  // net: on the routed workload the timed probes are the router's RPCs.
  const double rtt =
      run->stack->remote != nullptr ? mean_ms("index.probe") : 0;
  const double worker = mean_ms("net.worker_search");
  AddMetric(&m, "net.probe_rtt_ms", rtt, "ms");
  AddMetric(&m, "net.worker_search_ms", worker, "ms");
  AddMetric(&m, "net.wire_ms", rtt > 0 ? rtt - worker : 0, "ms");
  wwt::net::RemoteShardStats net;
  for (size_t s = 0; s < run->net_at_end.size(); ++s) {
    const wwt::net::RemoteShardStats& a = run->net_at_traced_start[s];
    const wwt::net::RemoteShardStats& b = run->net_at_end[s];
    net.probes += b.probes - a.probes;
    net.failures += b.failures - a.failures;
    net.hedges += b.hedges - a.hedges;
    net.reconnects += b.reconnects - a.reconnects;
  }
  AddMetric(&m, "net.probes", static_cast<double>(net.probes), "count");
  AddMetric(&m, "net.failures", static_cast<double>(net.failures), "count");
  AddMetric(&m, "net.hedges", static_cast<double>(net.hedges), "count");
  AddMetric(&m, "net.reconnects", static_cast<double>(net.reconnects),
              "count");

  // trace
  const double p50_untraced = Percentile(Latencies(*run, 1), 50);
  AddMetric(&m, "trace.overhead_pct",
              p50_untraced > 0
                  ? 100.0 *
                        (Percentile(Latencies(*run, 2), 50) - p50_untraced) /
                        p50_untraced
                  : 0,
              "%");
  // How much of the served execute time the engine's stages explain;
  // the rest is parse and the service's own work around the engine.
  std::vector<double> staged, served_exec;
  for (const Sample* s : executed) {
    staged.push_back(s->served_index_ms + s->served_read_ms +
                     s->served_map_ms + s->served_consolidate_ms);
    served_exec.push_back(s->execute_ms);
  }
  AddMetric(&m, "trace.accounted_pct",
              served_exec.empty()
                  ? 0
                  : 100.0 * Median(staged) / Median(served_exec),
              "%");
  AddMetric(&m, "trace.spans", static_cast<double>(spans.size()), "count");

  std::printf("\n%-24s %8s %12s\n", "served stage", "requests",
              "mean_ms");
  for (const auto& [name, v] :
       {std::make_pair("index probes", &index_ms),
        std::make_pair("table reads", &read_ms),
        std::make_pair("column map", &map_ms),
        std::make_pair("consolidate", &consolidate_ms)}) {
    std::printf("%-24s %8zu %12.3f\n", name, v->size(), Mean(*v));
  }
  std::printf("\n%-24s %8s %12s %12s %12s\n", "span", "spans", "total_ms",
              "self_ms", "count");
  for (const auto& [name, t] : totals) {
    std::printf("%-24s %8llu %12.3f %12.3f %12.0f\n", name.c_str(),
                static_cast<unsigned long long>(t.spans), t.total_ms,
                t.self_ms, t.count);
  }
  std::error_code ec;
  std::filesystem::create_directories(run->args.scratch + "/traces", ec);
  const std::string path = run->args.scratch + "/traces/" +
                           run->args.workload_name + "-seed" +
                           std::to_string(run->args.seed) + ".jsonl";
  if (WriteSpans(path, spans)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "servebench: could not write %s\n", path.c_str());
  }
  return m;
}

/// The result line: the end-to-end metrics untraced, the per-layer ones
/// traced.
std::string ResultJson(const Verdict& v, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += v.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(v.attempted);
  json += ", \"failed\": " + std::to_string(v.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  return json;
}

int Main(int argc, char** argv) {
  Run run;
  std::string error;
  if (!ParseArgs(argc, argv, &run.args, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  if (!OptimizedBuild(&error)) {
    std::fprintf(stderr,
                 "servebench: refusing to time this build (%s); build type "
                 "%s\n",
                 error.c_str(), SERVEBENCH_BUILD_TYPE);
    return 2;
  }
  wwt::SetLogLevel(wwt::LogLevel::kWarning);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  run.threads = std::min(4, nproc);
  run.universe = RequestUniverse();
  run.windows.warmup_end = kWarmupSeconds;
  run.windows.end = kWarmupSeconds + run.args.seconds;
  run.windows.traced_start = run.args.trace
                                 ? kWarmupSeconds + run.args.seconds / 2
                                 : run.windows.end;
  run.tracer.set_keep_probe_calls(run.args.workload ==
                                  Workload::kRoutedRetrieval);
  std::printf("servebench: workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s nproc=%d threads=%d requests=%zu\n",
              run.args.workload_name.c_str(),
              static_cast<unsigned long long>(run.args.seed),
              run.args.seconds, run.args.trace ? 1 : 0,
              SERVEBENCH_BUILD_TYPE, nproc, run.threads,
              run.universe.size());

  if (!SetUp(&run, kSetupRepsBefore, /*serve=*/true)) return 1;
  if (!DriveTraffic(&run)) return 1;
  const double rss_mb = StatusMb("VmHWM");
  const Verdict verdict = Verify(&run);
  if (!SetUp(&run, kSetupRepsAfter, /*serve=*/false)) return 1;

  const std::vector<Metric> e2e = EndToEndMetrics(run, verdict, rss_mb);
  const std::vector<Metric> details = DetailMetrics(run, verdict);
  const std::vector<Metric> layers =
      run.args.trace ? LayerMetrics(&run) : std::vector<Metric>{};
  std::printf("\n");
  for (const auto* list : {&e2e, &details, &layers}) {
    for (const Metric& m : *list) {
      std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("set-ups (s):");
  for (double t : run.setup_s) std::printf(" %.3f", t);
  std::printf("\nslice p50 (ms):");
  for (const std::vector<double>& s : Slices(run, kSlices)) {
    std::printf(" %.2f", Percentile(s, 50));
  }
  std::printf("\n");
  for (const std::string& p : verdict.problems) {
    std::printf("INCORRECT: %s\n", p.c_str());
  }
  run.stack.reset();
  std::printf("%s\n",
              ResultJson(verdict, run.args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
