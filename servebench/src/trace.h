// Copyright 2026 The WWT Authors
//
// In-memory span recording for the traced run. Spans are recorded only
// from the benchmark's own files, around calls into each layer's public
// functions: the library itself carries no tracing. Every span has a
// request id shared by all spans of one request, its own id and the id
// of the span that caused it (0 for a root). Spans stay in memory until
// the run ends and are then written out as JSON lines.
//
// Two sources feed it:
//   * TimingProbe, a ShardProbe decorator attached through
//     WwtService::AttachRemoteProbes, times every per-shard index probe
//     on the serving path itself;
//   * the replay in main.cc re-runs the sub-stages of a served response
//     that the engine's own stage timer does not split out (parse,
//     table reads, candidate build, quick map, potentials, edges) on
//     that response's own candidate set.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/corpus_set.h"
#include "util/thread_annotations.h"

namespace servebench {

struct Span {
  uint64_t request = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  /// A string literal (spans never own their name).
  const char* name = "";
  /// Nanoseconds since the tracer started.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Work the span did, as a count (hits returned, candidates built,
  /// edges kept, ...); 0 when not meaningful.
  double count = 0;
};

/// One per-shard probe seen by TimingProbe, kept so the routed replay
/// can time the worker-side search on the same keywords.
struct ProbeCall {
  uint64_t request = 0;
  uint64_t span = 0;
  size_t shard = 0;
  int k = 0;
  wwt::ProbeScorer scorer = wwt::ProbeScorer::kWand;
  std::vector<std::string> keywords;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : start_(Clock::now()) {}

  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start_)
        .count();
  }
  int64_t Now() const { return Nanos(Clock::now()); }

  uint64_t NewId() WWT_EXCLUDES(mu_);
  void Record(const Span& span) WWT_EXCLUDES(mu_);
  void RecordProbeCall(ProbeCall call) WWT_EXCLUDES(mu_);

  /// The in-flight registry that lets a probe, which runs on a pool
  /// worker the benchmark does not control, find the request it serves:
  /// a probe's keywords start with the request's columns (the second
  /// probe appends sampled rows), so the longest registered prefix
  /// names the request. Register before Submit, Unregister after the
  /// response arrives.
  void Register(const std::vector<std::string>& columns, uint64_t request,
                uint64_t execute_span) WWT_EXCLUDES(mu_);
  void Unregister(const std::vector<std::string>& columns, uint64_t request)
      WWT_EXCLUDES(mu_);
  /// {request, execute span} of the probe's request; {0, 0} if none.
  std::pair<uint64_t, uint64_t> Lookup(
      const std::vector<std::string>& keywords) const WWT_EXCLUDES(mu_);

  std::vector<Span> spans() const WWT_EXCLUDES(mu_);
  /// Removes and returns the probe calls recorded for `request`.
  std::vector<ProbeCall> TakeProbeCalls(uint64_t request) WWT_EXCLUDES(mu_);
  /// Keep keywords of every probe call (the routed worker replay).
  void set_keep_probe_calls(bool keep) { keep_probe_calls_ = keep; }
  bool keep_probe_calls() const { return keep_probe_calls_; }

 private:
  const Clock::time_point start_;
  bool keep_probe_calls_ = false;
  mutable wwt::Mutex mu_;
  uint64_t next_id_ WWT_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ WWT_GUARDED_BY(mu_);
  std::multimap<uint64_t, ProbeCall> probe_calls_ WWT_GUARDED_BY(mu_);
  /// Joined columns -> in-flight {request, execute span}, oldest first.
  std::multimap<std::string, std::pair<uint64_t, uint64_t>> inflight_
      WWT_GUARDED_BY(mu_);
};

/// RAII span: records [construction, destruction) under `parent`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint64_t request, uint64_t parent,
             const char* name)
      : tracer_(tracer) {
    span_.request = request;
    span_.parent = parent;
    span_.name = name;
    span_.id = tracer->NewId();
    span_.start_ns = tracer->Now();
  }
  ~ScopedSpan() {
    span_.end_ns = tracer_->Now();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void set_count(double c) { span_.count = c; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// The in-process probe: TableIndex::Search behind the ShardProbe seam,
/// so local shards can be timed by the same decorator as remote ones.
class LocalProbe : public wwt::ShardProbe {
 public:
  /// Probes shard `shard` of `set`, which the probe keeps alive.
  LocalProbe(std::shared_ptr<const wwt::CorpusSet> set, size_t shard)
      : set_(std::move(set)), shard_(shard) {}
  wwt::StatusOr<std::vector<wwt::ScoredDoc>> Search(
      const std::vector<std::string>& keywords, int k, wwt::ProbeScorer scorer,
      std::chrono::steady_clock::time_point deadline) const override;

 private:
  std::shared_ptr<const wwt::CorpusSet> set_;
  size_t shard_;
};

/// Times every Search of `inner` as a span named `name` under the
/// request the keywords belong to.
class TimingProbe : public wwt::ShardProbe {
 public:
  TimingProbe(std::shared_ptr<const wwt::ShardProbe> inner, Tracer* tracer,
              size_t shard, const char* name)
      : inner_(std::move(inner)), tracer_(tracer), shard_(shard),
        name_(name) {}
  wwt::StatusOr<std::vector<wwt::ScoredDoc>> Search(
      const std::vector<std::string>& keywords, int k, wwt::ProbeScorer scorer,
      std::chrono::steady_clock::time_point deadline) const override;

 private:
  std::shared_ptr<const wwt::ShardProbe> inner_;
  Tracer* tracer_;
  size_t shard_;
  const char* name_;
};

/// Per span name: how many, total duration, and self time (duration
/// minus the part of its interval that its children cover).
struct LayerTotals {
  uint64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
  double count = 0;
};
std::map<std::string, LayerTotals> SummarizeSpans(
    const std::vector<Span>& spans);

/// Writes one JSON object per span.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
