// Copyright 2026 The WWT Authors

#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace servebench {

namespace {

std::string JoinPrefix(const std::vector<std::string>& words, size_t n) {
  std::string key;
  for (size_t i = 0; i < n; ++i) {
    key += words[i];
    key += '\x1f';
  }
  return key;
}

/// Nanoseconds of [lo, hi) covered by the union of `intervals`.
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

uint64_t Tracer::NewId() {
  wwt::MutexLock lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  wwt::MutexLock lock(mu_);
  spans_.push_back(span);
}

void Tracer::RecordProbeCall(ProbeCall call) {
  wwt::MutexLock lock(mu_);
  const uint64_t request = call.request;
  probe_calls_.emplace(request, std::move(call));
}

void Tracer::Register(const std::vector<std::string>& columns,
                      uint64_t request, uint64_t execute_span) {
  std::string key = JoinPrefix(columns, columns.size());
  wwt::MutexLock lock(mu_);
  inflight_.emplace(std::move(key), std::make_pair(request, execute_span));
}

void Tracer::Unregister(const std::vector<std::string>& columns,
                        uint64_t request) {
  const std::string key = JoinPrefix(columns, columns.size());
  wwt::MutexLock lock(mu_);
  auto [lo, hi] = inflight_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.first == request) {
      inflight_.erase(it);
      return;
    }
  }
}

std::pair<uint64_t, uint64_t> Tracer::Lookup(
    const std::vector<std::string>& keywords) const {
  wwt::MutexLock lock(mu_);
  for (size_t n = keywords.size(); n > 0; --n) {
    auto it = inflight_.find(JoinPrefix(keywords, n));
    if (it != inflight_.end()) return it->second;
  }
  return {0, 0};
}

std::vector<Span> Tracer::spans() const {
  wwt::MutexLock lock(mu_);
  return spans_;
}

std::vector<ProbeCall> Tracer::TakeProbeCalls(uint64_t request) {
  wwt::MutexLock lock(mu_);
  std::vector<ProbeCall> out;
  auto [lo, hi] = probe_calls_.equal_range(request);
  for (auto it = lo; it != hi; ++it) out.push_back(std::move(it->second));
  probe_calls_.erase(lo, hi);
  return out;
}

wwt::StatusOr<std::vector<wwt::ScoredDoc>> LocalProbe::Search(
    const std::vector<std::string>& keywords, int k, wwt::ProbeScorer scorer,
    std::chrono::steady_clock::time_point) const {
  return set_->shard(shard_).index().Search(keywords, k, scorer);
}

wwt::StatusOr<std::vector<wwt::ScoredDoc>> TimingProbe::Search(
    const std::vector<std::string>& keywords, int k, wwt::ProbeScorer scorer,
    std::chrono::steady_clock::time_point deadline) const {
  const auto [request, parent] = tracer_->Lookup(keywords);
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name_;
  span.id = tracer_->NewId();
  span.start_ns = tracer_->Now();
  wwt::StatusOr<std::vector<wwt::ScoredDoc>> hits =
      inner_->Search(keywords, k, scorer, deadline);
  span.end_ns = tracer_->Now();
  span.count = hits.ok() ? static_cast<double>(hits->size()) : 0;
  tracer_->Record(span);
  if (tracer_->keep_probe_calls() && request != 0) {
    tracer_->RecordProbeCall({request, span.id, shard_, k, scorer, keywords});
  }
  return hits;
}

std::map<std::string, LayerTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    LayerTotals& t = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      covered = CoveredNanos(it->second, s.start_ns, s.end_ns);
    }
    ++t.spans;
    t.total_ms += dur * 1e-6;
    t.self_ms += (dur - covered) * 1e-6;
    t.count += s.count;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\":%llu,\"id\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"count\":%.17g}\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 s.start_ns * 1e-3, s.end_ns * 1e-3, s.count);
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
