// Copyright 2026 The WWT Authors

#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <set>

#include "corpus/workload.h"

namespace servebench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t Rng::Below(uint64_t n) {
  // Rejection sampling keeps the draw unbiased for every n.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % n;
}

double Rng::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

uint64_t StreamSeed(uint64_t seed, const char* purpose) {
  // FNV-1a over the purpose, folded with the run seed through one
  // splitmix64 step.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = purpose; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  Rng rng(seed ^ h);
  return rng.Next();
}

namespace {

/// Lowercased, whitespace-collapsed columns joined by a separator no
/// keyword contains: the identity under which two requests would share
/// a response.
std::string CanonicalKey(const std::vector<std::string>& columns) {
  std::string key;
  for (const std::string& col : columns) {
    bool space = false;
    bool any = false;
    for (char c : col) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        space = any;
        continue;
      }
      if (space) key += ' ';
      space = false;
      any = true;
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    key += '\x1f';
  }
  return key;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

}  // namespace

std::vector<Request> RequestUniverse() {
  std::vector<Request> out;
  std::set<std::string> seen;
  const std::vector<wwt::QuerySpec>& workload = wwt::Table1Workload();
  for (size_t w = 0; w < workload.size(); ++w) {
    const wwt::QuerySpec& spec = workload[w];
    const int q = spec.q();
    for (int mask = 1; mask < (1 << q); ++mask) {
      std::vector<int> idx;
      for (int i = 0; i < q; ++i) {
        if (mask & (1 << i)) idx.push_back(i);
      }
      do {
        Request r;
        for (int i : idx) r.columns.push_back(spec.columns[i].keywords);
        if (!seen.insert(CanonicalKey(r.columns)).second) continue;
        if (mask == (1 << q) - 1 && std::is_sorted(idx.begin(), idx.end())) {
          r.table1 = static_cast<int>(w);
        }
        out.push_back(std::move(r));
      } while (std::next_permutation(idx.begin(), idx.end()));
    }
  }
  return out;
}

std::vector<uint32_t> ClosedLoopOrder(uint64_t seed, size_t n,
                                      size_t passes) {
  Rng rng(StreamSeed(seed, "closed-loop-order"));
  std::vector<uint32_t> out;
  out.reserve(n * passes);
  std::vector<uint32_t> pass(n);
  for (size_t p = 0; p < passes; ++p) {
    for (size_t i = 0; i < n; ++i) pass[i] = static_cast<uint32_t>(i);
    Shuffle(&pass, &rng);
    out.insert(out.end(), pass.begin(), pass.end());
  }
  return out;
}

std::vector<uint32_t> ZipfMix(uint64_t seed, size_t n, double s,
                              size_t count) {
  std::vector<double> weight(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    total += weight[r];
  }
  // Largest remainder: floor every expected count, then hand the
  // leftover draws to the largest fractional parts (ties by rank).
  std::vector<size_t> copies(n);
  std::vector<std::pair<double, size_t>> remainders(n);
  size_t assigned = 0;
  for (size_t r = 0; r < n; ++r) {
    const double expected = count * weight[r] / total;
    copies[r] = static_cast<size_t>(expected);
    assigned += copies[r];
    remainders[r] = {-(expected - copies[r]), r};
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t i = 0; assigned < count; ++i, ++assigned) {
    ++copies[remainders[i % n].second];
  }

  std::vector<uint32_t> request_of_rank(n);
  for (size_t i = 0; i < n; ++i) request_of_rank[i] = static_cast<uint32_t>(i);
  Rng ranking(StreamSeed(0, "zipf-popularity"));
  Shuffle(&request_of_rank, &ranking);

  std::vector<uint32_t> mix;
  mix.reserve(count);
  for (size_t r = 0; r < n; ++r) {
    mix.insert(mix.end(), copies[r], request_of_rank[r]);
  }
  Rng order(StreamSeed(seed, "zipf-order"));
  Shuffle(&mix, &order);
  return mix;
}

std::vector<Arrival> OpenLoopSchedule(uint64_t seed, size_t n, double rate,
                                      double seconds, double zipf_s) {
  Rng gaps(StreamSeed(seed, "arrival-gaps"));
  std::vector<double> due;
  for (double t = gaps.Exponential(rate); t < seconds;
       t += gaps.Exponential(rate)) {
    due.push_back(t);
  }
  const std::vector<uint32_t> mix = ZipfMix(seed, n, zipf_s, due.size());
  std::vector<Arrival> out(due.size());
  for (size_t i = 0; i < due.size(); ++i) out[i] = {due[i], mix[i]};
  return out;
}

const char* MutationKindName(MutationKind kind) {
  switch (kind) {
    case MutationKind::kAdd:
      return "add";
    case MutationKind::kUpdate:
      return "update";
    case MutationKind::kOverrideTitle:
      return "override-title";
    case MutationKind::kOverrideContext:
      return "override-context";
    case MutationKind::kTombstone:
      return "tombstone";
  }
  return "?";
}

std::vector<Mutation> MutationStream(uint64_t seed, double rate,
                                     double seconds, uint64_t first_id,
                                     uint64_t end_id, size_t num_sources) {
  Rng rng(StreamSeed(seed, "mutations"));
  std::vector<uint64_t> live;
  for (uint64_t id = first_id; id < end_id; ++id) live.push_back(id);
  uint64_t next_id = end_id;
  const size_t count = static_cast<size_t>(std::floor(rate * seconds));
  std::vector<Mutation> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Mutation m;
    m.due_s = static_cast<double>(i) / rate;
    const uint64_t roll = rng.Below(100);
    if (roll < 35 || live.empty()) {
      m.kind = MutationKind::kAdd;
      m.target = next_id++;
      m.source = static_cast<uint32_t>(rng.Below(num_sources));
      live.push_back(m.target);
    } else {
      const size_t pick = rng.Below(live.size());
      m.target = live[pick];
      if (roll < 60) {
        m.kind = MutationKind::kUpdate;
        m.source = static_cast<uint32_t>(rng.Below(num_sources));
      } else if (roll < 85) {
        m.kind = (roll < 73) ? MutationKind::kOverrideTitle
                             : MutationKind::kOverrideContext;
        m.text = (m.kind == MutationKind::kOverrideTitle ? "revised title "
                                                         : "revised context ") +
                 std::to_string(i);
      } else {
        m.kind = MutationKind::kTombstone;
        live[pick] = live.back();
        live.pop_back();
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::string StreamBytes(const std::vector<uint32_t>& order) {
  std::string out;
  for (uint32_t v : order) PutU64(&out, v);
  return out;
}

std::string StreamBytes(const std::vector<Arrival>& arrivals) {
  std::string out;
  for (const Arrival& a : arrivals) {
    PutF64(&out, a.due_s);
    PutU64(&out, a.request);
  }
  return out;
}

std::string StreamBytes(const std::vector<Mutation>& mutations) {
  std::string out;
  for (const Mutation& m : mutations) {
    PutF64(&out, m.due_s);
    out.push_back(static_cast<char>(m.kind));
    PutU64(&out, m.target);
    PutU64(&out, m.source);
    PutU64(&out, m.text.size());
    out += m.text;
  }
  return out;
}

}  // namespace servebench
