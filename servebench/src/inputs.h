// Copyright 2026 The WWT Authors
//
// The benchmark's seeded input generator. Everything a run feeds the
// serving stack — the request universe, the closed-loop pass order, the
// open-loop arrival schedule with its Zipf draws, and the mutation
// stream — is a pure function of (seed, workload shape) computed here.
// The program under test only ever receives these outputs.
//
// The generator draws from its own splitmix64 stream and its own
// distributions rather than the library's util/random.h or <random>'s
// implementation-defined distributions, so two commits compared with
// the same benchmark code see byte-identical inputs.

#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// splitmix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Exponential inter-arrival gap for a Poisson process of `rate` per
  /// second.
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for one purpose of one run, so
/// e.g. the arrival stream and the mutation stream never correlate.
uint64_t StreamSeed(uint64_t seed, const char* purpose);

/// One request of the universe: a column-keyword list.
struct Request {
  std::vector<std::string> columns;
  /// Index into wwt::Table1Workload() when this is a Table 1 query in
  /// its original column order; -1 otherwise.
  int table1 = -1;
};

/// Every ordered, non-empty column subset of the 59 Table 1 queries,
/// keeping the first occurrence of each canonical key (a subset such as
/// {"country"} recurs across queries and would share one fingerprint).
/// Stable order: workload order, then subset mask, then permutation.
std::vector<Request> RequestUniverse();

/// `passes` concatenated seeded shuffles of [0, n): each pass serves
/// every request exactly once.
std::vector<uint32_t> ClosedLoopOrder(uint64_t seed, size_t n, size_t passes);

/// The request mix of `count` Zipf(s) draws over n requests, in a
/// seeded order. Popularity follows one fixed ranking of the requests,
/// and each request appears its expected number of times (largest
/// remainder rounding) rather than a sampled number. Both choices keep
/// the mix itself out of the seed: which requests are hot decides what
/// a hit copies and what a miss maps, and a p99 over a few hundred
/// misses would otherwise move with how many expensive requests a seed
/// happened to draw. The seed decides the order and the arrival times.
std::vector<uint32_t> ZipfMix(uint64_t seed, size_t n, double s,
                              size_t count);

/// One open-loop arrival: when it is due (seconds after the schedule
/// starts) and which request it sends.
struct Arrival {
  double due_s = 0;
  uint32_t request = 0;
};

/// Poisson arrivals at `rate` per second over `seconds`, carrying the
/// ZipfMix of `n` requests.
std::vector<Arrival> OpenLoopSchedule(uint64_t seed, size_t n, double rate,
                                      double seconds, double zipf_s);

enum class MutationKind : uint8_t {
  kAdd = 1,
  kUpdate = 2,
  kOverrideTitle = 3,
  kOverrideContext = 4,
  kTombstone = 5,
};

const char* MutationKindName(MutationKind kind);

/// One write of the mutation stream.
struct Mutation {
  /// Seconds after the stream starts (fixed-rate, so i / rate).
  double due_s = 0;
  MutationKind kind = MutationKind::kAdd;
  /// The table written: for kAdd the id the delta will allocate (adds
  /// are sequential), otherwise a live table id.
  uint64_t target = 0;
  /// Index into the source-table pool for kAdd / kUpdate content.
  uint32_t source = 0;
  /// Replacement text for the override kinds.
  std::string text;
};

/// A fixed-rate stream of `rate * seconds` mutations over a corpus whose
/// frozen ids are [first_id, end_id). The generator tracks which ids are
/// live (frozen + added - tombstoned) so every write is valid: updates,
/// overrides and tombstones only ever target live ids, and nothing is
/// tombstoned twice. Op mix: 35% add, 25% update, 25% override (title or
/// context), 15% tombstone.
std::vector<Mutation> MutationStream(uint64_t seed, double rate,
                                     double seconds, uint64_t first_id,
                                     uint64_t end_id, size_t num_sources);

/// Canonical bytes of each stream (what the determinism test compares).
std::string StreamBytes(const std::vector<uint32_t>& order);
std::string StreamBytes(const std::vector<Arrival>& arrivals);
std::string StreamBytes(const std::vector<Mutation>& mutations);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
