// Copyright 2026 The WWT Authors
//
// Brings a real serving stack up through the public API, the way an
// operator would: generate the corpus, freeze it to a v4 snapshot (or a
// 2-shard set), OpenCorpus it, create the WwtService, and then attach
// what the workload needs — in-process ShardServer workers behind a
// RemoteProbeSet, or freshness with an on-disk journal. The time from
// the first step to a servable service is the benchmark's setup_s.

#ifndef SERVEBENCH_STACK_H_
#define SERVEBENCH_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "index/corpus_set.h"
#include "net/shard_client.h"
#include "net/shard_server.h"
#include "wwt/service.h"

namespace servebench {

/// The fixed corpus every workload serves: seed 42, scale 1.
wwt::CorpusOptions BenchCorpusOptions();

struct StackOptions {
  /// Scratch directory for the snapshot, journal and sockets (created;
  /// removed again when the stack is destroyed).
  std::string dir;
  /// Request pool width.
  int threads = 1;
  /// Response cache budget; 0 = cache off.
  size_t cache_bytes = 0;
  /// Partition into this many shards served by in-process workers over
  /// unix sockets (0 = one in-process shard).
  int workers = 0;
  /// Enable freshness with a journal in `dir`.
  bool freshness = false;
};

struct Stack {
  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::string dir;
  /// The artifact OpenCorpus loaded and the set it produced (the frozen
  /// base; the service's own corpus moves on after a freshness merge).
  std::string corpus_path;
  std::shared_ptr<const wwt::CorpusSet> base;
  std::string journal_path;
  std::vector<std::unique_ptr<wwt::net::ShardServer>> workers;
  std::unique_ptr<wwt::net::RemoteProbeSet> remote;
  std::unique_ptr<wwt::WwtService> service;

  /// Set-up timings, milliseconds.
  double build_ms = 0;
  double save_ms = 0;
  double open_ms = 0;
  double setup_s = 0;
};

/// Builds a stack; a failing step is returned as its Status.
wwt::StatusOr<std::unique_ptr<Stack>> BringUp(const StackOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_STACK_H_
