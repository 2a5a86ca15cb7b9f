// Copyright 2026 The WWT Authors

#include "stack.h"

#include <filesystem>
#include <system_error>

#include "index/snapshot.h"
#include "util/timer.h"

namespace servebench {

wwt::CorpusOptions BenchCorpusOptions() {
  wwt::CorpusOptions options;
  options.seed = 42;
  options.scale = 1.0;
  return options;
}

Stack::~Stack() {
  // The service may hold probes into the remote set, and the remote set
  // connections into the workers: tear down front to back.
  service.reset();
  remote.reset();
  for (auto& worker : workers) worker->Stop();
  workers.clear();
  base.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

wwt::StatusOr<std::unique_ptr<Stack>> BringUp(const StackOptions& options) {
  auto stack = std::make_unique<Stack>();
  stack->dir = options.dir;
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  if (!std::filesystem::create_directories(options.dir, ec) || ec) {
    return wwt::Status::IOError("cannot create ", options.dir);
  }

  wwt::WallTimer total;
  const wwt::CorpusOptions corpus_options = BenchCorpusOptions();
  {
    wwt::WallTimer t;
    wwt::Corpus corpus = wwt::GenerateCorpus(corpus_options);
    stack->build_ms = t.ElapsedMillis();
    t.Restart();
    if (options.workers > 0) {
      stack->corpus_path = options.dir + "/corpus.wwtset";
      WWT_RETURN_NOT_OK(wwt::SaveShardedSnapshot(
          corpus, corpus_options, stack->corpus_path, options.workers));
    } else {
      stack->corpus_path = options.dir + "/corpus.wwtsnap";
      WWT_RETURN_NOT_OK(
          wwt::SaveSnapshot(corpus, corpus_options, stack->corpus_path));
    }
    stack->save_ms = t.ElapsedMillis();
  }

  wwt::WallTimer t;
  WWT_ASSIGN_OR_RETURN(wwt::OpenCorpusResult opened,
                       wwt::OpenCorpus(stack->corpus_path));
  stack->open_ms = t.ElapsedMillis();
  stack->base = opened.corpus;

  wwt::ServiceOptions service_options;
  service_options.num_threads = options.threads;
  service_options.cache.capacity_bytes = options.cache_bytes;
  WWT_ASSIGN_OR_RETURN(stack->service,
                       wwt::WwtService::Create(std::move(service_options)));
  stack->service->SwapCorpus(stack->base);

  if (options.workers > 0) {
    std::vector<std::vector<std::string>> endpoints;
    for (size_t s = 0; s < stack->base->num_shards(); ++s) {
      wwt::net::ShardServerOptions server_options;
      // Relative to the working directory: unix socket paths are capped
      // at ~100 bytes and the checkout path may be long.
      server_options.listen =
          "unix:" + options.dir + "/worker-" + std::to_string(s) + ".sock";
      WWT_ASSIGN_OR_RETURN(
          std::unique_ptr<wwt::net::ShardServer> server,
          wwt::net::ShardServer::Start(
              wwt::CorpusSet::FromHandle(stack->base->shard_handle(s)),
              server_options));
      endpoints.push_back({server->address()});
      stack->workers.push_back(std::move(server));
    }
    WWT_ASSIGN_OR_RETURN(
        stack->remote,
        wwt::net::RemoteProbeSet::Connect(*stack->base, endpoints));
    WWT_RETURN_NOT_OK(
        stack->service->AttachRemoteProbes(stack->remote->Probes()));
  }

  if (options.freshness) {
    stack->journal_path = options.dir + "/delta.wwtdlt";
    WWT_RETURN_NOT_OK(stack->service->EnableFreshness(stack->journal_path));
  }
  stack->setup_s = total.ElapsedSeconds();
  return stack;
}

}  // namespace servebench
