#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <span>
#include <thread>
#include <utility>

#include "engine/shard.h"
#include "util/check.h"

namespace sperke::engine {

ShardedEngine::ShardedEngine(WorldSpec spec) : spec_(std::move(spec)) {
  validate(spec_);
}

EngineResult ShardedEngine::run(const EngineOptions& options) {
  const std::vector<hmp::HeadTrace> traces = build_trace_pool(spec_);
  const auto video = std::make_shared<const media::VideoModel>(spec_.video);
  const int shard_count = spec_.shards;
  int threads = options.threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, shard_count);

  std::vector<std::unique_ptr<Shard>> shards(
      static_cast<std::size_t>(shard_count));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(shard_count));
  std::atomic<int> next{0};
  const auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shard_count) return;
      const auto idx = static_cast<std::size_t>(i);
      try {
        shards[idx] = std::make_unique<Shard>(
            spec_, i, video, std::span<const hmp::HeadTrace>(traces));
        shards[idx]->run();
      } catch (...) {
        errors[idx] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  }  // jthreads join here
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  EngineResult result;
  result.shards = shard_count;
  result.threads_used = threads;
  result.reports.resize(static_cast<std::size_t>(spec_.sessions));
  result.shard_telemetry.reserve(static_cast<std::size_t>(shard_count));
  // Merge preconditions: every shard fills a disjoint, in-range slice of
  // the report vector — exactly once across all shards.
  std::vector<bool> filled;
  if constexpr (SPERKE_DCHECK_IS_ON) {
    filled.assign(static_cast<std::size_t>(spec_.sessions), false);
  }
  for (auto& shard : shards) {
    result.events_executed += shard->events_executed();
    result.completed += shard->completed();
    const std::vector<int>& ids = shard->session_ids();
    for (std::size_t local = 0; local < ids.size(); ++local) {
      const int id = ids[local];
      SPERKE_CHECK(id >= 0 && id < spec_.sessions,
                   "ShardedEngine: shard ", shard->id(),
                   " reports out-of-range session ", id);
      if constexpr (SPERKE_DCHECK_IS_ON) {
        SPERKE_DCHECK(!filled[static_cast<std::size_t>(id)],
                      "ShardedEngine: session ", id,
                      " reported by two shards");
        filled[static_cast<std::size_t>(id)] = true;
      }
      result.reports[static_cast<std::size_t>(id)] =
          shard->report(static_cast<int>(local));
    }
    result.metrics.merge_from(shard->telemetry().metrics());
    result.series.merge_from(shard->series());
    obs::merge_slo_status(result.slos, shard->slo_status());
    result.shard_telemetry.push_back(shard->release_telemetry());
  }
  if constexpr (SPERKE_DCHECK_IS_ON) {
    for (std::size_t i = 0; i < filled.size(); ++i) {
      SPERKE_DCHECK(filled[i], "ShardedEngine: session ", i,
                    " reported by no shard");
    }
  }
  return result;
}

EngineResult run_world(WorldSpec spec, EngineOptions options) {
  ShardedEngine engine(std::move(spec));
  return engine.run(options);
}

}  // namespace sperke::engine
