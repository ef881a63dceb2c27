#include "engine/world.h"

#include <stdexcept>

#include "abr/factory.h"

namespace sperke::engine {

int group_count(const WorldSpec& spec) {
  return (spec.sessions + spec.sessions_per_link - 1) / spec.sessions_per_link;
}

int group_of_session(const WorldSpec& spec, int session) {
  return session / spec.sessions_per_link;
}

int groups_per_edge(const WorldSpec& spec) {
  // validate() guarantees divisibility when the tier is enabled.
  return spec.cdn.sessions_per_edge / spec.sessions_per_link;
}

int edge_of_group(const WorldSpec& spec, int group) {
  if (!spec.cdn.enabled()) return -1;
  return group / groups_per_edge(spec);
}

int shard_of_group(const WorldSpec& spec, int group) {
  // With a CDN tier the edge is the partition unit: every group of an edge
  // must land on one shard, or its cache would be touched from two
  // threads and the hit sequence would depend on scheduling. Without one,
  // the link group partitions exactly as before (byte-identity).
  if (spec.cdn.enabled()) return edge_of_group(spec, group) % spec.shards;
  return group % spec.shards;
}

net::FaultPlan faults_of_group(const WorldSpec& spec, int group) {
  if (spec.faults_for_group) return spec.faults_for_group(group);
  net::FaultPlan plan = spec.faults;
  if (!plan.empty()) {
    // Decorrelate the per-transfer failure stream across groups while
    // keeping it independent of shard/thread placement.
    plan.seed = spec.faults.seed + static_cast<std::uint64_t>(group);
  }
  return plan;
}

void validate(const WorldSpec& spec) {
  if (spec.sessions < 1) {
    throw std::invalid_argument("WorldSpec: sessions < 1");
  }
  if (spec.sessions_per_link < 1) {
    throw std::invalid_argument("WorldSpec: sessions_per_link < 1");
  }
  if (spec.transport_max_concurrent < 1) {
    throw std::invalid_argument("WorldSpec: transport_max_concurrent < 1");
  }
  if (spec.trace_pool < 1) {
    throw std::invalid_argument("WorldSpec: trace_pool < 1");
  }
  if (spec.shards < 1) {
    throw std::invalid_argument("WorldSpec: shards < 1");
  }
  if (spec.horizon <= sim::kTimeZero) {
    throw std::invalid_argument("WorldSpec: horizon <= 0");
  }
  if (spec.sample_period < sim::Duration{0}) {
    throw std::invalid_argument("WorldSpec: sample_period < 0");
  }
  if (!spec.slos.empty() && spec.sample_period <= sim::Duration{0}) {
    throw std::invalid_argument("WorldSpec: slos require sample_period > 0");
  }
  for (const obs::SloSpec& slo : spec.slos) obs::validate_slo(slo);
  net::validate(spec.faults);
  core::validate(spec.transport_recovery);
  core::validate(spec.session);
  // CDN topology section: every error lists the section's field names
  // (cdn::topology_field_names), mirroring validate_policy_name below.
  cdn::validate(spec.cdn, spec.sessions_per_link, spec.crowd != nullptr);
  // Fail fast on a bad policy name in the template spec; per-session
  // overrides from session_for() are still checked at construction inside
  // the shard (abr::make_policy throws the same error).
  abr::validate_policy_name(spec.session.abr.policy);
}

std::vector<hmp::HeadTrace> build_trace_pool(const WorldSpec& spec) {
  std::vector<hmp::HeadTrace> pool;
  pool.reserve(static_cast<std::size_t>(spec.trace_pool));
  for (int k = 0; k < spec.trace_pool; ++k) {
    hmp::HeadTraceConfig cfg = spec.trace_template;
    cfg.seed = spec.trace_template.seed + static_cast<std::uint64_t>(k);
    pool.push_back(hmp::generate_head_trace(cfg));
  }
  return pool;
}

}  // namespace sperke::engine
