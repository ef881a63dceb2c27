// The fetch seam between transports and the network topology.
//
// ChunkSource is the one fetch API — "fetch this chunk, tell me when it
// settles" — that every transport consumes. Two sources implement it: a
// net::Link itself (a direct fetch is one transfer on the client's access
// link) and cdn::EdgeSource, a trip through a CDN edge cache with an
// origin behind it (DESIGN.md §15).
//
// A fetch names its object by media::ChunkAddress, the paper's C(q, l, t):
// the key the planner plans in is what caches key on, what coalescing
// dedupes on, and what trace labels are derived from.
#pragma once

#include <cstdint>

#include "media/chunk.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/inline_function.h"

namespace sperke::net {

// The former name of the fetch key, kept for code outside the library
// that still spells it.
using ChunkId = media::ChunkAddress;

// Handle for one outstanding fetch, scoped to the issuing ChunkSource.
using FetchId = std::uint64_t;

enum class TransferStatus : std::uint8_t {
  kCompleted,  // every byte delivered
  kFailed,     // injected fault: outage or seeded mid-flight failure
  kCancelled,  // caller aborted via cancel()
};

// How a fetch ended. `bytes_delivered` is what actually flowed: the full
// size for kCompleted, the partial progress for kFailed/kCancelled.
struct TransferResult {
  TransferStatus status = TransferStatus::kCompleted;
  sim::Time time{sim::kTimeZero};
  std::int64_t bytes_delivered = 0;

  [[nodiscard]] bool completed() const {
    return status == TransferStatus::kCompleted;
  }
};

// A fetch's completion callback. 48 bytes inline hold every source-side
// closure: `this`, a shared_ptr liveness token and an id or two. A nested
// callback captures the id of a record that owns the outer callback, never
// the callback itself (DESIGN.md §13).
using TransferCallback = util::InlineFunction<void(const TransferResult&), 48>;

// One fetch as a transport submits it. `weight` is the HTTP/2-style stream
// priority forwarded to whichever link ends up carrying the bytes;
// `deadline` is advisory (a topology may use it to order or shed work —
// a direct Link ignores it, the transport's own timeout machinery still
// cancels late fetches).
struct FetchSpec {
  media::ChunkAddress id;
  std::int64_t bytes = 0;
  double weight = 1.0;
  sim::Time deadline{sim::kTimeZero};
};

// Pure fetch interface consumed by core::FetchQueue (and anything else that
// wants bytes without caring what topology delivers them). Contract:
//   * fetch(): `on_done` fires exactly once with a typed TransferResult —
//     kCompleted (bytes_delivered == spec.bytes at the client), kFailed
//     (an upstream fault; bytes_delivered is what reached the client, 0
//     when the failure happened upstream of the access link), or
//     kCancelled (the caller's own cancel()).
//   * cancel(): fires the callback synchronously with kCancelled; returns
//     false — and fires nothing — if the fetch already settled, so the
//     completion callback can never double-fire.
//   * rtt()/simulator() expose the client-side clock and first-byte latency
//     the transport's throughput estimator and timeout events need.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  virtual FetchId fetch(const FetchSpec& spec, TransferCallback on_done) = 0;
  virtual bool cancel(FetchId id) = 0;

  // Effective client-side RTT right now (first-byte latency of a fetch).
  [[nodiscard]] virtual sim::Duration rtt() const = 0;
  [[nodiscard]] virtual sim::Simulator& simulator() = 0;
};

}  // namespace sperke::net
