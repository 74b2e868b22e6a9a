// Shuffle-intent prediction messages and the wire-volume overhead model.
//
// The instrumentation middleware works at the application layer: it decodes
// the spilled map-output index and therefore knows payload bytes, not
// on-the-wire bytes. To predict wire volume it adds protocol framing
// estimated from known header sizes. The paper observes this makes Pythia
// over-estimate by 3–7% and argues over-estimation is the safe direction
// (the prediction never lags the actual traffic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pythia::core {

/// Conservative per-payload-byte protocol framing estimate.
struct ProtocolOverheadModel {
  /// Ethernet + IP + TCP header bytes per segment, assuming no options are
  /// known in advance, so the worst reasonable case is used.
  double header_bytes_per_segment = 78.0;  // 18 eth + 20 ip + 40 tcp w/opts
  /// Assumed MSS; the instrumentation cannot see PMTU, so it uses a
  /// conservative (small) segment estimate, inflating the prediction.
  double assumed_mss = 1380.0;
  /// HTTP response framing per map-output fetch.
  double http_framing_bytes = 320.0;

  /// Multiplicative factor applied to payload bytes (> 1).
  [[nodiscard]] double factor() const {
    return 1.0 + header_bytes_per_segment / assumed_mss;
  }
  /// Predicted wire bytes for one map-output partition.
  [[nodiscard]] util::Bytes predict_wire_bytes(util::Bytes payload) const {
    return util::Bytes{static_cast<std::int64_t>(
        payload.as_double() * factor() + http_framing_bytes + 0.5)};
  }
};

/// One per-(map task, reducer) shuffle intent, as serialized by the
/// instrumentation process to the collector. At emission time the reducer's
/// network location may still be unknown (reducers start after slow-start);
/// the collector fills it in from reducer-initialization events.
struct ShuffleIntent {
  std::size_t job_serial = 0;
  std::size_t map_index = 0;
  std::size_t reduce_index = 0;
  net::NodeId src_server;
  util::Bytes predicted_wire_bytes;
  util::SimTime emitted_at;
  /// Multi-tenant annotations (open-arrival workloads): the owning tenant
  /// and its scheduling priority. Higher priority drains earlier within a
  /// cohort in the cohort pipelines; 0/0 (single-tenant engine paths) keeps
  /// the canonical drain order purely topological.
  std::uint32_t tenant = 0;
  std::int32_t priority = 0;
};

/// Cumulative predicted-traffic curve entry (per source server), directly
/// comparable with the NetFlow measured curve of Fig. 5. Points are stamped
/// when the (source, destination, size) triple became known to the
/// collector — i.e. at prediction time, well before the wire sees the bytes.
struct PredictionPoint {
  util::SimTime at;
  util::Bytes cumulative;
};

/// Serialized message size estimate for control-overhead accounting
/// (map-task id + per-reducer entries).
[[nodiscard]] inline util::Bytes intent_message_bytes(
    std::size_t reducer_entries) {
  return util::Bytes{static_cast<std::int64_t>(48 + 16 * reducer_entries)};
}

}  // namespace pythia::core
