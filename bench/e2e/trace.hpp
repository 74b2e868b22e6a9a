// Traced pass of the end-to-end benchmark: per-layer attribution measured
// from outside the program.
//
// 1. Record: re-run the workload one EventQueue::run_one() at a time and,
//    through public observers and accessors, record the fabric mutations
//    (flow starts, reroutes, CBR streams), the host pairs the routing graph
//    materialized, and the engine -> Pythia observer stream.
// 2. Replay each recording into a fresh instance of one layer, with a span
//    around every call: net::Fabric, a lazy net::RoutingGraph, and the
//    Pythia control plane over warmed routing.
// 3. The engine (hadoop + sim) is the residual: record time minus replays.
//
// Each replay checks that it reproduced the run; a replay that does not
// reports replay_ok = false and its time is left out of the residual.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

/// Spans kept in memory (name, start, end, parent, workload) and written
/// out once, when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  /// Opens a span under the innermost open one and returns its id.
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  [[nodiscard]] double seconds(std::uint32_t id) const;
  /// Total duration of `parent`'s direct children, in seconds.
  [[nodiscard]] double child_seconds(std::uint32_t parent) const;
  /// One tab-separated line per span; false if the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;

  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

struct LayerTime {
  double self_s = 0.0;
  bool replay_ok = true;
  std::string why;  // first failed fidelity check

  void fail(const std::string& reason) {
    if (replay_ok) why = reason;
    replay_ok = false;
  }
};

struct TraceResult {
  double total_s = 0.0;  // the recorded re-run, tracing on
  LayerTime fabric;
  LayerTime routing;
  LayerTime control;
  std::vector<double> first_touch_us;  // per materialized host pair
  WeightedSamples warm_decisions;      // control replay over warm routing
  std::uint64_t peak_active_flows = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t checksum = 0;  // behaviour of the recorded re-run
  std::vector<std::string> failures;  // gate failures of the re-run
};

[[nodiscard]] TraceResult run_traced(const Workload& w, SpanLog& spans);

}  // namespace e2e
