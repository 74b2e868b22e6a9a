// Deterministic simulation snapshots: versioned, checksummed binary
// serialization of the full simulation state.
//
// Events are type-erased closures held in the event queue's slab, so a
// snapshot cannot marshal the queue's function objects directly. Instead a
// snapshot couples two things the determinism contract (golden traces +
// pythia-lint, PRs 3/5) makes sound:
//
//  * a **replay cursor** — the root seed, a config fingerprint, and the
//    exact number of events fired — from which a restore rebuilds the
//    component graph and re-runs the deterministic event loop to the same
//    position; and
//  * a **full state image** — sim clock, event-queue skeleton (live
//    (time, seq) pairs plus lazy-cancel/compaction counters), every RNG
//    lane's raw xoshiro state, and each subsystem's logical state (fabric
//    flows/links/counters, routing tables, controller rule/retry/table
//    state, collector/watchdog state, engine progress) — against which the
//    restored run is *verified byte-for-byte*. A restore that does not land
//    on the identical image fails loudly with the first diverging section,
//    which is exactly the signal the divergence-bisection tool binary
//    searches on.
//
// The binary format is little-endian fixed-width with a magic, a format
// version, and an FNV-1a checksum over the payload; see docs/checkpoint.md
// for the layout and versioning rules.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace pythia::sim {

class Simulation;
class EventQueue;

/// Error raised by snapshot parsing/decoding (bad magic, version mismatch,
/// checksum failure, truncated section) and by restore identity mismatches.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian values to a byte buffer. Every value a
/// subsystem's `encode_state` writes becomes part of the verified state
/// image, so encode only *logical* state (never pointers, never scratch
/// whose layout depends on allocation history).
class StateEncoder {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// Doubles are stored as their IEEE-754 bit pattern — bit-exact, no
  /// formatting round-trip.
  void put_f64(double v);
  void put_time(util::SimTime t) { put_i64(t.ns()); }
  void put_duration(util::Duration d) { put_i64(d.ns()); }
  /// Length-prefixed UTF-8 string.
  void put_string(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked mirror of StateEncoder; throws SnapshotError on underrun.
class StateDecoder {
 public:
  explicit StateDecoder(const std::vector<std::uint8_t>& bytes)
      : bytes_(&bytes) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] double get_f64();
  [[nodiscard]] util::SimTime get_time() { return util::SimTime{get_i64()}; }
  [[nodiscard]] util::Duration get_duration() {
    return util::Duration{get_i64()};
  }
  [[nodiscard]] std::string get_string();

  [[nodiscard]] std::size_t remaining() const {
    return bytes_->size() - pos_;
  }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const;

  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;
};

/// One named state section (e.g. "fabric", "sim.rng"). Capture emits the
/// sections in a fixed order; verification compares them pairwise.
struct SnapshotSection {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

class Snapshot {
 public:
  // v2: routing section switched from a pool-id dump to slot-ordered
  // per-pair link chains, and controller/pythia sections encode rule paths
  // as chains — interning order became query-dependent with the lazy
  // routing graph (see docs/checkpoint.md).
  // v3: sharded intent pipeline — collector section gained pipeline mode,
  // per-intent windowed batch counts, shard-queue content, and admission/
  // coalescing counters; controller rules carry intent weights plus the
  // intent-weighted outcome counters and open-batch state (see
  // docs/architecture.md pipeline section).
  // v4: routing.counters gained attach_pairs_computed (switch-level Yen
  // runs behind the stub-host decomposition).
  // v5: fabric.counters gained fill_rounds and reused_rounds (the dense
  // fill's warm start).
  // v6: fabric cohort coalescing was removed: fabric.counters dropped its
  // flush counter, and the scenario fingerprint dropped its config flag.
  // v7: the routing table has one (lazy) build and one rebuild, so
  // routing.counters dropped its leading u64, the full-rebuild count.
  static constexpr std::uint32_t kFormatVersion = 7;

  // --- identity + cursor (set by the capturing layer) ---
  std::uint64_t root_seed = 0;
  /// Hash of the scenario config + workload the capture ran; restore refuses
  /// to replay against a different universe.
  std::uint64_t config_fingerprint = 0;
  /// Events fired when the snapshot was taken — the replay cursor.
  std::uint64_t cursor_events = 0;
  /// Sim clock at capture. May sit *between* events (run_until() advances
  /// the clock past the last fired event); restore reproduces this with
  /// EventQueue::advance_now after replaying to `cursor_events`.
  util::SimTime cursor_time = util::SimTime::zero();
  /// Free-form capture label ("mid-shuffle", "warm"); not part of identity.
  std::string label;

  void add_section(std::string name, std::vector<std::uint8_t> bytes) {
    sections_.push_back({std::move(name), std::move(bytes)});
  }
  [[nodiscard]] const std::vector<SnapshotSection>& sections() const {
    return sections_;
  }
  /// Section by name; nullptr when absent.
  [[nodiscard]] const SnapshotSection* section(const std::string& name) const;

  /// Serializes to the on-disk format: magic, version, header, sections,
  /// all covered by a trailing FNV-1a checksum.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Parses and validates (magic, version, checksum). Throws SnapshotError.
  [[nodiscard]] static Snapshot deserialize(
      const std::vector<std::uint8_t>& bytes);

  void save(const std::string& path) const;
  [[nodiscard]] static Snapshot load(const std::string& path);

  /// FNV-1a over the serialized payload — a single u64 that distinguishes
  /// any two non-identical states (used by the bisection tool's binary
  /// search, which compares whole states cheaply).
  [[nodiscard]] std::uint64_t state_checksum() const;

  /// Empty string when `a` and `b` carry byte-identical cursors and
  /// sections; otherwise a human-readable description of the first
  /// divergence ("section 'fabric': first differing byte at offset 120").
  [[nodiscard]] static std::string describe_divergence(const Snapshot& a,
                                                       const Snapshot& b);

  /// Observability sections (names ending in ".counters") record how much
  /// work a strategy did, not what it computed; contracted-identical arms
  /// (e.g. incremental vs. full-recompute rate engines) agree on every
  /// behavioral section while legitimately differing here.
  [[nodiscard]] static bool is_observability_section(const std::string& name);

  /// describe_divergence restricted to behavioral sections — the cross-arm
  /// comparator the divergence-bisection tool uses. Same-arm restore
  /// verification uses describe_divergence (everything must match).
  [[nodiscard]] static std::string describe_behavior_divergence(
      const Snapshot& a, const Snapshot& b);

  /// FNV-1a over the cursor and behavioral sections only — a cheap
  /// whole-state comparator for the bisection tool's binary search.
  [[nodiscard]] std::uint64_t behavior_checksum() const;

 private:
  std::vector<SnapshotSection> sections_;
};

/// Encodes the event queue's logical + compaction state: clock, sequence
/// counter, fired/live/garbage counters, and the canonical sorted
/// (time, seq) skeleton of live entries (physical heap layout is excluded —
/// it depends on compaction history, not on logical state).
void encode_event_queue_state(const EventQueue& queue, StateEncoder& enc);

/// Encodes every materialized RNG lane (sorted by stream name) with its raw
/// xoshiro256** state words. A replayed run must land every lane on the
/// exact same words — the most sensitive divergence detector in the image.
void encode_rng_state(const Simulation& sim, StateEncoder& enc);

}  // namespace pythia::sim
