// FNV-1a over StateEncoder images and other byte strings: the pinned hashes
// a suite compares against values recorded when two implementations of a
// layer last agreed byte for byte.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/snapshot.hpp"

namespace pythia::sim {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;

/// Folds `bytes` into the running FNV-1a hash `h`; a fresh hash starts at
/// kFnv1aOffset.
inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes,
                           std::uint64_t h = kFnv1aOffset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a of a completion log: (start sequence, completion instant in ns)
/// pairs in completion order, each value as its StateEncoder i64.
inline std::uint64_t completion_log_hash(
    const std::vector<std::pair<int, std::int64_t>>& log) {
  StateEncoder enc;
  for (const auto& [tag, at_ns] : log) {
    enc.put_i64(tag);
    enc.put_i64(at_ns);
  }
  return fnv1a(enc.bytes());
}

}  // namespace pythia::sim
