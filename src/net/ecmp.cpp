#include "net/ecmp.hpp"

#include <cassert>

#include "util/random.hpp"

namespace pythia::net {

std::uint64_t EcmpSelector::hash_tuple(const FiveTuple& t) {
  return util::hash_u64s({t.src_ip, t.dst_ip,
                          static_cast<std::uint64_t>(t.src_port) << 16 |
                              t.dst_port,
                          t.proto});
}

std::size_t EcmpSelector::select_index(const FiveTuple& t, std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(hash_tuple(t) % n);
}

PathView EcmpSelector::select(NodeId src_host, NodeId dst_host,
                              const FiveTuple& t) const {
  return routing_->path(select_id(src_host, dst_host, t));
}

PathId EcmpSelector::select_id(NodeId src_host, NodeId dst_host,
                               const FiveTuple& t) const {
  const auto candidates = routing_->paths(src_host, dst_host);
  assert(!candidates.empty() && "ECMP requires a connected host pair");
  return candidates.id(select_index(t, candidates.size()));
}

}  // namespace pythia::net
