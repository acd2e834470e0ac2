#ifndef PTLDB_TTL_LABEL_STORE_H_
#define PTLDB_TTL_LABEL_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "timetable/types.h"
#include "ttl/label.h"
#include "ttl/label_codec.h"

namespace ptldb {

/// Borrowed structure-of-arrays view of one stop's decoded label bucket
/// (spans over a LabelArrays decode scratch). Valid only while that
/// scratch is alive and unmodified.
struct LabelView {
  std::span<const int32_t> hubs;
  std::span<const int32_t> tds;
  std::span<const int32_t> tas;

  size_t size() const { return hubs.size(); }
};

/// Compressed encoding of the TTL `lout`/`lin` labels, after *Public
/// Transit Labeling*: each stop's (hub, td)-sorted tuples become one
/// delta+varint SoA bucket (see label_codec.h) laid out back-to-back in a
/// per-direction arena, addressed by a stop-indexed offset table — an
/// equivalent, CRC-checked, ~0.4x-sized copy of the heap rows. A ttl-layer
/// library, not a query tier: PtldbDatabase answers from the heap rows
/// (DESIGN.md §12 records why). Its consumers are bench_table7's
/// bytes/label column, the codec tests and the content_crc() golden.
///
/// Immutable after Build, so concurrent readers need no locking; each
/// reader supplies its own LabelArrays scratch to Decode into.
class LabelStore {
 public:
  enum class Direction { kOut, kIn };

  /// Encodes every stop of both label sets. Deterministic: the arenas are
  /// a pure function of the index contents, so content_crc() is stable
  /// across build thread counts (pinned by ttl_determinism_test).
  static Result<std::unique_ptr<LabelStore>> Build(const TtlIndex& index);

  /// Decodes stop v's bucket into *scratch and returns spans over it.
  /// kInvalidArgument when v is out of range; kCorruption when the
  /// resident bytes fail validation (bit rot in RAM — surfaced, never
  /// silently served).
  Result<LabelView> Decode(Direction dir, StopId v,
                           LabelArrays* scratch) const;

  /// The raw encoded bucket for stop v (empty view when out of range).
  /// Exposed for tests and determinism goldens.
  std::string_view bucket_bytes(Direction dir, StopId v) const;

  uint32_t num_stops() const { return num_stops_; }

  /// Total encoded bytes held resident (both directions, arenas only).
  uint64_t bytes_resident() const {
    return out_.arena.size() + in_.arena.size();
  }

  /// Total label tuples across both directions — the denominator of
  /// bench_table7's bytes/label column.
  uint64_t total_labels() const { return total_labels_; }

  /// CRC-32C over both arenas (out then in) — the determinism golden.
  uint32_t content_crc() const { return content_crc_; }

 private:
  // One direction's buckets: stop v's bytes are
  // arena[offsets[v], offsets[v + 1]).
  struct Tier {
    std::string arena;
    std::vector<uint64_t> offsets;  // num_stops + 1 entries
  };

  LabelStore() = default;

  static Status BuildTier(const LabelSet& labels, Tier* tier);
  const Tier& tier(Direction dir) const {
    return dir == Direction::kOut ? out_ : in_;
  }

  Tier out_;
  Tier in_;
  uint32_t num_stops_ = 0;
  uint64_t total_labels_ = 0;
  uint32_t content_crc_ = 0;
};

}  // namespace ptldb

#endif  // PTLDB_TTL_LABEL_STORE_H_
