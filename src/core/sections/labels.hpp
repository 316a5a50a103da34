// Label interning for MPI sections.
//
// Section labels are user strings ("HALO", "LagrangeNodal", ...). Tools
// compare and aggregate them constantly, so the runtime interns each label
// once and hands out dense 32-bit ids, in interning order.
//
// The registry is append-only: an interned name never moves or changes.
// Every rank interns its label on every section enter and exit, and after
// the first occurrence of a label that is a hit, so the read side takes no
// lock and writes no shared memory. intern() hits, lookup(), name(),
// size() and all() only load atomics: an open-addressing index of
// published entries, and a count of published ids. Only a miss — a label
// new to the registry, at most once per distinct label — takes the writer
// mutex; it stores the entry, then publishes the id count and finally the
// index slot (release), so a reader that finds the label by content also
// sees its id as valid. A full index is replaced by a table twice the size;
// retired tables stay alive until the registry dies, because a reader may
// still be probing one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mpisect::sections {

using LabelId = std::uint32_t;
inline constexpr LabelId kInvalidLabel = ~LabelId{0};

class LabelRegistry {
 public:
  LabelRegistry();
  ~LabelRegistry();
  LabelRegistry(const LabelRegistry&) = delete;
  LabelRegistry& operator=(const LabelRegistry&) = delete;

  /// Intern a label, returning its dense id (stable for the registry's
  /// lifetime). Thread-safe; a label already interned takes no lock.
  LabelId intern(std::string_view label);

  /// Name of an interned id ("?" for unknown ids). Thread-safe; the
  /// reference stays valid for the registry's lifetime.
  [[nodiscard]] const std::string& name(LabelId id) const;

  /// Id of an already-interned label, or kInvalidLabel.
  [[nodiscard]] LabelId lookup(std::string_view label) const;

  [[nodiscard]] std::size_t size() const;

  /// Snapshot of all interned names, indexed by id.
  [[nodiscard]] std::vector<std::string> all() const;

 private:
  struct Entry {
    std::string name;
    std::uint64_t hash = 0;
    LabelId id = kInvalidLabel;
  };
  /// Open-addressing hash index over published entries (power-of-two
  /// slots, linear probing, kept at most half full).
  struct Index {
    explicit Index(std::size_t n);
    std::size_t mask;
    std::unique_ptr<std::atomic<const Entry*>[]> slots;
  };
  /// Entries live in segments that never move: segment s holds
  /// kFirstSegment << s ids.
  static constexpr std::size_t kFirstSegment = 16;
  static constexpr std::size_t kSegments = 28;

  struct Slot {
    std::size_t segment;
    std::size_t offset;
  };
  [[nodiscard]] static Slot locate(LabelId id) noexcept;
  [[nodiscard]] const Entry* find(std::string_view label,
                                  std::uint64_t hash) const;
  [[nodiscard]] const Entry& entry(LabelId id) const;
  static void insert(const Index& index, const Entry* e);

  std::array<std::atomic<Entry*>, kSegments> segments_{};
  std::atomic<std::uint32_t> size_{0};
  std::atomic<const Index*> index_;
  std::mutex write_mu_;  ///< serializes misses; readers never take it
  std::vector<std::unique_ptr<const Index>> tables_;  ///< live + retired
};

/// 64-bit stable hash of a label string — used by the validation pass to
/// compare labels across ranks without shipping strings.
[[nodiscard]] std::uint64_t label_hash(std::string_view label) noexcept;

}  // namespace mpisect::sections
