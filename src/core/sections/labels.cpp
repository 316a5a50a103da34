#include "core/sections/labels.hpp"

#include <bit>
#include <stdexcept>

#include "support/rng.hpp"

namespace mpisect::sections {

namespace {

constexpr std::size_t kInitialSlots = 64;

}  // namespace

LabelRegistry::Index::Index(std::size_t n)
    : mask(n - 1), slots(std::make_unique<std::atomic<const Entry*>[]>(n)) {}

LabelRegistry::LabelRegistry() {
  tables_.push_back(std::make_unique<const Index>(kInitialSlots));
  index_.store(tables_.back().get(), std::memory_order_release);
}

LabelRegistry::~LabelRegistry() {
  for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
}

void LabelRegistry::insert(const Index& index, const Entry* e) {
  std::size_t i = e->hash & index.mask;
  while (index.slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & index.mask;
  }
  index.slots[i].store(e, std::memory_order_release);
}

const LabelRegistry::Entry* LabelRegistry::find(std::string_view label,
                                                std::uint64_t hash) const {
  const Index* index = index_.load(std::memory_order_acquire);
  for (std::size_t i = hash & index->mask;; i = (i + 1) & index->mask) {
    const Entry* e = index->slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return nullptr;
    if (e->hash == hash && e->name == label) return e;
  }
}

LabelRegistry::Slot LabelRegistry::locate(LabelId id) noexcept {
  const auto q = static_cast<std::size_t>(id) / kFirstSegment + 1;
  const auto s = static_cast<std::size_t>(std::bit_width(q)) - 1;
  return {s, id - kFirstSegment * ((std::size_t{1} << s) - 1)};
}

const LabelRegistry::Entry& LabelRegistry::entry(LabelId id) const {
  const auto [s, offset] = locate(id);
  return segments_[s].load(std::memory_order_acquire)[offset];
}

LabelId LabelRegistry::intern(std::string_view label) {
  const std::uint64_t hash = label_hash(label);
  if (const Entry* e = find(label, hash)) return e->id;

  const std::lock_guard lock(write_mu_);
  // Another writer may have published the label since the lock-free probe.
  if (const Entry* e = find(label, hash)) return e->id;
  const LabelId id = size_.load(std::memory_order_relaxed);
  const auto [s, offset] = locate(id);
  if (s >= kSegments) throw std::length_error("label registry is full");
  Entry* segment = segments_[s].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new Entry[kFirstSegment << s];
    segments_[s].store(segment, std::memory_order_release);
  }
  Entry& e = segment[offset];
  e.name.assign(label);
  e.hash = hash;
  e.id = id;
  // Publish the id count before the index slot: whoever finds the label
  // by content must also see name(id) resolve.
  size_.store(id + 1, std::memory_order_release);

  const Index* index = index_.load(std::memory_order_relaxed);
  if (2 * (static_cast<std::size_t>(id) + 1) > index->mask + 1) {
    auto grown = std::make_unique<const Index>(2 * (index->mask + 1));
    for (LabelId i = 0; i <= id; ++i) insert(*grown, &entry(i));
    tables_.push_back(std::move(grown));
    index_.store(tables_.back().get(), std::memory_order_release);
  } else {
    insert(*index, &e);
  }
  return id;
}

const std::string& LabelRegistry::name(LabelId id) const {
  static const std::string kUnknown = "?";
  if (id >= size_.load(std::memory_order_acquire)) return kUnknown;
  return entry(id).name;
}

LabelId LabelRegistry::lookup(std::string_view label) const {
  const Entry* e = find(label, label_hash(label));
  return e == nullptr ? kInvalidLabel : e->id;
}

std::size_t LabelRegistry::size() const {
  return size_.load(std::memory_order_acquire);
}

std::vector<std::string> LabelRegistry::all() const {
  const std::uint32_t n = size_.load(std::memory_order_acquire);
  std::vector<std::string> out;
  out.reserve(n);
  for (LabelId i = 0; i < n; ++i) out.push_back(entry(i).name);
  return out;
}

std::uint64_t label_hash(std::string_view label) noexcept {
  // FNV-1a, then a SplitMix finalizer for avalanche.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return support::splitmix64(h);
}

}  // namespace mpisect::sections
