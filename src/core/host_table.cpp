#include "core/host_table.hpp"

#include <algorithm>
#include <cstring>

#include "common/hashing.hpp"

namespace sepo::core {

std::uint32_t HostTable::bucket_of(std::string_view key) const noexcept {
  return bucket_of(hash_key(key));
}

HostTable::HostTable(Organization org, std::vector<HostPtr> bucket_heads,
                     alloc::HostHeap& heap, CombineFn combiner,
                     gpusim::ThreadPool& pool)
    : org_(org), heads_(std::move(bucket_heads)), heap_(heap),
      combiner_(combiner), pool_(pool), chain_len_(heads_.size(), 0) {
  std::vector<RangeCounts> partial(bucket_range_count(heads_.size()));
  for_each_bucket_range(
      pool_, heads_.size(),
      [&](std::size_t r, std::size_t lo, std::size_t hi) {
        std::vector<Kept> kept;
        RangeCounts counts;
        for (std::size_t b = lo; b < hi; ++b)
          chain_len_[b] = canonicalize_chain(heads_[b], kept, counts);
        partial[r] = counts;
      });
  for (const RangeCounts& c : partial) {
    entries_ += c.entries;
    values_ += c.values;
    merged_duplicates_ += c.merged;
  }
  if (org_ != Organization::kMultiValued) values_ = entries_;
}

std::uint32_t HostTable::canonicalize_chain(HostPtr& head,
                                            std::vector<Kept>& kept,
                                            RangeCounts& counts) {
  kept.clear();
  const auto find_kept = [&kept](std::string_view key) -> Kept* {
    for (Kept& k : kept)
      if (k.key == key) return &k;
    return nullptr;
  };
  std::uint32_t len = 0;
  HostPtr* link = &head;  // the link we may rewrite to unlink a duplicate
  for (HostPtr p = head; p != alloc::kHostNull; p = *link) {
    if (org_ == Organization::kMultiValued) {
      auto* ke = heap_.mutable_ptr<KeyEntry>(p);
      HostPtr tail = alloc::kHostNull;
      for (HostPtr vp = ke->vhead_host; vp != alloc::kHostNull;
           vp = heap_.ptr<ValueEntry>(vp)->next_host) {
        tail = vp;
        ++counts.values;
      }
      if (Kept* first = find_kept(ke->key()); first != nullptr) {
        // Concatenate the duplicate's value list onto the first entry's.
        if (ke->vhead_host != alloc::kHostNull) {
          if (first->value_tail == alloc::kHostNull)
            heap_.mutable_ptr<KeyEntry>(first->entry)->vhead_host =
                ke->vhead_host;
          else
            heap_.mutable_ptr<ValueEntry>(first->value_tail)->next_host =
                ke->vhead_host;
          first->value_tail = tail;
        }
        *link = ke->next_host;
        ++counts.merged;
        continue;
      }
      kept.push_back({ke->key(), p, tail});
      link = &ke->next_host;
    } else {
      auto* e = heap_.mutable_ptr<KvEntry>(p);
      // Duplicates are the semantics of the basic organization.
      if (org_ == Organization::kCombining) {
        if (const Kept* first = find_kept(e->key()); first != nullptr) {
          auto* fe = heap_.mutable_ptr<KvEntry>(first->entry);
          combiner_(fe->value_data(), e->value_data(),
                    std::min(fe->val_len, e->val_len));
          *link = e->next_host;
          ++counts.merged;
          continue;
        }
        kept.push_back({e->key(), p, alloc::kHostNull});
      }
      link = &e->next_host;
    }
    ++len;
  }
  counts.entries += len;
  return len;
}

std::optional<std::span<const std::byte>> HostTable::lookup(
    std::string_view key) const {
  for (HostPtr p = heads_[bucket_of(key)]; p != alloc::kHostNull;) {
    const auto* e = heap_.ptr<KvEntry>(p);
    if (e->key() == key) return std::span{e->value_data(), e->val_len};
    p = e->next_host;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> HostTable::lookup_u64(std::string_view key) const {
  const auto v = lookup(key);
  if (!v || v->size() < 8) return std::nullopt;
  std::uint64_t out;
  std::memcpy(&out, v->data(), 8);
  return out;
}

std::vector<std::span<const std::byte>> HostTable::lookup_all(
    std::string_view key) const {
  std::vector<std::span<const std::byte>> out;
  for (HostPtr p = heads_[bucket_of(key)]; p != alloc::kHostNull;) {
    const auto* e = heap_.ptr<KvEntry>(p);
    if (e->key() == key) out.emplace_back(e->value_data(), e->val_len);
    p = e->next_host;
  }
  return out;
}

void HostTable::for_each(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  for (const HostPtr head : heads_) {
    for (HostPtr p = head; p != alloc::kHostNull;) {
      const auto* e = heap_.ptr<KvEntry>(p);
      fn(e->key(), std::span{e->value_data(), e->val_len});
      p = e->next_host;
    }
  }
}

void HostTable::values_of(
    const KeyEntry& ke, std::vector<std::span<const std::byte>>& vals) const {
  vals.clear();
  for (HostPtr vp = ke.vhead_host; vp != alloc::kHostNull;) {
    const auto* ve = heap_.ptr<ValueEntry>(vp);
    vals.emplace_back(ve->value_data(), ve->val_len);
    vp = ve->next_host;
  }
}

void HostTable::for_each_group(
    const std::function<void(std::string_view,
                             const std::vector<std::span<const std::byte>>&)>&
        fn) const {
  std::vector<std::span<const std::byte>> vals;
  for (const HostPtr head : heads_) {
    for (HostPtr p = head; p != alloc::kHostNull;) {
      const auto* ke = heap_.ptr<KeyEntry>(p);
      values_of(*ke, vals);
      fn(ke->key(), vals);
      p = ke->next_host;
    }
  }
}

std::optional<std::vector<std::span<const std::byte>>> HostTable::lookup_group(
    std::string_view key) const {
  for (HostPtr p = heads_[bucket_of(key)]; p != alloc::kHostNull;) {
    const auto* ke = heap_.ptr<KeyEntry>(p);
    if (ke->key() == key) {
      std::vector<std::span<const std::byte>> vals;
      values_of(*ke, vals);
      return vals;
    }
    p = ke->next_host;
  }
  return std::nullopt;
}

std::vector<std::uint64_t> HostTable::occupancy_histogram(
    std::size_t max_len) const {
  std::vector<std::uint64_t> hist(max_len + 1, 0);
  for (const std::uint32_t len : chain_len_)
    ++hist[std::min<std::size_t>(len, max_len)];
  return hist;
}

}  // namespace sepo::core
