#ifndef APLUS_STORAGE_PROPERTY_STORE_H_
#define APLUS_STORAGE_PROPERTY_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/catalog.h"
#include "storage/column_array.h"
#include "storage/types.h"
#include "storage/value.h"

namespace aplus {

// A single typed, nullable property column, indexed by vertex or edge id.
// Strings are dictionary-encoded; categorical values are stored as dense
// int codes in [0, domain_size).
//
// Concurrent serving: size() reflects the atomically *published* length,
// stored with release after Resize has grown the payload vectors, so a
// reader racing an ingest writer never indexes past initialized memory.
// Growth past the reserved capacity would reallocate the vectors under
// the readers; Database::BeginConcurrentIngest calls Reserve to rule
// that out. Values of an id must be written before the id becomes
// reachable (i.e. before the edge/vertex is published to the indexes);
// string columns additionally grow their dictionary on write and are
// therefore writable only while queries are quiesced.
//
// A mapped column (AttachMapped) views its null bytes and payload in a
// sealed segment's mapping and is read-only; the accessors read both
// kinds through the same pointers.
class PropertyColumn {
 public:
  PropertyColumn(prop_key_t key, ValueType type, uint32_t domain_size);

  prop_key_t key() const { return key_; }
  ValueType type() const { return type_; }
  uint32_t domain_size() const { return domain_size_; }
  size_t size() const { return published_size_.load(std::memory_order_acquire); }

  void Resize(size_t n);
  void Reserve(size_t n);

  void SetInt64(uint64_t id, int64_t v);
  void SetDouble(uint64_t id, double v);
  void SetBool(uint64_t id, bool v);
  void SetString(uint64_t id, const std::string& v);
  void SetCategory(uint64_t id, category_t v);
  void SetNull(uint64_t id);
  void Set(uint64_t id, const Value& v);

  bool IsNull(uint64_t id) const { return nulls_[id] != 0; }
  int64_t GetInt64(uint64_t id) const { return ints_[id]; }
  double GetDouble(uint64_t id) const { return doubles_[id]; }
  const std::string& GetString(uint64_t id) const { return dict_[codes_[id]]; }

  // Categorical accessor used by the partitioning levels: returns the
  // category code, or `domain_size()` (the extra null slot) when null.
  category_t GetCategoryOrNullSlot(uint64_t id) const {
    return nulls_[id] ? domain_size_ : static_cast<category_t>(ints_[id]);
  }

  // Generic accessor for predicate evaluation and tests.
  Value Get(uint64_t id) const;

  // The sealed layout: one null byte per id (1 = null), and a payload of
  // PayloadWidth(type) bytes per id — int64 for kInt64, kBool and
  // kCategory, double for kDouble, the u32 dictionary code for kString.
  static size_t PayloadWidth(ValueType type) { return type == ValueType::kString ? 4 : 8; }
  const uint8_t* null_data() const { return nulls_.data(); }
  const void* payload_data() const {
    return type_ == ValueType::kDouble   ? static_cast<const void*>(doubles_.data())
           : type_ == ValueType::kString ? static_cast<const void*>(codes_.data())
                                         : static_cast<const void*>(ints_.data());
  }
  const std::vector<std::string>& dictionary() const { return dict_; }

  // Turns an empty column into a read-only view of `n` ids over sealed
  // `nulls` and `payload`, which must outlive it; `dict` is a string
  // column's dictionary. The caller validates the codes.
  void AttachMapped(const uint8_t* nulls, const void* payload, size_t n,
                    std::vector<std::string> dict);

 private:
  prop_key_t key_;
  ValueType type_;
  uint32_t domain_size_;

  std::atomic<size_t> published_size_{0};
  ColumnArray<uint8_t> nulls_;     // 1 = null
  ColumnArray<int64_t> ints_;      // kInt64 / kBool / kCategory payload
  ColumnArray<double> doubles_;    // kDouble payload
  ColumnArray<uint32_t> codes_;    // kString payload (dictionary codes)
  std::vector<std::string> dict_;  // string dictionary
  std::unordered_map<std::string, uint32_t> dict_ids_;
};

// All property columns for one target kind (vertices or edges). Column
// lookup is by catalog property key; missing columns behave as all-null.
class PropertyStore {
 public:
  explicit PropertyStore(PropTargetKind target) : target_(target) {}

  // Moves happen only while quiesced (dataset construction); the atomic
  // published size blocks the defaulted special members.
  PropertyStore(PropertyStore&& other) noexcept
      : target_(other.target_),
        mapped_(other.mapped_),
        size_(other.size_.load(std::memory_order_relaxed)),
        columns_(std::move(other.columns_)) {
    other.size_.store(0, std::memory_order_relaxed);
  }
  PropertyStore& operator=(PropertyStore&& other) noexcept {
    target_ = other.target_;
    mapped_ = other.mapped_;
    size_.store(other.size_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    columns_ = std::move(other.columns_);
    other.size_.store(0, std::memory_order_relaxed);
    return *this;
  }

  // Creates the column for `key` (idempotent) and returns it; nullptr on
  // a mapped store.
  PropertyColumn* AddColumn(const Catalog& catalog, prop_key_t key);

  // Returns nullptr if the column was never created. A mapped store has
  // no mutable columns.
  const PropertyColumn* column(prop_key_t key) const;
  PropertyColumn* mutable_column(prop_key_t key);

  // Turns an empty store into a read-only store of `n` ids whose columns
  // are added by AttachColumn (PropertyColumn::AttachMapped).
  void AttachMapped(size_t n);
  void AttachColumn(const Catalog& catalog, prop_key_t key, const uint8_t* nulls,
                    const void* payload, std::vector<std::string> dict);

  // Grows every column to hold ids in [0, n).
  void Resize(size_t n);
  // Pre-allocates capacity in every column so a concurrent ingest phase
  // never reallocates payload vectors under lock-free readers.
  void Reserve(size_t n);
  size_t size() const { return size_.load(std::memory_order_acquire); }

  bool IsNull(prop_key_t key, uint64_t id) const;
  Value Get(prop_key_t key, uint64_t id) const;

 private:
  PropTargetKind target_;
  bool mapped_ = false;
  std::atomic<size_t> size_{0};
  std::vector<std::unique_ptr<PropertyColumn>> columns_;  // indexed by key (sparse)
};

}  // namespace aplus

#endif  // APLUS_STORAGE_PROPERTY_STORE_H_
