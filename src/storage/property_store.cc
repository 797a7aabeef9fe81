#include "storage/property_store.h"

#include <memory>
#include <utility>

#include "util/logging.h"

namespace aplus {

PropertyColumn::PropertyColumn(prop_key_t key, ValueType type, uint32_t domain_size)
    : key_(key), type_(type), domain_size_(domain_size) {
  APLUS_CHECK(type != ValueType::kNull);
  if (type == ValueType::kCategory) {
    APLUS_CHECK_GT(domain_size, 0u);
  }
}

void PropertyColumn::Resize(size_t n) {
  nulls_.Resize(n, 1);
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kBool:
    case ValueType::kCategory:
      ints_.Resize(n, 0);
      break;
    case ValueType::kDouble:
      doubles_.Resize(n, 0.0);
      break;
    case ValueType::kString:
      codes_.Resize(n, 0);
      break;
    case ValueType::kNull:
      break;
  }
  // Publish the new length only after the payload vectors hold it, so a
  // racing reader that passes the size() bound never reads off the end.
  published_size_.store(n, std::memory_order_release);
}

void PropertyColumn::Reserve(size_t n) {
  nulls_.Reserve(n);
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kBool:
    case ValueType::kCategory:
      ints_.Reserve(n);
      break;
    case ValueType::kDouble:
      doubles_.Reserve(n);
      break;
    case ValueType::kString:
      codes_.Reserve(n);
      break;
    case ValueType::kNull:
      break;
  }
}

void PropertyColumn::AttachMapped(const uint8_t* nulls, const void* payload, size_t n,
                                  std::vector<std::string> dict) {
  APLUS_CHECK_EQ(size(), 0u) << "AttachMapped needs an empty column";
  nulls_.Attach(nulls);
  // Only the payload array of the column's type is ever read.
  ints_.Attach(static_cast<const int64_t*>(payload));
  doubles_.Attach(static_cast<const double*>(payload));
  codes_.Attach(static_cast<const uint32_t*>(payload));
  dict_ = std::move(dict);
  published_size_.store(n, std::memory_order_release);
}

void PropertyColumn::SetInt64(uint64_t id, int64_t v) {
  APLUS_DCHECK(type_ == ValueType::kInt64);
  ints_.Set(id, v);
  nulls_.Set(id, 0);
}

void PropertyColumn::SetDouble(uint64_t id, double v) {
  APLUS_DCHECK(type_ == ValueType::kDouble);
  doubles_.Set(id, v);
  nulls_.Set(id, 0);
}

void PropertyColumn::SetBool(uint64_t id, bool v) {
  APLUS_DCHECK(type_ == ValueType::kBool);
  ints_.Set(id, v ? 1 : 0);
  nulls_.Set(id, 0);
}

void PropertyColumn::SetString(uint64_t id, const std::string& v) {
  APLUS_DCHECK(type_ == ValueType::kString);
  auto it = dict_ids_.find(v);
  uint32_t code;
  if (it != dict_ids_.end()) {
    code = it->second;
  } else {
    code = static_cast<uint32_t>(dict_.size());
    dict_.push_back(v);
    dict_ids_.emplace(v, code);
  }
  codes_.Set(id, code);
  nulls_.Set(id, 0);
}

void PropertyColumn::SetCategory(uint64_t id, category_t v) {
  APLUS_DCHECK(type_ == ValueType::kCategory);
  APLUS_DCHECK(v < domain_size_) << "category out of domain";
  ints_.Set(id, v);
  nulls_.Set(id, 0);
}

void PropertyColumn::SetNull(uint64_t id) { nulls_.Set(id, 1); }

Value PropertyColumn::Get(uint64_t id) const {
  if (id >= size() || nulls_[id]) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int64(ints_[id]);
    case ValueType::kDouble:
      return Value::Double(doubles_[id]);
    case ValueType::kBool:
      return Value::Bool(ints_[id] != 0);
    case ValueType::kString:
      return Value::String(dict_[codes_[id]]);
    case ValueType::kCategory:
      return Value::Category(ints_[id]);
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

PropertyColumn* PropertyStore::AddColumn(const Catalog& catalog, prop_key_t key) {
  const PropertyMeta& meta = catalog.property(key);
  APLUS_CHECK(meta.target == target_) << "property " << meta.name << " targets the other kind";
  if (mapped_) return nullptr;
  if (key >= columns_.size()) columns_.resize(key + 1);
  if (columns_[key] == nullptr) {
    columns_[key] = std::make_unique<PropertyColumn>(key, meta.type, meta.domain_size);
    columns_[key]->Resize(size());
  }
  return columns_[key].get();
}

const PropertyColumn* PropertyStore::column(prop_key_t key) const {
  if (key >= columns_.size()) return nullptr;
  return columns_[key].get();
}

PropertyColumn* PropertyStore::mutable_column(prop_key_t key) {
  if (mapped_ || key >= columns_.size()) return nullptr;
  return columns_[key].get();
}

void PropertyStore::AttachMapped(size_t n) {
  APLUS_CHECK(size() == 0 && columns_.empty()) << "AttachMapped needs an empty store";
  mapped_ = true;
  size_.store(n, std::memory_order_release);
}

void PropertyStore::AttachColumn(const Catalog& catalog, prop_key_t key, const uint8_t* nulls,
                                 const void* payload, std::vector<std::string> dict) {
  const PropertyMeta& meta = catalog.property(key);
  APLUS_CHECK(mapped_ && meta.target == target_);
  if (key >= columns_.size()) columns_.resize(key + 1);
  columns_[key] = std::make_unique<PropertyColumn>(key, meta.type, meta.domain_size);
  columns_[key]->AttachMapped(nulls, payload, size(), std::move(dict));
}

void PropertyStore::Resize(size_t n) {
  for (auto& col : columns_) {
    if (col != nullptr) col->Resize(n);
  }
  size_.store(n, std::memory_order_release);
}

void PropertyStore::Reserve(size_t n) {
  for (auto& col : columns_) {
    if (col != nullptr) col->Reserve(n);
  }
}

bool PropertyStore::IsNull(prop_key_t key, uint64_t id) const {
  const PropertyColumn* col = column(key);
  return col == nullptr || id >= col->size() || col->IsNull(id);
}

Value PropertyStore::Get(prop_key_t key, uint64_t id) const {
  const PropertyColumn* col = column(key);
  if (col == nullptr) return Value::Null();
  return col->Get(id);
}

}  // namespace aplus
