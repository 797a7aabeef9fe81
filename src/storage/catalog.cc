#include "storage/catalog.h"

#include "util/logging.h"

namespace aplus {

namespace {

// The id of `name` in `names`, kInvalidLabel when absent.
label_t FindLabel(const std::vector<std::string>& names, std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<label_t>(i);
  }
  return kInvalidLabel;
}

// Appends `name` unless present; returns its id either way.
label_t AddLabel(std::vector<std::string>* names, const std::string& name) {
  label_t id = FindLabel(*names, name);
  if (id != kInvalidLabel) return id;
  names->push_back(name);
  return static_cast<label_t>(names->size() - 1);
}

}  // namespace

label_t Catalog::AddVertexLabel(const std::string& name) {
  return AddLabel(&vertex_labels_, name);
}

label_t Catalog::AddEdgeLabel(const std::string& name) { return AddLabel(&edge_labels_, name); }

label_t Catalog::FindVertexLabel(std::string_view name) const {
  return FindLabel(vertex_labels_, name);
}

label_t Catalog::FindEdgeLabel(std::string_view name) const {
  return FindLabel(edge_labels_, name);
}

const std::string& Catalog::VertexLabelName(label_t label) const {
  APLUS_CHECK_LT(label, vertex_labels_.size());
  return vertex_labels_[label];
}

const std::string& Catalog::EdgeLabelName(label_t label) const {
  APLUS_CHECK_LT(label, edge_labels_.size());
  return edge_labels_[label];
}

prop_key_t Catalog::AddProperty(const std::string& name, PropTargetKind target, ValueType type,
                                uint32_t domain_size) {
  const prop_key_t existing = FindProperty(name, target);
  if (existing != kInvalidPropKey) {
    APLUS_CHECK(props_[existing].type == type)
        << "property " << name << " re-registered with another type";
    return existing;
  }
  if (type == ValueType::kCategory) {
    APLUS_CHECK_GT(domain_size, 0u) << "categorical property " << name << " needs a domain";
  }
  prop_key_t key = static_cast<prop_key_t>(props_.size());
  props_.push_back(PropertyMeta{name, type, target, domain_size, {}});
  return key;
}

prop_key_t Catalog::FindProperty(std::string_view name, PropTargetKind target) const {
  for (size_t key = 0; key < props_.size(); ++key) {
    if (props_[key].target == target && props_[key].name == name) {
      return static_cast<prop_key_t>(key);
    }
  }
  return kInvalidPropKey;
}

const PropertyMeta& Catalog::property(prop_key_t key) const {
  APLUS_CHECK_LT(key, props_.size());
  return props_[key];
}

category_t Catalog::RegisterCategoryValue(prop_key_t key, const std::string& value_name) {
  APLUS_CHECK_LT(key, props_.size());
  PropertyMeta& meta = props_[key];
  APLUS_CHECK(meta.type == ValueType::kCategory)
      << "property " << meta.name << " is not categorical";
  for (size_t i = 0; i < meta.category_names.size(); ++i) {
    if (meta.category_names[i] == value_name) return static_cast<category_t>(i);
  }
  APLUS_CHECK_LT(meta.category_names.size(), meta.domain_size)
      << "too many named categories for " << meta.name;
  meta.category_names.push_back(value_name);
  return static_cast<category_t>(meta.category_names.size() - 1);
}

category_t Catalog::FindCategoryValue(prop_key_t key, std::string_view value_name) const {
  APLUS_CHECK_LT(key, props_.size());
  const PropertyMeta& meta = props_[key];
  for (size_t i = 0; i < meta.category_names.size(); ++i) {
    if (meta.category_names[i] == value_name) return static_cast<category_t>(i);
  }
  return kInvalidCategory;
}

}  // namespace aplus
