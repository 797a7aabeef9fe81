#ifndef APLUS_STORAGE_CATALOG_H_
#define APLUS_STORAGE_CATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "storage/types.h"
#include "storage/value.h"

namespace aplus {

// Whether a property key belongs to vertices or edges.
enum class PropTargetKind : uint8_t { kVertex = 0, kEdge = 1 };

inline constexpr category_t kInvalidCategory = 0xffffffffu;

// Metadata for a registered property key.
struct PropertyMeta {
  std::string name;
  ValueType type = ValueType::kNull;
  PropTargetKind target = PropTargetKind::kVertex;
  // For kCategory properties: number of distinct non-null categories. The
  // partitioning levels of an A+ index have fan-out domain_size + 1 (one
  // extra slot for nulls, Section III-A1).
  uint32_t domain_size = 0;
  // Optional human-readable names for category codes (e.g. currency "USD"
  // -> 0). Used by the DDL parser to resolve identifier constants.
  std::vector<std::string> category_names;
};

// Name <-> id dictionaries for vertex labels, edge labels, and property
// keys. Every structural name in the system resolves through the catalog
// exactly once, after which all hot paths operate on dense integer ids.
// A catalog holds a schema's worth of names (tens, not thousands), so a
// lookup scans the names in id order: no hashing, and no std::string
// built for a name that is a view into query text.
class Catalog {
 public:
  Catalog() = default;

  // Labels. Adding an existing name returns the existing id.
  label_t AddVertexLabel(const std::string& name);
  label_t AddEdgeLabel(const std::string& name);
  label_t FindVertexLabel(std::string_view name) const;  // kInvalidLabel if absent
  label_t FindEdgeLabel(std::string_view name) const;
  const std::string& VertexLabelName(label_t label) const;
  const std::string& EdgeLabelName(label_t label) const;
  uint32_t num_vertex_labels() const { return static_cast<uint32_t>(vertex_labels_.size()); }
  uint32_t num_edge_labels() const { return static_cast<uint32_t>(edge_labels_.size()); }

  // Properties. `domain_size` is required (> 0) iff type == kCategory.
  prop_key_t AddProperty(const std::string& name, PropTargetKind target, ValueType type,
                         uint32_t domain_size = 0);
  prop_key_t FindProperty(std::string_view name, PropTargetKind target) const;
  const PropertyMeta& property(prop_key_t key) const;
  uint32_t num_properties() const { return static_cast<uint32_t>(props_.size()); }

  // Names the next unnamed category code of a kCategory property (codes
  // are assigned in registration order and must stay within the domain).
  category_t RegisterCategoryValue(prop_key_t key, const std::string& value_name);
  // Returns kInvalidCategory when the name is unknown.
  category_t FindCategoryValue(prop_key_t key, std::string_view value_name) const;

 private:
  std::vector<std::string> vertex_labels_;
  std::vector<std::string> edge_labels_;
  std::vector<PropertyMeta> props_;
};

}  // namespace aplus

#endif  // APLUS_STORAGE_CATALOG_H_
