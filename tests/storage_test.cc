#include <gtest/gtest.h>

#include "storage/graph.h"

namespace aplus {
namespace {

TEST(ValueTest, CompareOrdersNullsLast) {
  EXPECT_GT(Value::Compare(Value::Null(), Value::Int64(5)), 0);
  EXPECT_LT(Value::Compare(Value::Int64(5), Value::Null()), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_LT(Value::Compare(Value::Int64(1), Value::Double(1.5)), 0);
  EXPECT_EQ(Value::Compare(Value::Int64(2), Value::Double(2.0)), 0);
  EXPECT_GT(Value::Compare(Value::Double(3.5), Value::Int64(3)), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value::Compare(Value::String("abc"), Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x"), Value::String("x"));
}

TEST(CatalogTest, LabelDictionaries) {
  Catalog catalog;
  label_t a = catalog.AddVertexLabel("Account");
  label_t c = catalog.AddVertexLabel("Customer");
  EXPECT_NE(a, c);
  EXPECT_EQ(catalog.AddVertexLabel("Account"), a);
  EXPECT_EQ(catalog.FindVertexLabel("Customer"), c);
  EXPECT_EQ(catalog.FindVertexLabel("Missing"), kInvalidLabel);
  EXPECT_EQ(catalog.VertexLabelName(a), "Account");
  EXPECT_EQ(catalog.num_vertex_labels(), 2u);
}

TEST(CatalogTest, PropertiesAreTargetScoped) {
  Catalog catalog;
  prop_key_t v_name = catalog.AddProperty("name", PropTargetKind::kVertex, ValueType::kString);
  prop_key_t e_name = catalog.AddProperty("name", PropTargetKind::kEdge, ValueType::kInt64);
  EXPECT_NE(v_name, e_name);
  EXPECT_EQ(catalog.FindProperty("name", PropTargetKind::kVertex), v_name);
  EXPECT_EQ(catalog.FindProperty("name", PropTargetKind::kEdge), e_name);
}

TEST(CatalogTest, CategoryValueNames) {
  Catalog catalog;
  prop_key_t key = catalog.AddProperty("currency", PropTargetKind::kEdge, ValueType::kCategory, 3);
  category_t usd = catalog.RegisterCategoryValue(key, "USD");
  category_t eur = catalog.RegisterCategoryValue(key, "EUR");
  EXPECT_EQ(usd, 0u);
  EXPECT_EQ(eur, 1u);
  EXPECT_EQ(catalog.RegisterCategoryValue(key, "USD"), usd);
  EXPECT_EQ(catalog.FindCategoryValue(key, "EUR"), eur);
  EXPECT_EQ(catalog.FindCategoryValue(key, "GBP"), kInvalidCategory);
}

TEST(PropertyColumnTest, NullsAndValues) {
  Catalog catalog;
  prop_key_t key = catalog.AddProperty("amt", PropTargetKind::kEdge, ValueType::kInt64);
  PropertyStore store(PropTargetKind::kEdge);
  store.Resize(4);
  PropertyColumn* col = store.AddColumn(catalog, key);
  EXPECT_TRUE(store.IsNull(key, 0));
  col->SetInt64(1, 42);
  EXPECT_FALSE(store.IsNull(key, 1));
  EXPECT_EQ(store.Get(key, 1).AsInt64(), 42);
  EXPECT_TRUE(store.Get(key, 0).is_null());
}

TEST(PropertyColumnTest, CategoryNullSlot) {
  Catalog catalog;
  prop_key_t key = catalog.AddProperty("cur", PropTargetKind::kEdge, ValueType::kCategory, 3);
  PropertyStore store(PropTargetKind::kEdge);
  store.Resize(2);
  PropertyColumn* col = store.AddColumn(catalog, key);
  col->SetCategory(0, 2);
  EXPECT_EQ(col->GetCategoryOrNullSlot(0), 2u);
  EXPECT_EQ(col->GetCategoryOrNullSlot(1), 3u);  // null -> extra slot
}

TEST(PropertyColumnTest, StringDictionaryDedup) {
  Catalog catalog;
  prop_key_t key = catalog.AddProperty("city", PropTargetKind::kVertex, ValueType::kString);
  PropertyStore store(PropTargetKind::kVertex);
  store.Resize(3);
  PropertyColumn* col = store.AddColumn(catalog, key);
  col->SetString(0, "SF");
  col->SetString(1, "SF");
  col->SetString(2, "LA");
  EXPECT_EQ(col->GetString(0), "SF");
  EXPECT_EQ(col->GetString(1), "SF");
  EXPECT_EQ(col->GetString(2), "LA");
}

TEST(GraphTest, AddVerticesAndEdges) {
  Graph graph;
  label_t v = graph.catalog().AddVertexLabel("V");
  label_t e = graph.catalog().AddEdgeLabel("E");
  vertex_id_t a = graph.AddVertex(v);
  vertex_id_t b = graph.AddVertex(v);
  edge_id_t ab = graph.AddEdge(a, b, e);
  EXPECT_EQ(graph.num_vertices(), 2u);
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(graph.edge_src(ab), a);
  EXPECT_EQ(graph.edge_dst(ab), b);
  EXPECT_EQ(graph.edge_endpoint(ab, Direction::kFwd), b);
  EXPECT_EQ(graph.edge_endpoint(ab, Direction::kBwd), a);
  EXPECT_DOUBLE_EQ(graph.average_degree(), 0.5);
}

}  // namespace
}  // namespace aplus
