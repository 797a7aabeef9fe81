#ifndef APLUS_TESTS_DIGEST_GRAPHS_H_
#define APLUS_TESTS_DIGEST_GRAPHS_H_

// Small deterministic graphs whose sealed segment files are pinned by
// content digest (segment_test): any change to the bytes the segment
// format writes for them fails that test.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "storage/graph.h"
#include "util/rng.h"

namespace aplus {

// FNV-1a 64 of a whole file's bytes.
inline uint64_t Fnv1a64File(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<uint8_t>(*it);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Topology only: 1037 vertices (not a multiple of the 64-vertex page),
// two vertex and two edge labels, random edges plus self-loops, repeated
// (multi-)edges, and one hub whose out-list is long enough to stay raw
// under APLUS_SEGMENT_COMPRESS=auto.
inline Graph MakeTopologyDigestGraph() {
  Graph graph;
  Catalog& catalog = graph.catalog();
  label_t person = catalog.AddVertexLabel("Person");
  label_t place = catalog.AddVertexLabel("Place");
  label_t knows = catalog.AddEdgeLabel("KNOWS");
  label_t visits = catalog.AddEdgeLabel("VISITS");
  const uint32_t nv = 1037;
  for (uint32_t v = 0; v < nv; ++v) graph.AddVertex(v % 5 == 0 ? place : person);
  Rng rng(20240611);
  for (uint32_t i = 0; i < 6000; ++i) {
    vertex_id_t src = static_cast<vertex_id_t>(rng.NextBounded(nv));
    vertex_id_t dst = static_cast<vertex_id_t>(rng.NextBounded(nv));
    graph.AddEdge(src, dst, rng.NextBounded(3) == 0 ? visits : knows);
  }
  for (vertex_id_t v = 0; v < nv; v += 13) graph.AddEdge(v, v, knows);
  for (edge_id_t e = 0; e < 400; e += 3) {
    graph.AddEdge(graph.edge_src(e), graph.edge_dst(e), graph.edge_label(e));
  }
  for (uint32_t i = 0; i < 300; ++i) graph.AddEdge(7, static_cast<vertex_id_t>(i % 250), knows);
  return graph;
}

// Every property type with nulls: int64, double (NaN, -0.0, infinity),
// bool, category and string on vertices, int64, double, category and
// string on edges. One vertex string is over 64 KiB.
inline Graph MakePropertyDigestGraph() {
  Graph graph;
  Catalog& catalog = graph.catalog();
  label_t account = catalog.AddVertexLabel("Account");
  label_t wire = catalog.AddEdgeLabel("W");
  label_t deposit = catalog.AddEdgeLabel("DD");
  const uint32_t nv = 300;
  for (uint32_t v = 0; v < nv; ++v) graph.AddVertex(account);
  Rng rng(77);
  for (uint32_t i = 0; i < 1500; ++i) {
    graph.AddEdge(static_cast<vertex_id_t>(rng.NextBounded(nv)),
                  static_cast<vertex_id_t>(rng.NextBounded(nv)), i % 4 == 0 ? deposit : wire);
  }

  prop_key_t age = graph.AddVertexProperty("age", ValueType::kInt64);
  prop_key_t score = graph.AddVertexProperty("score", ValueType::kDouble);
  prop_key_t active = graph.AddVertexProperty("active", ValueType::kBool);
  prop_key_t tier = graph.AddVertexProperty("tier", ValueType::kCategory, 4);
  prop_key_t name = graph.AddVertexProperty("name", ValueType::kString);
  for (const char* t : {"bronze", "silver", "gold"}) catalog.RegisterCategoryValue(tier, t);
  PropertyStore& vprops = graph.vertex_props();
  for (vertex_id_t v = 0; v < nv; ++v) {
    if (v % 7 != 0) vprops.mutable_column(age)->SetInt64(v, static_cast<int64_t>(rng.Next()));
    if (v % 5 != 1) {
      double d = v % 11 == 0   ? std::numeric_limits<double>::quiet_NaN()
                 : v % 13 == 0 ? -0.0
                 : v % 17 == 0 ? std::numeric_limits<double>::infinity()
                               : rng.NextDouble() * 1e6 - 5e5;
      vprops.mutable_column(score)->SetDouble(v, d);
    }
    if (v % 3 != 2) vprops.mutable_column(active)->SetBool(v, rng.NextBounded(2) == 1);
    if (v % 9 != 4) {
      vprops.mutable_column(tier)->SetCategory(v, static_cast<category_t>(rng.NextBounded(4)));
    }
    if (v % 6 != 3) {
      vprops.mutable_column(name)->SetString(v, "acct-" + std::to_string(rng.NextBounded(1000)));
    }
  }
  vprops.mutable_column(name)->SetString(10, "");
  std::string long_name(70000, '\0');
  for (size_t i = 0; i < long_name.size(); ++i) long_name[i] = static_cast<char>('a' + i % 26);
  vprops.mutable_column(name)->SetString(41, long_name);

  prop_key_t amount = graph.AddEdgeProperty("amount", ValueType::kInt64);
  prop_key_t rate = graph.AddEdgeProperty("rate", ValueType::kDouble);
  prop_key_t currency = graph.AddEdgeProperty("currency", ValueType::kCategory, 3);
  prop_key_t memo = graph.AddEdgeProperty("memo", ValueType::kString);
  for (const char* c : {"USD", "EUR"}) catalog.RegisterCategoryValue(currency, c);
  PropertyStore& eprops = graph.edge_props();
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    if (e % 10 != 0) eprops.mutable_column(amount)->SetInt64(e, rng.NextInRange(-500, 5000));
    if (e % 8 != 5) {
      double d = e % 29 == 0 ? std::numeric_limits<double>::quiet_NaN() : rng.NextDouble();
      eprops.mutable_column(rate)->SetDouble(e, d);
    }
    if (e % 4 != 1) {
      eprops.mutable_column(currency)->SetCategory(e, static_cast<category_t>(rng.NextBounded(3)));
    }
    if (e % 3 == 0) eprops.mutable_column(memo)->SetString(e, "m" + std::to_string(e));
  }
  return graph;
}

}  // namespace aplus

#endif  // APLUS_TESTS_DIGEST_GRAPHS_H_
