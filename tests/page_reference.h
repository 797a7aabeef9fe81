// Brute-force reference for the bucketed page build (index/page_build.h),
// shared by the primary and VP identity tests: every page is rebuilt by
// one page-wide sort on (slot, SortKey), with slots and keys from the
// per-entry PrimaryIndex::BucketOf / ComputeSortKey. Also builds a small
// graph holding the shapes that stress list order.

#ifndef APLUS_TESTS_PAGE_REFERENCE_H_
#define APLUS_TESTS_PAGE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "index/primary_index.h"
#include "index/vp_index.h"
#include "util/bit_util.h"
#include "util/rng.h"

namespace aplus {

struct EdgeCaseGraph {
  Graph graph;
  prop_key_t cur = kInvalidPropKey;     // edge category, domain 3, some null
  prop_key_t amount = kInvalidPropKey;  // edge int64 with many ties, some null
  prop_key_t weight = kInvalidPropKey;  // edge double with null, NaN and +-0
  prop_key_t city = kInvalidPropKey;    // vertex category, domain 4, some null
};

// Picks the label, endpoints and properties of one more random edge.
inline edge_id_t AddEdgeCaseEdge(EdgeCaseGraph* g, Rng* rng, uint64_t active) {
  Graph& graph = g->graph;
  vertex_id_t src;
  vertex_id_t dst;
  uint64_t shape = rng->NextBounded(8);
  edge_id_t ne = graph.num_edges();
  if (shape == 0 && ne > 0) {
    // A multi-edge: repeat an earlier pair.
    edge_id_t prev = rng->NextBounded(ne);
    src = graph.edge_src(prev);
    dst = graph.edge_dst(prev);
  } else if (shape == 1) {
    src = static_cast<vertex_id_t>(rng->NextBounded(active));
    dst = src;  // a self-loop
  } else {
    // Vertex 0 is a hub, so some lists span many entries.
    src = shape == 2 ? 0 : static_cast<vertex_id_t>(rng->NextBounded(active));
    dst = shape == 3 ? 0 : static_cast<vertex_id_t>(rng->NextBounded(active));
  }
  edge_id_t e = graph.AddEdge(src, dst, static_cast<label_t>(rng->NextBounded(2)));
  PropertyColumn* cur = graph.edge_props().mutable_column(g->cur);
  PropertyColumn* amount = graph.edge_props().mutable_column(g->amount);
  PropertyColumn* weight = graph.edge_props().mutable_column(g->weight);
  if (rng->NextBounded(4) != 0) cur->SetCategory(e, static_cast<category_t>(rng->NextBounded(3)));
  if (rng->NextBounded(5) != 0) amount->SetInt64(e, static_cast<int64_t>(rng->NextBounded(7)) - 3);
  static const double kWeights[] = {-1.5, -0.0, 0.0, 2.25, 1e300,
                                    std::numeric_limits<double>::quiet_NaN()};
  if (rng->NextBounded(6) != 0) weight->SetDouble(e, kWeights[rng->NextBounded(6)]);
  return e;
}

// `num_vertices` vertices (choose it off a multiple of 64) over three
// vertex labels and two edge labels; the last 20 vertices stay isolated.
// Edges include multi-edges, self-loops and a hub.
inline EdgeCaseGraph MakeEdgeCaseGraph(uint64_t seed, uint64_t num_vertices,
                                       uint64_t num_edges) {
  EdgeCaseGraph g;
  Catalog& catalog = g.graph.catalog();
  for (const char* name : {"A", "B", "C"}) catalog.AddVertexLabel(name);
  catalog.AddEdgeLabel("X");
  catalog.AddEdgeLabel("Y");
  g.cur = g.graph.AddEdgeProperty("cur", ValueType::kCategory, 3);
  g.amount = g.graph.AddEdgeProperty("amount", ValueType::kInt64);
  g.weight = g.graph.AddEdgeProperty("weight", ValueType::kDouble);
  g.city = g.graph.AddVertexProperty("city", ValueType::kCategory, 4);
  Rng rng(seed);
  for (uint64_t v = 0; v < num_vertices; ++v) {
    vertex_id_t id = g.graph.AddVertex(static_cast<label_t>(v % 3));
    if (rng.NextBounded(5) != 0) {
      g.graph.vertex_props().mutable_column(g.city)->SetCategory(
          id, static_cast<category_t>(rng.NextBounded(4)));
    }
  }
  for (uint64_t i = 0; i < num_edges; ++i) AddEdgeCaseEdge(&g, &rng, num_vertices - 20);
  return g;
}

// The configs every identity test covers.
inline std::vector<std::pair<std::string, IndexConfig>> IdentityConfigs(const EdgeCaseGraph& g) {
  std::vector<std::pair<std::string, IndexConfig>> configs;
  configs.emplace_back("D", IndexConfig::Default());
  configs.emplace_back("Flat", IndexConfig::Flat());
  IndexConfig unsorted = IndexConfig::Default();
  unsorted.sorts.clear();
  configs.emplace_back("D, no sort", unsorted);
  IndexConfig by_vlabel;
  by_vlabel.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
  by_vlabel.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  configs.emplace_back("PARTITION BY vnbr.label", by_vlabel);
  IndexConfig by_cur;
  by_cur.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  by_cur.partitions.push_back({PartitionSource::kEdgeProp, g.cur});
  by_cur.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  configs.emplace_back("PARTITION BY eadj.label, eadj.cur", by_cur);
  IndexConfig by_amount = IndexConfig::Default();
  by_amount.sorts = {{SortSource::kEdgeProp, g.amount}};
  configs.emplace_back("SORT BY eadj.amount", by_amount);
  IndexConfig by_weight = IndexConfig::Flat();
  by_weight.sorts = {{SortSource::kEdgeProp, g.weight}};
  configs.emplace_back("SORT BY eadj.weight", by_weight);
  IndexConfig two_keys;
  two_keys.partitions.push_back({PartitionSource::kNbrProp, g.city});
  two_keys.sorts = {{SortSource::kNbrLabel, kInvalidPropKey}, {SortSource::kEdgeProp, g.amount}};
  configs.emplace_back("PARTITION BY vnbr.city SORT BY vnbr.label, eadj.amount", two_keys);
  return configs;
}

inline std::vector<uint32_t> ReferenceFanouts(const Graph& graph, const IndexConfig& config) {
  std::vector<uint32_t> fanouts;
  for (const PartitionCriterion& p : config.partitions) {
    fanouts.push_back(PartitionFanout(graph.catalog(), p));
  }
  return fanouts;
}

inline uint32_t Product(const std::vector<uint32_t>& fanouts) {
  uint32_t product = 1;
  for (uint32_t f : fanouts) product *= f;
  return product;
}

struct RefEntry {
  uint32_t slot;
  SortKey key;
  uint32_t payload;  // VP: offset in the owner's primary list
};

// Page-wide sort on (slot, SortKey); fills `csr` with num_slots + 1
// prefix counts when it is non-null.
inline void SortReference(std::vector<RefEntry>* entries, uint32_t num_slots,
                          std::vector<uint32_t>* csr) {
  std::sort(entries->begin(), entries->end(), [](const RefEntry& a, const RefEntry& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    return a.key < b.key;
  });
  if (csr == nullptr) return;
  csr->assign(num_slots + 1, 0);
  for (const RefEntry& entry : *entries) (*csr)[entry.slot + 1]++;
  for (uint32_t s = 0; s < num_slots; ++s) (*csr)[s + 1] += (*csr)[s];
}

// Expects every page of `index` to equal the reference build of the
// edges in `live` (a flag per edge id) under the index's config, and
// MemoryBytes to equal exact-size stores.
inline void ExpectPrimaryMatchesReference(const PrimaryIndex& index,
                                          const std::vector<bool>& live) {
  const Graph& graph = *index.graph();
  const IndexConfig& config = index.config();
  std::vector<uint32_t> fanouts = ReferenceFanouts(graph, config);
  uint32_t fp = Product(fanouts);
  uint32_t num_pages =
      static_cast<uint32_t>((graph.num_vertices() + kGroupSize - 1) / kGroupSize);
  ASSERT_EQ(index.num_pages(), num_pages);
  std::vector<std::vector<RefEntry>> pages(num_pages);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    if (!live[e]) continue;
    vertex_id_t owner = index.OwnerOf(e);
    vertex_id_t nbr = index.NbrOf(e);
    pages[owner / kGroupSize].push_back({(owner % kGroupSize) * fp +
                                             index.BucketOf(config, fanouts, e, nbr),
                                         index.ComputeSortKey(config, e, nbr), 0});
  }
  size_t bytes = 0;
  for (uint32_t p = 0; p < num_pages; ++p) {
    SCOPED_TRACE("page " + std::to_string(p));
    std::vector<uint32_t> csr;
    SortReference(&pages[p], kGroupSize * fp, &csr);
    const IdListPage& page = index.page(p);
    ASSERT_EQ(page.csr_len, csr.size());
    EXPECT_TRUE(std::equal(csr.begin(), csr.end(), page.csr));
    ASSERT_EQ(page.num_entries, pages[p].size());
    for (size_t i = 0; i < pages[p].size(); ++i) {
      ASSERT_EQ(page.nbrs[i], pages[p][i].key.nbr) << "entry " << i;
      ASSERT_EQ(page.eids[i], pages[p][i].key.eid) << "entry " << i;
    }
    bytes += csr.size() * sizeof(uint32_t) +
             pages[p].size() * (sizeof(vertex_id_t) + sizeof(edge_id_t));
  }
  EXPECT_EQ(index.MemoryBytes(), bytes);
}

// Expects every page of `vp` (built over a clean primary index) to equal
// the reference build of its view, and MemoryBytes to match.
inline void ExpectVpMatchesReference(const VpIndex& vp) {
  const PrimaryIndex& primary = *vp.primary();
  const Graph& graph = *primary.graph();
  const bool shared = vp.shares_partition_levels();
  const IndexConfig& config = vp.config();
  std::vector<uint32_t> fanouts = ReferenceFanouts(graph, config);
  uint32_t fp = shared ? primary.fanout_product() : Product(fanouts);
  ASSERT_EQ(vp.num_pages(), primary.num_pages());
  size_t bytes = 0;
  for (uint32_t p = 0; p < vp.num_pages(); ++p) {
    SCOPED_TRACE("page " + std::to_string(p));
    std::vector<RefEntry> entries;
    const IdListPage& ppage = primary.page(p);
    for (uint32_t s = 0; s < kGroupSize; ++s) {
      vertex_id_t v = p * kGroupSize + s;
      if (v >= graph.num_vertices()) break;
      const vertex_id_t* nbrs;
      const edge_id_t* eids;
      uint32_t len;
      primary.GetListBase(v, &nbrs, &eids, &len);
      for (uint32_t i = 0; i < len; ++i) {
        EvalContext ctx;
        ctx.graph = &graph;
        ctx.adj_edge = eids[i];
        ctx.nbr = nbrs[i];
        ctx.src = graph.edge_src(eids[i]);
        ctx.dst = graph.edge_dst(eids[i]);
        if (!vp.view().pred.Eval(ctx)) continue;
        uint32_t slot;
        if (shared) {
          // The primary innermost bucket holding entry i.
          uint32_t pos = ppage.csr[s * fp] + i;
          slot = s * fp;
          while (ppage.csr[slot + 1] <= pos) ++slot;
        } else {
          slot = s * fp + primary.BucketOf(config, fanouts, eids[i], nbrs[i]);
        }
        entries.push_back({slot, primary.ComputeSortKey(config, eids[i], nbrs[i]), i});
      }
    }
    std::vector<uint32_t> csr;
    SortReference(&entries, kGroupSize * fp, shared ? nullptr : &csr);
    const OffsetListPage& page = vp.page(p);
    EXPECT_EQ(page.csr, csr);
    uint32_t max_offset = 0;
    for (const RefEntry& entry : entries) max_offset = std::max(max_offset, entry.payload);
    ASSERT_EQ(page.width, BytesForValue(max_offset));
    ASSERT_EQ(page.num_entries(), entries.size());
    for (uint32_t i = 0; i < entries.size(); ++i) {
      ASSERT_EQ(page.OffsetAt(i), entries[i].payload) << "entry " << i;
    }
    bytes += csr.size() * sizeof(uint32_t) + entries.size() * page.width;
  }
  EXPECT_EQ(vp.MemoryBytes(), bytes);
}

}  // namespace aplus

#endif  // APLUS_TESTS_PAGE_REFERENCE_H_
