#include "datagen/power_law_generator.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace aplus {

void GeneratePowerLawGraph(const PowerLawParams& params, Graph* graph) {
  APLUS_CHECK_EQ(graph->num_vertices(), 0u) << "generator needs an empty graph";
  APLUS_CHECK_GT(params.num_vertices, 1u);
  Rng rng(params.seed);
  label_t vlabel = graph->catalog().AddVertexLabel("V");
  label_t elabel = graph->catalog().AddEdgeLabel("E");
  for (uint64_t i = 0; i < params.num_vertices; ++i) graph->AddVertex(vlabel);

  uint64_t target_edges =
      static_cast<uint64_t>(params.avg_degree * static_cast<double>(params.num_vertices));
  // `endpoint_pool` implements preferential attachment: every time an edge
  // touches a vertex we append it, so future draws are degree-biased.
  std::vector<vertex_id_t> endpoint_pool;
  endpoint_pool.reserve(2 * target_edges + 2);
  endpoint_pool.push_back(0);
  endpoint_pool.push_back(1 % static_cast<vertex_id_t>(params.num_vertices));

  auto draw = [&](bool preferential) -> vertex_id_t {
    if (preferential && !endpoint_pool.empty()) {
      return endpoint_pool[rng.NextBounded(endpoint_pool.size())];
    }
    return static_cast<vertex_id_t>(rng.NextBounded(params.num_vertices));
  };

  for (uint64_t i = 0; i < target_edges; ++i) {
    bool src_pref = rng.NextDouble() < params.preferential_fraction;
    bool dst_pref = rng.NextDouble() < params.preferential_fraction;
    vertex_id_t src = draw(src_pref);
    vertex_id_t dst = draw(dst_pref);
    if (src == dst) dst = static_cast<vertex_id_t>((dst + 1) % params.num_vertices);
    graph->AddEdge(src, dst, elabel);
    endpoint_pool.push_back(src);
    endpoint_pool.push_back(dst);
  }
}

namespace {
const DatasetSpec kDatasets[] = {
    {"Ork", 3000000, 117100000, 39.03},
    {"LJ", 4800000, 68500000, 14.27},
    {"WT", 1800000, 28500000, 15.83},
    {"Brk", 685000, 7600000, 11.09},
};
}  // namespace

const DatasetSpec* TableOneDatasets(size_t* count) {
  *count = sizeof(kDatasets) / sizeof(kDatasets[0]);
  return kDatasets;
}

void GenerateDataset(const DatasetSpec& spec, double scale, uint64_t seed, Graph* graph) {
  PowerLawParams params;
  params.num_vertices =
      std::max<uint64_t>(2000, static_cast<uint64_t>(scale * static_cast<double>(spec.paper_vertices)));
  params.avg_degree = spec.avg_degree;
  params.seed = seed;
  GeneratePowerLawGraph(params, graph);
}

}  // namespace aplus
