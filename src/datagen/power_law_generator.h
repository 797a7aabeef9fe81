#ifndef APLUS_DATAGEN_POWER_LAW_GENERATOR_H_
#define APLUS_DATAGEN_POWER_LAW_GENERATOR_H_

#include <cstdint>
#include <string>

#include "storage/graph.h"

namespace aplus {

// Parameters for the synthetic power-law graph generator that stands in
// for the paper's public datasets (Orkut, LiveJournal, Wiki-topcats,
// BerkStan; Table I). See DESIGN.md "Substitutions": the generator
// preserves the properties the experiments depend on — skewed degrees and
// a small average degree — while being runnable offline and scaled down.
struct PowerLawParams {
  uint64_t num_vertices = 100000;
  double avg_degree = 15.0;
  // Fraction of edge endpoints chosen by preferential attachment (the
  // rest are uniform). 1.0 gives the heaviest skew.
  double preferential_fraction = 0.75;
  uint64_t seed = 42;
};

// Generates a directed graph into `graph` (which must be empty). All
// vertices get label "V" and all edges label "E"; labels can be
// re-assigned afterwards with AssignRandomLabels (the paper's G_{i,j}
// methodology).
void GeneratePowerLawGraph(const PowerLawParams& params, Graph* graph);

// Named dataset analogue of Table I, scaled by `scale` in (0, 1]:
//   "Ork" 3.0M/117.1M avg 39.03   "LJ" 4.8M/68.5M avg 14.27
//   "WT"  1.8M/28.5M  avg 15.83   "Brk" 685K/7.6M avg 11.09
// At scale s the generated graph has s * paper vertex count (minimum
// 2000) with the paper's average degree preserved.
struct DatasetSpec {
  std::string name;
  uint64_t paper_vertices = 0;
  uint64_t paper_edges = 0;
  double avg_degree = 0.0;
};

// The four Table I datasets.
const DatasetSpec* TableOneDatasets(size_t* count);

// Builds the scaled analogue of dataset `spec`.
void GenerateDataset(const DatasetSpec& spec, double scale, uint64_t seed, Graph* graph);

}  // namespace aplus

#endif  // APLUS_DATAGEN_POWER_LAW_GENERATOR_H_
