// End-to-end tests on generated datasets: every query is evaluated under
// several index configurations (the paper's D / Ds / Dp / D+VPc /
// D+VPc+EPc), each set up by its DDL text, against the oracle
// (tests/oracle.h) and the linked-list baseline engine; all must agree.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/linked_list_engine.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "oracle.h"

namespace aplus {
namespace {

Graph PowerLaw(uint64_t num_vertices, double avg_degree, uint64_t seed,
               double preferential_fraction) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = num_vertices;
  params.avg_degree = avg_degree;
  params.seed = seed;
  params.preferential_fraction = preferential_fraction;
  GeneratePowerLawGraph(params, &graph);
  return graph;
}

// Checks each text (a COUNT(*)) under the database's indexes, then under
// each DDL in turn, against the oracle at 1 and 4 threads, and the
// linked-list baseline's count against the oracle's.
void ExpectConfigsAgree(Database* db, const std::vector<std::string>& texts,
                        const std::vector<std::string>& ddls) {
  std::vector<OracleResult> wants;
  LinkedListEngine ll(&db->graph());
  for (const std::string& text : texts) {
    wants.push_back(Oracle(db->graph(), text));
    ASSERT_EQ(wants.back().rows.size(), 1u);
    const int64_t count = wants.back().rows[0][0].AsInt64();
    EXPECT_GT(count, 0) << text;
    EXPECT_EQ(static_cast<int64_t>(ll.CountMatches(OracleParse(db->graph(), text).query)), count)
        << "linked-list baseline: " << text;
  }
  for (size_t config = 0; config <= ddls.size(); ++config) {
    if (config > 0) {
      const DdlResult result = db->ExecuteDdl(ddls[config - 1]);
      ASSERT_TRUE(result.ok) << ddls[config - 1] << ": " << result.message;
    }
    SCOPED_TRACE(config == 0 ? "D" : ddls[config - 1]);
    for (size_t i = 0; i < texts.size(); ++i) ExpectExecutionsMatch(db, texts[i], {}, wants[i]);
  }
}

TEST(IntegrationTest, ConfigsAgreeOnLabelledSubgraphQueries) {
  Graph graph = PowerLaw(1500, 5.0, 31, 0.75);
  AssignRandomLabels(3, 2, 32, &graph);
  ShapedDatabase db;
  db.Open(std::move(graph), DbShape::kInMemory);
  // Labelled path, triangle, diamond.
  const std::vector<std::string> texts = {
      "MATCH (a:VL0)-[:EL0]->(b:VL1)-[:EL1]->(c:VL0) RETURN COUNT(*)",
      "MATCH (a:VL0)-[:EL0]->(b)-[:EL0]->(c), (a)-[:EL1]->(c) RETURN COUNT(*)",
      "MATCH (a)-[:EL0]->(b:VL1)-[:EL1]->(d), (a)-[:EL0]->(c:VL1)-[:EL1]->(d) RETURN COUNT(*)"};
  // D; Ds (sorted by neighbour label, then ID); Dp (neighbour-label
  // partitions).
  ExpectConfigsAgree(db.get(), texts,
                     {"RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label "
                      "SORT BY vnbr.label, vnbr.ID",
                      "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label"});
}

TEST(IntegrationTest, FraudConfigsAgree) {
  Graph graph = PowerLaw(1000, 6.0, 77, 0.75);
  AddFinancialProperties(78, &graph, 15);
  ShapedDatabase db;
  db.Open(std::move(graph), DbShape::kInMemory);
  // MF1-style square with city equality, a1 restricted to keep runtime
  // small; D, then D+VPc (city-sorted, both directions).
  const std::vector<std::string> texts = {
      "MATCH (a1)-[e1]->(a2)-[e2]->(a3)-[e3]->(a4), (a4)-[e4]->(a1) "
      "WHERE a2.city = a4.city, a1.ID < 50 RETURN COUNT(*)"};
  ExpectConfigsAgree(db.get(), texts,
                     {"CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW "
                      "PARTITION BY eadj.label SORT BY vnbr.city"});
}

// Uniform endpoints keep the EP lists shorter than the primary ones, so
// the optimizer extends a2->a3 through the EP index.
TEST(IntegrationTest, MoneyFlowWithEpIndexAgrees) {
  Graph graph = PowerLaw(600, 6.0, 99, 0.0);
  AddFinancialProperties(11, &graph, 10);
  ShapedDatabase db;
  db.Open(std::move(graph), DbShape::kInMemory);
  const std::string text =
      "MATCH (a1)-[e1]->(a2)-[e2]->(a3) "
      "WHERE e1.date < e2.date, e1.amount > e2.amount, a1.ID < 100 RETURN COUNT(*)";
  ExpectConfigsAgree(db.get(), {text},
                     {"CREATE 2-HOP VIEW MoneyFlow MATCH vs-[eb]->vd-[eadj]->vnbr "
                      "WHERE eb.date<eadj.date, eb.amount>eadj.amount "
                      "INDEX AS PARTITION BY eadj.label SORT BY vnbr.ID"});
  EXPECT_NE(db->Explain(text).find("EP:MoneyFlow"), std::string::npos) << db->Explain(text);
}

TEST(IntegrationTest, CitySortedEpIndexAgreesOnCityEquality) {
  Graph graph = PowerLaw(1200, 8.0, 5, 0.0);
  AddFinancialProperties(6, &graph, 25);
  ShapedDatabase db;
  db.Open(std::move(graph), DbShape::kInMemory);
  const std::string text =
      "MATCH (a1)-[e1]->(a2)-[e2]->(a3) "
      "WHERE e1.date < e2.date, e1.amount > e2.amount, a1.ID < 300, a1.city = a3.city "
      "RETURN COUNT(*)";
  // The same count through a city-sorted EP index.
  ExpectConfigsAgree(db.get(), {text},
                     {"CREATE 2-HOP VIEW FlowCity MATCH vs-[eb]->vd-[eadj]->vnbr "
                      "WHERE eb.date<eadj.date, eb.amount>eadj.amount "
                      "INDEX AS PARTITION BY eadj.label SORT BY vnbr.city"});
  EXPECT_NE(db->Explain(text).find("EP:FlowCity"), std::string::npos) << db->Explain(text);
}

}  // namespace
}  // namespace aplus
