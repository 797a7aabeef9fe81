// Plan identity: for a fixed set of queries and index configurations the
// DP optimizer must choose exactly the recorded plan. Each case prints
// DescribeSteps(), every list descriptor and residual conjunct of every
// step, and the plan's i-cost (%.17g); any difference from
// tests/data/optimizer_plan_golden.txt fails the test.
//
// The cases: MF1-MF5 (pinned and ID-window anchors) under D and
// D+VPc+EPc, MR1-MR3 (literal and $param time windows) under D and
// D+VPt, labelled and unlabelled triangles and a diamond under D, Ds and
// Dp, and 50 seeded queries of the optimizer fuzz test.
//
// An intended plan change re-records the file:
//   APLUS_UPDATE_GOLDEN=1 ./optimizer_plan_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "optimizer/dp_optimizer.h"
#include "query/cypher_parser.h"
#include "random_query.h"

namespace aplus {
namespace {

const char* const kGoldenPath = APLUS_TEST_DATA_DIR "/optimizer_plan_golden.txt";

std::string RefText(const QueryPropRef& ref) {
  std::string out = (ref.is_edge ? "e" : "v") + std::to_string(ref.var) + ".";
  return out + (ref.is_id ? std::string("ID") : "k" + std::to_string(ref.key));
}

std::string ComparisonText(const QueryComparison& cmp) {
  std::string out = RefText(cmp.lhs) + " op" + std::to_string(static_cast<int>(cmp.op)) + " ";
  if (cmp.rhs_param >= 0) {
    out += "$" + std::to_string(cmp.rhs_param);
  } else if (cmp.rhs_is_const) {
    out += cmp.rhs_const.ToString();
  } else {
    out += RefText(cmp.rhs_ref);
  }
  if (cmp.rhs_addend != 0) out += "+" + std::to_string(cmp.rhs_addend);
  return out;
}

std::string ListText(const ListDescriptor& list, const Catalog& catalog,
                     const QueryGraph& query) {
  std::ostringstream out;
  out << list.Describe(catalog, query) << " e" << list.target_edge_var
      << " sorted=" << list.nbr_sorted << " tb=" << list.target_bound
      << " vl=" << list.target_vertex_label << " el=" << list.edge_label_filter;
  if (list.has_lower_bound) {
    out << " lo" << (list.lower_strict ? ">" : ">=") << list.lower_bound << "/$"
        << list.lower_bound_param;
  }
  if (list.has_upper_bound) {
    out << " hi" << (list.upper_strict ? "<" : "<=") << list.upper_bound << "/$"
        << list.upper_bound_param;
  }
  if (list.bound_param_double) out << " dbl";
  return out.str();
}

// The plan `optimizer` chose for `query`, or "(no plan)".
std::string PlanText(DpOptimizer* optimizer, const Graph& graph, const QueryGraph& query) {
  if (optimizer->Optimize(query) == nullptr) return "(no plan)\n";
  std::string out = optimizer->DescribeSteps(query);
  for (const PlanStep& step : optimizer->last_steps()) {
    out += "  step kind=" + std::to_string(static_cast<int>(step.kind)) +
           " scan=" + std::to_string(step.scan_var) +
           " target=" + std::to_string(step.target_var) + "\n";
    for (const ListDescriptor& list : step.lists) {
      out += "    list " + ListText(list, graph.catalog(), query) + "\n";
    }
    for (const QueryComparison& cmp : step.residual) {
      out += "    residual " + ComparisonText(cmp) + "\n";
    }
  }
  char cost[64];
  std::snprintf(cost, sizeof(cost), "cost %.17g\n", optimizer->last_cost());
  return out + cost;
}

// Accumulates "== <case>" blocks in recording order.
class GoldenLog {
 public:
  void Add(const std::string& name, const std::string& body) {
    order_.push_back(name);
    blocks_[name] = body;
  }
  // Plans every text of `texts` on `db` under the case prefix `prefix`.
  void AddTexts(Database* db, const std::string& prefix,
                const std::vector<std::pair<std::string, std::string>>& texts) {
    DpOptimizer optimizer(&db->graph(), &db->index_store());
    for (const auto& [name, text] : texts) {
      ParsedCypher parsed = ParseCypher(text, db->graph().catalog());
      ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
      Add(prefix + " " + name, PlanText(&optimizer, db->graph(), parsed.query));
    }
  }
  std::string Render() const {
    std::string out;
    for (const std::string& name : order_) out += "== " + name + "\n" + blocks_.at(name);
    return out;
  }
  static std::map<std::string, std::string> Parse(const std::string& text) {
    std::map<std::string, std::string> blocks;
    std::istringstream in(text);
    std::string line;
    std::string* body = nullptr;
    while (std::getline(in, line)) {
      if (line.rfind("== ", 0) == 0) {
        body = &blocks[line.substr(3)];
      } else if (body != nullptr) {
        *body += line + "\n";
      }
    }
    return blocks;
  }
  const std::vector<std::string>& order() const { return order_; }
  const std::map<std::string, std::string>& blocks() const { return blocks_; }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::string> blocks_;
};

// Pf(ei, ej) with the benchmark's amount cut of 50.
std::string Flow(const std::string& ei, const std::string& ej) {
  return ei + ".date < " + ej + ".date, " + ei + ".amount > " + ej + ".amount, " + ei +
         ".amount < " + ej + ".amount + 50";
}

// MF1..MF5 (Section V-C2, Figure 5) as the ad hoc fraud texts write
// them; `pin(anchor)` supplies the anchor's ID terms.
std::vector<std::pair<std::string, std::string>> MfTexts(
    const std::string& tag, std::string (*pin)(const std::string&)) {
  const std::string tail = " RETURN COUNT(*)";
  return {
      {"MF1" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a1) WHERE " + pin("a1") +
           ", a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a2.city = a4.city" + tail},
      {"MF2" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4) WHERE " + pin("a1") +
           ", a1.city = a2.city, a2.city = a3.city, a3.city = a4.city" + tail},
      {"MF3" + tag,
       "MATCH (a1)-[e1:E]->(a2), (a1)-[e2:E]->(a3)-[e3:E]->(a5), (a1)-[e4:E]->(a4) WHERE " +
           pin("a3") +
           ", a2.city = a4.city, a4.city = a5.city, a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, "
           "a4.acc = CQ, a5.acc = SV, " +
           Flow("e2", "e3") + tail},
      {"MF4" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3), (a1)-[e3:E]->(a4)-[e4:E]->(a5) WHERE " +
           pin("a1") +
           ", a1.city = 5, a2.city = a4.city, a2.acc = CQ, a3.acc = CQ, a4.acc = SV, "
           "a5.acc = SV, " +
           Flow("e1", "e2") + ", " + Flow("e3", "e4") + tail},
      {"MF5" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a5) WHERE " + pin("a1") +
           ", a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a5.acc = CQ, " +
           Flow("e1", "e2") + ", " + Flow("e2", "e3") + ", " + Flow("e3", "e4") + tail},
  };
}

std::string PinnedAnchor(const std::string& anchor) { return anchor + ".ID = 17"; }
std::string WindowAnchor(const std::string& anchor) {
  return anchor + ".ID >= 100, " + anchor + ".ID < 400";
}

void RecordFraud(GoldenLog* log) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 8.0;
  params.seed = 41;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(42, &graph, kNumCities);
  graph.catalog().RegisterCategoryValue(keys.acc, "CQ");
  graph.catalog().RegisterCategoryValue(keys.acc, "SV");
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::vector<std::pair<std::string, std::string>> texts = MfTexts("", PinnedAnchor);
  for (auto& text : MfTexts("w", WindowAnchor)) texts.push_back(text);
  log->AddTexts(&db, "D", texts);
  ASSERT_TRUE(db.ExecuteDdl("CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW "
                            "PARTITION BY eadj.label SORT BY vnbr.city")
                  .ok);
  ASSERT_TRUE(db.ExecuteDdl("CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr "
                            "WHERE eb.date<eadj.date, eadj.amount<eb.amount, "
                            "eb.amount<eadj.amount+50 INDEX AS PARTITION BY eadj.label, "
                            "vnbr.acc SORT BY vnbr.city")
                  .ok);
  log->AddTexts(&db, "D+VPc+EPc", texts);
}

// MR1..MR3 (Section V-C1, Figure 4): a1 recently followed a2..a(k);
// find their common follower. `window` is the time bound's right side.
std::vector<std::pair<std::string, std::string>> MrTexts(const std::string& tag,
                                                         const std::string& window) {
  std::vector<std::pair<std::string, std::string>> texts;
  for (int mr = 1; mr <= 3; ++mr) {
    int followed = mr;  // a2..a(mr+1)
    std::string rec = "a" + std::to_string(followed + 2);
    std::string match;
    std::string where = "a1.ID = 3";
    for (int i = 0; i < followed; ++i) {
      std::string a = "a" + std::to_string(i + 2);
      std::string n = std::to_string(i + 1);
      if (i > 0) match += ", ";
      match += "(a1)-[e" + n + ":E]->(" + a + "), (" + rec + ")-[f" + n + ":E]->(" + a + ")";
      where += ", e" + n + ".time < " + window;
    }
    texts.push_back({"MR" + std::to_string(mr) + tag,
                     "MATCH " + match + " WHERE " + where + " RETURN COUNT(*)"});
  }
  return texts;
}

void RecordMagicRecs(GoldenLog* log) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 10.0;
  params.seed = 51;
  GeneratePowerLawGraph(params, &graph);
  prop_key_t time_key = AddTimeProperty(52, 1000000, &graph);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::vector<std::pair<std::string, std::string>> texts = MrTexts("", "50000");
  for (auto& text : MrTexts("p", "$alpha")) texts.push_back(text);
  log->AddTexts(&db, "D", texts);
  IndexConfig vpt = IndexConfig::Default();
  vpt.sorts.clear();
  vpt.sorts.push_back({SortSource::kEdgeProp, time_key});
  db.CreateVpIndex("VPt", Predicate(), vpt, Direction::kFwd);
  log->AddTexts(&db, "D+VPt", texts);
}

void RecordTriangles(GoldenLog* log) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1500;
  params.avg_degree = 5.0;
  params.seed = 31;
  GeneratePowerLawGraph(params, &graph);
  AssignRandomLabels(3, 2, 32, &graph);
  Database db(std::move(graph));
  const std::vector<std::pair<std::string, std::string>> texts = {
      {"labelled-triangle",
       "MATCH (a:VL0)-[r1:EL0]->(b)-[r2:EL0]->(c), (a)-[r3:EL1]->(c) RETURN COUNT(*)"},
      {"unlabelled-triangle", "MATCH (a)-[r1]->(b)-[r2]->(c), (a)-[r3]->(c) RETURN COUNT(*)"},
      {"labelled-diamond",
       "MATCH (a)-[r1:EL0]->(b:VL1)-[r3:EL1]->(d), (a)-[r2:EL0]->(c:VL1)-[r4:EL1]->(d) "
       "RETURN COUNT(*)"},
  };
  IndexConfig ds = IndexConfig::Default();
  ds.sorts.clear();
  ds.sorts.push_back({SortSource::kNbrLabel, kInvalidPropKey});
  ds.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  IndexConfig dp = IndexConfig::Default();
  dp.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
  for (const auto& [name, config] :
       {std::pair<std::string, IndexConfig>{"D", IndexConfig::Default()}, {"Ds", ds},
        {"Dp", dp}}) {
    db.BuildPrimaryIndexes(config);
    log->AddTexts(&db, name, texts);
  }
}

void RecordFuzz(GoldenLog* log) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed * 7919 + 13);
    FinancialPropKeys keys;
    std::unique_ptr<Database> db = RandomDatabase(seed, &rng, &keys);
    DpOptimizer optimizer(&db->graph(), &db->index_store());
    for (int q = 0; q < 2; ++q) {
      QueryGraph query = RandomQuery(&rng, db->graph(), keys);
      log->Add("fuzz seed=" + std::to_string(seed) + " q=" + std::to_string(q),
               PlanText(&optimizer, db->graph(), query));
    }
  }
}

TEST(OptimizerPlanGoldenTest, PlansMatchRecording) {
  GoldenLog log;
  RecordFraud(&log);
  RecordMagicRecs(&log);
  RecordTriangles(&log);
  RecordFuzz(&log);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(log.order().size(), 20u + 12u + 9u + 50u);

  if (std::getenv("APLUS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    out << log.Render();
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    GTEST_SKIP() << "re-recorded " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "cannot read " << kGoldenPath;
  std::stringstream text;
  text << in.rdbuf();
  std::map<std::string, std::string> expected = GoldenLog::Parse(text.str());
  EXPECT_EQ(expected.size(), log.blocks().size());
  for (const std::string& name : log.order()) {
    auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "case missing from the recording: " << name;
    EXPECT_EQ(it->second, log.blocks().at(name)) << "plan changed: " << name;
  }
}

}  // namespace
}  // namespace aplus
