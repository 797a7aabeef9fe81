// Plan identity: for a fixed set of queries and index configurations the
// DP optimizer must choose exactly the recorded plan. Each case prints
// every step of the optimizer's outline with the list descriptors and
// residual conjuncts of that step's operators, and the plan's i-cost
// (%.17g); any difference from tests/data/optimizer_plan_golden.txt
// fails the test. Each step's operators must also hold exactly the
// lists and residuals its outline counts: the plan printer renders them
// by those counts.
//
// The cases: MF1-MF5 (pinned and ID-window anchors) under D and
// D+VPc+EPc, MR1-MR3 (literal and $param time windows) under D and
// D+VPt, labelled and unlabelled triangles and a diamond under D, Ds and
// Dp, and 50 seeded queries of the optimizer fuzz test.
//
// The same corpus pins the text PreparedQuery::plan_text renders for
// each case (tests/data/plan_text_golden.txt): every text of a
// configuration is prepared before any plan text is read, and a clone
// leased through a Session and Database::Explain must render the same
// text.
//
// An intended plan change re-records both files:
//   APLUS_UPDATE_GOLDEN=1 ./optimizer_plan_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "optimizer/dp_optimizer.h"
#include "query/cypher_parser.h"
#include "query_corpus.h"
#include "random_query.h"

namespace aplus {
namespace {

const char* const kGoldenPath = APLUS_TEST_DATA_DIR "/optimizer_plan_golden.txt";
const char* const kPlanTextPath = APLUS_TEST_DATA_DIR "/plan_text_golden.txt";

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

// The plan `optimizer` chose for `query`, or "(no plan)": each outline
// step walks its operators as RenderPlanTree does (a kExtendVerify step
// is one extend per list, any other step one operator).
std::string PlanText(DpOptimizer* optimizer, const Graph& graph, const QueryGraph& query) {
  std::unique_ptr<Plan> plan = optimizer->Optimize(query);
  if (plan == nullptr) return "(no plan)\n";
  const auto& ops = plan->primary_ops();
  size_t next_op = 0;
  std::string out;
  for (const StepOutline& step : optimizer->last_outline()) {
    const size_t num_ops = step.kind == StepOutline::Kind::kExtendVerify ? step.num_lists : 1;
    std::vector<const ListDescriptor*> lists;
    std::vector<const QueryComparison*> residuals;
    for (size_t i = 0; i < num_ops && next_op + 1 < ops.size(); ++i, ++next_op) {
      auto [list, num_lists] = ops[next_op]->lists();
      for (size_t j = 0; j < num_lists; ++j) lists.push_back(list + j);
      auto [cmp, num_residual] = ops[next_op]->residuals();
      for (size_t j = 0; j < num_residual; ++j) residuals.push_back(cmp + j);
    }
    EXPECT_EQ(lists.size(), step.num_lists) << "operator " << next_op;
    EXPECT_EQ(residuals.size(), step.num_residual) << "operator " << next_op;
    const bool extends = step.kind != StepOutline::Kind::kScan &&
                         step.kind != StepOutline::Kind::kMultiExtend && !lists.empty();
    out += "  step kind=" + std::to_string(static_cast<int>(step.kind)) +
           " scan=" + std::to_string(step.scan_var) +
           " target=" + std::to_string(extends ? lists.front()->target_vertex_var : -1) + "\n";
    for (const ListDescriptor* list : lists) {
      out += "    list " + ListText(*list, graph.catalog(), query) + "\n";
    }
    for (const QueryComparison* cmp : residuals) {
      out += "    residual " + ComparisonText(*cmp) + "\n";
    }
  }
  EXPECT_EQ(next_op + 1, ops.size()) << "operators beside the outline's steps and the sink";
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

// The plans and the rendered plan texts of the corpus, by case.
struct Recording {
  GoldenLog plans;
  GoldenLog plan_texts;

  void AddPlanText(const std::string& name, const std::string& text) {
    // A plan text ends in a newline; an EXPLAIN error does not.
    plan_texts.Add(name, text.empty() || text.back() == '\n' ? text : text + "\n");
  }

  // Plans every text of `texts` on `db` under the case prefix `prefix`,
  // and records the plan text each renders.
  void AddTexts(Database* db, const std::string& prefix,
                const std::vector<NamedText>& texts) {
    DpOptimizer optimizer(&db->graph(), &db->index_store());
    std::vector<std::unique_ptr<PreparedQuery>> prepared;
    for (const auto& [name, text] : texts) {
      ParsedCypher parsed = ParseCypher(text, db->graph().catalog());
      ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
      SCOPED_TRACE(prefix + " " + name);
      plans.Add(prefix + " " + name, PlanText(&optimizer, db->graph(), parsed.query));
      prepared.push_back(db->Prepare(text));
      ASSERT_TRUE(prepared.back()->ok()) << name << ": " << prepared.back()->error();
    }
    // Every text was prepared before any plan text is read: a plan's
    // text must not depend on the database's later Prepare calls.
    for (size_t i = 0; i < texts.size(); ++i) {
      const std::string name = prefix + " " + texts[i].first;
      const std::string& rendered = prepared[i]->plan_text();
      AddPlanText(name, rendered);
      // A Session leases a clone of the plan cache's master; EXPLAIN
      // prepares afresh.
      Session session(db);
      EXPECT_EQ(session.Prepare(texts[i].second)->plan_text(), rendered) << name;
      EXPECT_EQ(db->Explain(texts[i].second), rendered) << name;
    }
  }
};

void RecordFraud(Recording* log) {
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
  std::vector<NamedText> texts = MfTexts("", PinnedAnchor);
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

void RecordMagicRecs(Recording* log) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 10.0;
  params.seed = 51;
  GeneratePowerLawGraph(params, &graph);
  prop_key_t time_key = AddTimeProperty(52, 1000000, &graph);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::vector<NamedText> texts = MrTexts("", "50000");
  for (auto& text : MrTexts("p", "$alpha")) texts.push_back(text);
  log->AddTexts(&db, "D", texts);
  IndexConfig vpt = IndexConfig::Default();
  vpt.sorts.clear();
  vpt.sorts.push_back({SortSource::kEdgeProp, time_key});
  db.CreateVpIndex("VPt", Predicate(), vpt, Direction::kFwd);
  log->AddTexts(&db, "D+VPt", texts);
}

void RecordTriangles(Recording* log) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1500;
  params.avg_degree = 5.0;
  params.seed = 31;
  GeneratePowerLawGraph(params, &graph);
  AssignRandomLabels(3, 2, 32, &graph);
  Database db(std::move(graph));
  const std::vector<NamedText> texts = ShapeTexts();
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

void RecordFuzz(Recording* log) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed * 7919 + 13);
    FinancialPropKeys keys;
    std::unique_ptr<Database> db = RandomDatabase(seed, &rng, &keys);
    DpOptimizer optimizer(&db->graph(), &db->index_store());
    for (int q = 0; q < 2; ++q) {
      QueryGraph query = RandomQuery(&rng, db->graph(), keys);
      const std::string name = "fuzz seed=" + std::to_string(seed) + " q=" + std::to_string(q);
      SCOPED_TRACE(name);
      log->plans.Add(name, PlanText(&optimizer, db->graph(), query));
      log->AddPlanText(name, db->Explain(query));
    }
  }
}

Recording RecordCorpus() {
  Recording log;
  RecordFraud(&log);
  RecordMagicRecs(&log);
  RecordTriangles(&log);
  RecordFuzz(&log);
  return log;
}

// Compares `log` with the recording at `path`, or re-records it under
// APLUS_UPDATE_GOLDEN.
void ExpectMatchesRecording(const GoldenLog& log, const char* path) {
  ASSERT_EQ(log.order().size(), 20u + 12u + 9u + 50u);
  if (std::getenv("APLUS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << log.Render();
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "re-recorded " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream text;
  text << in.rdbuf();
  std::map<std::string, std::string> expected = GoldenLog::Parse(text.str());
  EXPECT_EQ(expected.size(), log.blocks().size());
  for (const std::string& name : log.order()) {
    auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "case missing from the recording: " << name;
    EXPECT_EQ(it->second, log.blocks().at(name)) << "changed: " << name;
  }
}

TEST(OptimizerPlanGoldenTest, PlansMatchRecording) {
  Recording log = RecordCorpus();
  ASSERT_FALSE(HasFatalFailure());
  ExpectMatchesRecording(log.plans, kGoldenPath);
}

TEST(OptimizerPlanGoldenTest, PlanTextsMatchRecording) {
  Recording log = RecordCorpus();
  ASSERT_FALSE(HasFatalFailure());
  ExpectMatchesRecording(log.plan_texts, kPlanTextPath);
}

}  // namespace
}  // namespace aplus
