// Parses the exact DDL commands that appear in Section III of the paper.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/example_graph.h"
#include "query/ddl_parser.h"

namespace aplus {
namespace {

// The Figure 1 graph with its currency categories named, so identifier
// constants resolve.
ExampleGraph ExampleWithCurrencies() {
  ExampleGraph ex = BuildExampleGraph();
  for (const char* currency : {"USD", "EUR", "GBP"}) {
    ex.graph.catalog().RegisterCategoryValue(ex.currency_key, currency);
  }
  return ex;
}

class DdlParserTest : public ::testing::Test {
 protected:
  DdlParserTest() : ex_(ExampleWithCurrencies()) {}
  ExampleGraph ex_;
};

TEST_F(DdlParserTest, ReconfigureFromSectionIII) {
  DdlCommand cmd = ParseDdl(
      "RECONFIGURE PRIMARY INDEXES "
      "PARTITION BY eadj.label, eadj.currency "
      "SORT BY vnbr.city",
      ex_.graph.catalog());
  ASSERT_TRUE(cmd.ok()) << cmd.error;
  EXPECT_EQ(cmd.kind, DdlCommand::Kind::kReconfigure);
  ASSERT_EQ(cmd.config.partitions.size(), 2u);
  EXPECT_EQ(cmd.config.partitions[0].source, PartitionSource::kEdgeLabel);
  EXPECT_EQ(cmd.config.partitions[1].source, PartitionSource::kEdgeProp);
  EXPECT_EQ(cmd.config.partitions[1].key, ex_.currency_key);
  ASSERT_EQ(cmd.config.sorts.size(), 1u);
  EXPECT_EQ(cmd.config.sorts[0].source, SortSource::kNbrProp);
  EXPECT_EQ(cmd.config.sorts[0].key, ex_.city_key);
}

TEST_F(DdlParserTest, AcceptsPaperTypoPartiton) {
  DdlCommand cmd = ParseDdl(
      "RECONFIGURE PRIMARY INDEXES PARTITON BY eadj.label SORT BY vnbr.city",
      ex_.graph.catalog());
  ASSERT_TRUE(cmd.ok()) << cmd.error;
  EXPECT_EQ(cmd.config.partitions.size(), 1u);
}

TEST_F(DdlParserTest, CreateOneHopViewFromExample6) {
  DdlCommand cmd = ParseDdl(
      "CREATE 1-HOP VIEW LargeUSDTrnx "
      "MATCH vs-[eadj]->vd "
      "WHERE eadj.currency=USD, eadj.amount>10000 "
      "INDEX AS FW-BW "
      "PARTITION BY eadj.label SORT BY vnbr.ID",
      ex_.graph.catalog());
  ASSERT_TRUE(cmd.ok()) << cmd.error;
  EXPECT_EQ(cmd.kind, DdlCommand::Kind::kCreateVp);
  EXPECT_EQ(cmd.view_name, "LargeUSDTrnx");
  EXPECT_TRUE(cmd.fwd);
  EXPECT_TRUE(cmd.bwd);
  ASSERT_EQ(cmd.pred.conjuncts().size(), 2u);
  const Comparison& currency = cmd.pred.conjuncts()[0];
  EXPECT_EQ(currency.lhs.site, PropSite::kAdjEdge);
  EXPECT_EQ(currency.op, CmpOp::kEq);
  EXPECT_EQ(currency.rhs_const.AsInt64(), 0);  // USD is category 0
  const Comparison& amount = cmd.pred.conjuncts()[1];
  EXPECT_EQ(amount.op, CmpOp::kGt);
  EXPECT_EQ(amount.rhs_const.AsInt64(), 10000);
  ASSERT_EQ(cmd.config.sorts.size(), 1u);
  EXPECT_EQ(cmd.config.sorts[0].source, SortSource::kNbrId);
}

TEST_F(DdlParserTest, CreateTwoHopViewFromMoneyFlow) {
  DdlCommand cmd = ParseDdl(
      "CREATE 2-HOP VIEW MoneyFlow "
      "MATCH vs-[eb]->vd-[eadj]->vnbr "
      "WHERE eb.date<eadj.date, eadj.amount<eb.amount "
      "INDEX AS PARTITION BY eadj.label SORT BY vnbr.city",
      ex_.graph.catalog());
  ASSERT_TRUE(cmd.ok()) << cmd.error;
  EXPECT_EQ(cmd.kind, DdlCommand::Kind::kCreateEp);
  EXPECT_EQ(cmd.ep_kind, EpKind::kDstFwd);
  EXPECT_TRUE(cmd.pred.HasCrossEdgeConjunct());
  ASSERT_EQ(cmd.config.partitions.size(), 1u);
  EXPECT_EQ(cmd.config.sorts[0].source, SortSource::kNbrProp);
  EXPECT_EQ(cmd.config.sorts[0].key, ex_.city_key);
}

TEST_F(DdlParserTest, AllFourTwoHopShapes) {
  const char* kShapes[4] = {
      "MATCH vs-[eb]->vd-[eadj]->vnbr",
      "MATCH vs-[eb]->vd<-[eadj]-vnbr",
      "MATCH vnbr-[eadj]->vs-[eb]->vd",
      "MATCH vnbr<-[eadj]-vs-[eb]->vd",
  };
  const EpKind kKinds[4] = {EpKind::kDstFwd, EpKind::kDstBwd, EpKind::kSrcFwd, EpKind::kSrcBwd};
  for (int i = 0; i < 4; ++i) {
    std::string ddl = std::string("CREATE 2-HOP VIEW V") + std::to_string(i) + " " + kShapes[i] +
                      " WHERE eb.date<eadj.date";
    DdlCommand cmd = ParseDdl(ddl, ex_.graph.catalog());
    ASSERT_TRUE(cmd.ok()) << ddl << ": " << cmd.error;
    EXPECT_EQ(cmd.ep_kind, kKinds[i]) << ddl;
  }
}

TEST_F(DdlParserTest, RejectsTwoHopWithoutCrossEdgePredicate) {
  // The "Redundant" example of Section III-B2.
  DdlCommand cmd = ParseDdl(
      "CREATE 2-HOP VIEW Redundant "
      "MATCH vs-[eb]->vd-[eadj]->vnbr "
      "WHERE eadj.amount<10000",
      ex_.graph.catalog());
  EXPECT_FALSE(cmd.ok());
  EXPECT_NE(cmd.error.find("both"), std::string::npos);
}

TEST_F(DdlParserTest, AddendInCrossEdgePredicate) {
  DdlCommand cmd = ParseDdl(
      "CREATE 2-HOP VIEW Flow "
      "MATCH vs-[eb]->vd-[eadj]->vnbr "
      "WHERE eadj.amount<eb.amount+500, eb.date<eadj.date",
      ex_.graph.catalog());
  ASSERT_TRUE(cmd.ok()) << cmd.error;
  EXPECT_EQ(cmd.pred.conjuncts()[0].rhs_addend, 500);
}

TEST_F(DdlParserTest, UnknownPropertyFails) {
  DdlCommand cmd = ParseDdl(
      "CREATE 1-HOP VIEW Bad MATCH vs-[eadj]->vd WHERE eadj.nonexistent>5",
      ex_.graph.catalog());
  EXPECT_FALSE(cmd.ok());
}

TEST_F(DdlParserTest, UnknownCategoryValueFails) {
  DdlCommand cmd = ParseDdl(
      "CREATE 1-HOP VIEW Bad MATCH vs-[eadj]->vd WHERE eadj.currency=JPY",
      ex_.graph.catalog());
  EXPECT_FALSE(cmd.ok());
}

TEST_F(DdlParserTest, DirectionFlags) {
  DdlCommand fw = ParseDdl(
      "CREATE 1-HOP VIEW F MATCH vs-[eadj]->vd WHERE eadj.amount>1 INDEX AS FW",
      ex_.graph.catalog());
  ASSERT_TRUE(fw.ok()) << fw.error;
  EXPECT_TRUE(fw.fwd);
  EXPECT_FALSE(fw.bwd);
  DdlCommand bw = ParseDdl(
      "CREATE 1-HOP VIEW B MATCH vs-[eadj]->vd WHERE eadj.amount>1 INDEX AS BW",
      ex_.graph.catalog());
  ASSERT_TRUE(bw.ok()) << bw.error;
  EXPECT_FALSE(bw.fwd);
  EXPECT_TRUE(bw.bwd);
}

TEST_F(DdlParserTest, GarbageFails) {
  EXPECT_FALSE(ParseDdl("DROP EVERYTHING", ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseDdl("", ex_.graph.catalog()).ok());
}

// One text per message the parser emits, with its exact wording. The
// first seven must neither abort nor parse: a negative, out-of-range or
// malformed number, an addend that is not an integer, a stray ';',
// trailing text, and a view name that is not an identifier.
constexpr std::pair<const char*, const char*> kDdlErrorCases[] = {
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.amount > -5",
     "expected right-hand side, got '-'"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.amount > 99999999999999999999",
     "integer literal out of range '99999999999999999999'"},
    {"CREATE 2-HOP VIEW V MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eadj.amount < eb.amount + x",
     "expected integer addend"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.amount > 5 ; INDEX AS FW-BW "
     "PARTITION BY eadj.label",
     "unexpected trailing token ';'"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.amount > 5 garbage trailing",
     "unexpected trailing token 'garbage'"},
    {"CREATE 1-HOP VIEW ( MATCH vs-[eadj]->vd", "expected view name, got '('"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.amount > 1.5.5",
     "malformed numeric literal '1.5.5'"},
    {"DROP EVERYTHING", "expected RECONFIGURE or CREATE"},
    {"CREATE 3-HOP VIEW Nope", "expected 1-HOP or 2-HOP after CREATE"},
    {"CREATE 1 HOP VIEW V", "expected '-', got 'HOP'"},
    {"RECONFIGURE PRIMARY INDEX", "expected 'INDEXES', got 'INDEX'"},
    {"CREATE 1-HOP TABLE V", "expected 'VIEW', got 'TABLE'"},
    {"CREATE 1-HOP VIEW V vs-[eadj]->vd", "expected 'MATCH', got 'vs'"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]- >vd",
     "unsupported 1-HOP pattern 'VS - [ EADJ ] - > VD'"},
    {"CREATE 2-HOP VIEW V MATCH vs-[eadj]->vd WHERE eb.date<eadj.date",
     "unsupported 2-HOP pattern 'VS - [ EADJ ] -> VD'"},
    {"CREATE 2-HOP VIEW V MATCH vs-[eb]->vd-[eadj]->vnbr INDEX AS FW",
     "2-HOP views require a WHERE clause referencing both edges"},
    {"CREATE 2-HOP VIEW V MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eadj.amount<10000",
     "2-HOP view predicate must reference both eb and eadj; use a 1-HOP view for "
     "single-edge predicates (Section III-B2)"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX FW", "expected 'AS', got 'FW'"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX AS FW-XX", "expected 'BW', got 'XX'"},
    {"RECONFIGURE PRIMARY INDEXES PARTITION eadj.label", "expected 'BY', got 'eadj'"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY 5", "expected property reference, got '5'"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY vnbr city", "expected '.', got 'city'"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY vnbr.5", "expected property name after '.'"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY vx.city", "unknown site vx"},
    {"RECONFIGURE PRIMARY INDEXES PARTITION BY vnbr.ID", "cannot partition by vnbr.ID"},
    {"RECONFIGURE PRIMARY INDEXES PARTITION BY vs.label", "cannot partition by vs.label"},
    {"CREATE 2-HOP VIEW V MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date "
     "INDEX AS PARTITION BY eb.currency",
     "cannot partition by eb.currency"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY vd.city", "cannot sort by vd.city"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY eadj.label", "cannot sort by eadj.label"},
    {"RECONFIGURE PRIMARY INDEXES SORT BY vnbr.city, eadj.ID", "cannot sort by eadj.ID"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.nonexistent>5",
     "unknown property nonexistent"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.amount ! 5",
     "expected comparison operator, got '!'"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.currency=JPY",
     "unknown category value JPY for property currency"},
    {"CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd WHERE eadj.currency='USD",
     "unterminated string literal"},
};

// Each message comes back from ParseDdl and, unchanged, from
// Database::ExecuteDdl, which then builds nothing.
TEST_F(DdlParserTest, EveryErrorMessage) {
  Database db(ExampleWithCurrencies().graph);
  db.BuildPrimaryIndexes();
  for (const auto& [text, message] : kDdlErrorCases) {
    EXPECT_EQ(ParseDdl(text, ex_.graph.catalog()).error, message) << text;
    const DdlResult result = db.ExecuteDdl(text);
    EXPECT_FALSE(result.ok) << text;
    EXPECT_EQ(result.message, message) << text;
  }
  EXPECT_EQ(db.index_store().FindVpIndex("V", Direction::kFwd), nullptr);
}

// Every DDL text of the repository: this file, the tests that run DDL
// through Database::ExecuteDdl, the benchmark workloads, the quickstart
// example and the examples of ddl_parser.h (duplicates listed once), then
// spelling variants: case, spacing, quoted constants, AND.
constexpr const char* kDdlCorpus[] = {
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.city",
    "RECONFIGURE PRIMARY INDEXES PARTITON BY eadj.label SORT BY vnbr.city",
    "CREATE 1-HOP VIEW LargeUSDTrnx MATCH vs-[eadj]->vd WHERE eadj.currency=USD, "
    "eadj.amount>10000 INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID",
    "CREATE 2-HOP VIEW MoneyFlow MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date, "
    "eadj.amount<eb.amount INDEX AS PARTITION BY eadj.label SORT BY vnbr.city",
    "CREATE 2-HOP VIEW V0 MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date",
    "CREATE 2-HOP VIEW V1 MATCH vs-[eb]->vd<-[eadj]-vnbr WHERE eb.date<eadj.date",
    "CREATE 2-HOP VIEW V2 MATCH vnbr-[eadj]->vs-[eb]->vd WHERE eb.date<eadj.date",
    "CREATE 2-HOP VIEW V3 MATCH vnbr<-[eadj]-vs-[eb]->vd WHERE eb.date<eadj.date",
    "CREATE 2-HOP VIEW Redundant MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eadj.amount<10000",
    "CREATE 2-HOP VIEW Flow MATCH vs-[eb]->vd-[eadj]->vnbr "
    "WHERE eadj.amount<eb.amount+500, eb.date<eadj.date",
    "CREATE 1-HOP VIEW Bad MATCH vs-[eadj]->vd WHERE eadj.nonexistent>5",
    "CREATE 1-HOP VIEW Bad MATCH vs-[eadj]->vd WHERE eadj.currency=JPY",
    "CREATE 1-HOP VIEW F MATCH vs-[eadj]->vd WHERE eadj.amount>1 INDEX AS FW",
    "CREATE 1-HOP VIEW B MATCH vs-[eadj]->vd WHERE eadj.amount>1 INDEX AS BW",
    "DROP EVERYTHING",
    "",
    "CREATE 1-HOP VIEW LargeTrnx MATCH vs-[eadj]->vd WHERE eadj.amount>50 "
    "INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID",
    "CREATE 3-HOP VIEW Nope",
    "CREATE 1-HOP VIEW V1 MATCH vs-[eadj]->vd WHERE eadj.amount>50 "
    "INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID",
    "CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW "
    "PARTITION BY eadj.label SORT BY vnbr.city",
    "CREATE 1-HOP VIEW VPa MATCH vs-[eadj]->vd INDEX AS FW-BW PARTITION BY eadj.label, vnbr.acc",
    "CREATE 2-HOP VIEW EPa MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date "
    "INDEX AS PARTITION BY eadj.label, vnbr.acc",
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.acc",
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.a, vnbr.b",
    "CREATE 1-HOP VIEW Wide MATCH vs-[eadj]->vd INDEX AS FW-BW PARTITION BY eadj.a, vnbr.b",
    "CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr "
    "WHERE eb.date<eadj.date, eadj.amount<eb.amount, eb.amount<eadj.amount+50 "
    "INDEX AS PARTITION BY eadj.label, vnbr.acc SORT BY vnbr.city",
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID",
    "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd INDEX AS FW "
    "PARTITION BY eadj.label SORT BY eadj.time",
    "CREATE 1-HOP VIEW LargeUSDTrnx MATCH vs-[eadj]->vd WHERE eadj.currency=USD, "
    "eadj.amount>100 INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID",
    "CREATE 2-HOP VIEW MoneyFlow MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date, "
    "eadj.amount<eb.amount INDEX AS PARTITION BY eadj.label SORT BY vnbr.ID",
    "CREATE 1-HOP VIEW LargeUSDTrnx MATCH vs-[eadj]->vd WHERE eadj.currency=USD, "
    "eadj.amt>10000 INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID",
    "CREATE 2-HOP VIEW MoneyFlow MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date, "
    "eadj.amt<eb.amt INDEX AS PARTITION BY eadj.label SORT BY vnbr.city",
    "create 1-hop view lower match vs-[eadj]->vd where eadj.currency='EUR' and "
    "eadj.amount>=1.5 AND vs.name=Alice, vd.city<>2 index as FW-BW partitIon by vnbr.label "
    "sort by vnbr.label, eadj.date",
    "CREATE 1 - HOP VIEW Spaced MATCH vs - [ eadj ] -> vd WHERE eadj.amount <= 7 "
    "INDEX AS FW - BW SORT BY eadj.amount",
    "RECONFIGURE PRIMARY INDEXES",
    "RECONFIGURE PRIMARY INDEXES SORT BY vnbr.city, eadj.amount",
    "CREATE 2-HOP VIEW Ids MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.ID<eadj.ID, "
    "eadj.label=eb.label INDEX AS SORT BY vnbr.ID",
    "CREATE 1-HOP VIEW Str MATCH vs-[eadj]->vd WHERE eadj.label=W, vnbr.acc=1",
    "CREATE 1-HOP VIEW Cut MATCH vs-[eadj]->vd WHERE",
};

// The Figure 1 catalog with named currencies, plus every property the
// corpus names beyond it: eadj.amt (ddl_parser.h), eadj.time (the
// MagicRecs view) and eadj.a / vnbr.b (the fan-out bound test).
Catalog CorpusCatalog() {
  ExampleGraph ex = ExampleWithCurrencies();
  ex.graph.AddEdgeProperty("amt", ValueType::kInt64);
  ex.graph.AddEdgeProperty("time", ValueType::kInt64);
  ex.graph.AddEdgeProperty("a", ValueType::kCategory, 5000);
  ex.graph.AddVertexProperty("b", ValueType::kCategory, 5000);
  return ex.graph.catalog();
}

// A canonical dump of every DdlCommand field; a failed parse is the
// word "error" alone (error texts are free to change).
std::string DdlDump(const std::string& text, const Catalog& catalog) {
  const DdlCommand cmd = ParseDdl(text, catalog);
  std::ostringstream out;
  out << "text " << text << "\n";
  if (!cmd.ok()) {
    out << "error\n";
    return out.str();
  }
  const char* const kKinds[] = {"reconfigure", "create-vp", "create-ep"};
  out << "kind " << kKinds[static_cast<int>(cmd.kind)] << "\n";
  out << "view " << cmd.view_name << "\n";
  out << "pred " << cmd.pred.ToString(catalog) << "\n";
  for (const Comparison& cmp : cmd.pred.conjuncts()) {
    out << "rhs " << (cmp.rhs_is_const ? ToString(cmp.rhs_const.type()) : "ref") << "\n";
  }
  out << "ep_kind " << ToString(cmd.ep_kind) << "\n";
  out << "fwd=" << cmd.fwd << " bwd=" << cmd.bwd << "\n";
  for (const PartitionCriterion& crit : cmd.config.partitions) {
    out << "partition " << ToString(catalog, crit) << "\n";
  }
  for (const SortCriterion& crit : cmd.config.sorts) {
    out << "sort " << ToString(catalog, crit) << "\n";
  }
  return out.str();
}

// Every corpus parse must match tests/data/ddl_golden.txt, recorded once
// with the DDL parser's own tokenizer, before it was rewritten over the
// Cypher lexer; it has no update switch.
TEST(DdlParserGoldenTest, ParsesMatchRecording) {
  const Catalog catalog = CorpusCatalog();
  std::string dump;
  for (size_t i = 0; i < std::size(kDdlCorpus); ++i) {
    dump += "== " + std::to_string(i) + "\n" + DdlDump(kDdlCorpus[i], catalog);
  }
  const char* const path = APLUS_TEST_DATA_DIR "/ddl_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  // Compare block by block so a failure names the text.
  auto blocks = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("== ", 0) == 0 || out.empty()) out.emplace_back();
      out.back() += line + "\n";
    }
    return out;
  };
  const std::vector<std::string> want = blocks(expected.str());
  const std::vector<std::string> got = blocks(dump);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

// Every prefix and every single-byte substitution of every corpus text
// must parse or fail with a message, never throw or crash (a '-' in
// place of a digit once reached std::stoll).
TEST(DdlParserMutationTest, EveryPrefixAndSubstitutionParsesOrFails) {
  const Catalog catalog = CorpusCatalog();
  const char kBytes[] = {'\'', '$', '.', '\x80', '(', '-', ',', '9', ' ', '>', '&', ';'};
  size_t parsed_ok = 0;
  size_t rejected = 0;
  auto check = [&](const std::string& mutant) {
    const DdlCommand cmd = ParseDdl(mutant, catalog);
    ++(cmd.ok() ? parsed_ok : rejected);
  };
  for (const std::string text : kDdlCorpus) {
    for (size_t len = 0; len <= text.size(); ++len) check(text.substr(0, len));
    for (size_t pos = 0; pos < text.size(); ++pos) {
      for (char byte : kBytes) {
        if (text[pos] == byte) continue;
        std::string mutant = text;
        mutant[pos] = byte;
        check(mutant);
      }
    }
  }
  std::printf("%zu mutants parsed, %zu rejected\n", parsed_ok, rejected);
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace aplus
